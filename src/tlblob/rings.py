"""Exact coefficient rings: the ring arithmetic every other layer uses.

Two rings cover every scalar in the package:

* ``LaurentInt`` -- integer Laurent polynomials Z[x, x^-1].  The loop
  parameter is q = x^2, so half-integer powers of q are honest elements.
* ``CycloLaurent`` -- Laurent polynomials over Z[a]/(a^4 + 1).  The
  adjoined unit a satisfies a^4 = -1, hence a^2 + a^-2 = 0.

The first is a subring of the second, and one class does the arithmetic of
both.  An element is a dict {8*e + k: nonzero int} meaning the sum of
c * a^k * x^e, 0 <= k < 4, so the integer Laurent elements are those whose
keys are multiples of 8.  A product adds keys, which cannot carry into x as
k1 + k2 <= 6; only the cyclotomic ring then folds a^k, k >= 4, into
-a^(k-4).  The classes differ only in their ``ring`` tag and ``repr``, and
a cyclotomic operand makes the result a ``CycloLaurent``.  Exact division
by a divisor with an a-part first multiplies both sides by the divisor's
images under a -> a^3, a^5, a^7, whose product with it is a-free, so plain
Laurent long division then runs on the packed keys.  With no zero
coefficient stored, equality is dict equality, equal elements hash equal
in either ring, and values are hashable and immutable.

A signed unit monomial +-a^k x^e also has a one-int form, its code
(8e + k) << 1 | sign, which the certificate word chains multiply without
building elements: the kernel is ``tlblob.codes``, and ``_code_element``
here turns a code back into its element.

The modular full-rank witnesses live in ``tlblob.rank``.  Exact rank and
the tagged JSON form of an element, which only the fallbacks and the
workbench commands use, live in ``tlblob.reference``, and the canonical
JSON writer in ``tlblob._json``.
"""

from . import _forwarder

__all__ = [
    "LaurentInt", "CycloInt", "CycloLaurent", "BlobParams", "quantum_integer",
    "rank_exact", "rank_modular", "dumps_canonical",
]

# perfbench/traced.py wraps these by this module's name; ``reference`` and
# ``_json`` define them.
__getattr__ = _forwarder(__name__, reference=("rank_exact", "rank_modular"),
                         _json=("dumps_canonical",))


class ExactDivisionError(ArithmeticError):
    """Raised when an exact division has a remainder."""


def _coerce_int(value, error=TypeError):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"expected int, got {type(value).__name__} {value!r}")


class _Laurent:
    """Shared arithmetic of both rings on packed keys {8*e + k: nonzero int}."""

    __slots__ = ("terms",)
    ring = None  # "laurent" or "cyclo"

    @classmethod
    def _make(cls, terms):
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def from_int(cls, k):
        return cls._make({0: k} if _coerce_int(k) else {})

    @classmethod
    def x_power(cls, e, coeff=1):
        return cls._make({8 * _coerce_int(e): coeff} if _coerce_int(coeff) else {})

    @classmethod
    def zero(cls):
        return cls._make({})

    @classmethod
    def one(cls):
        return cls._make({0: 1})

    def _join(self, other):
        """(other's terms, result class), or (None, None) for a non-element."""
        if isinstance(other, _Laurent):
            cyclo = self.ring == "cyclo" or other.ring == "cyclo"
            return other.terms, (CycloLaurent if cyclo else LaurentInt)
        if isinstance(other, int) and not isinstance(other, bool):
            return ({0: other} if other else {}), type(self)
        return None, None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.terms == other.terms
        terms, cls = self._join(other)
        return NotImplemented if cls is None else self.terms == terms

    def __hash__(self):
        t = self.terms
        if len(t) == 1 and 0 in t:
            return hash(t[0])  # a constant hashes like the int it equals
        return hash(frozenset(t.items())) if t else 0

    def __add__(self, other):
        if type(other) is type(self):
            g, cls = other.terms, type(self)
        else:
            g, cls = self._join(other)
            if cls is None:
                return NotImplemented
        out = dict(self.terms)
        for k, c in g.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        res = cls.__new__(cls)  # _make, inlined on the hot paths
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        return type(self)._make({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is type(self):
            g, cls = other.terms, type(self)
        else:
            g, cls = self._join(other)
            if cls is None:
                return NotImplemented
        f = self.terms
        if len(g) == 1:
            ((key, coeff),) = g.items()
            return cls._shifted(f, key, coeff)
        if len(f) == 1:
            ((key, coeff),) = f.items()
            return cls._shifted(g, key, coeff)
        out = {}
        for k1, c1 in f.items():
            for k2, c2 in g.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        if cls.ring == "cyclo":  # a^k = -a^(k-4) for k >= 4
            for k in [k for k in out if k & 4]:
                s = out.get(k - 4, 0) - out.pop(k)
                if s:
                    out[k - 4] = s
                else:
                    out.pop(k - 4, None)
        res = cls.__new__(cls)
        res.terms = out
        return res

    __rmul__ = __mul__

    @classmethod
    def _shifted(cls, terms, key, coeff):
        """terms times the monomial coeff * a^k x^e, key = 8e + k.

        Every key moves by ``key``; a sum with a-part k >= 4 folds to
        -a^(k-4).  No two terms merge: their a-parts differ by less than 4.
        ``*`` calls this when either operand has one term, so every matrix
        product with a unit monomial entry takes it.
        """
        if key & 7:
            out = {}
            for k, c in terms.items():
                k += key
                if k & 4:
                    out[k - 4] = -c * coeff
                else:
                    out[k] = c * coeff
        else:
            out = {k + key: c * coeff for k, c in terms.items()}
        res = cls.__new__(cls)
        res.terms = out
        return res

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        res, base = self.one(), self
        while k:
            if k & 1:
                res = res * base
            base = base * base
            k >>= 1
        return res

    def min_exp(self):
        return min(self.terms) >> 3 if self.terms else 0

    def is_unit_monomial(self):
        """True for +-a^k x^e: every unit of Z[x, x^-1], every cyclotomic one we build."""
        return len(self.terms) == 1 and next(iter(self.terms.values())) in (1, -1)

    def unit_inverse(self):
        if not self.is_unit_monomial():
            raise ExactDivisionError(f"{self!r} is not a monomial unit")
        ((key, c),) = self.terms.items()
        # (c a^k x^e)^-1 = c a^-k x^-e, and a^-k = -a^(4-k) for 0 < k < 4.
        return type(self)._make({4 - key: -c} if key & 7 else {-key: c})

    def _adjugate(self):
        """Self's images under a -> a^3, a^5, a^7, multiplied; times self, a-free."""
        out = self.one()
        for j in (3, 5, 7):
            conj = {}
            for key, c in self.terms.items():
                kj = (key & 7) * j % 8  # a^kj = -a^(kj - 4) for kj >= 4
                conj[(key & ~7) + kj % 4] = -c if kj >= 4 else c
            out = out * type(self)._make(conj)
        return out

    def divexact(self, other):
        """Exact quotient self / other; raises ExactDivisionError on remainder."""
        if not isinstance(other, _Laurent) or not other:
            raise ExactDivisionError("division by zero or non-ring divisor")
        if other.is_unit_monomial():
            return self * other.unit_inverse()
        cls = self._join(other)[1]
        f, g = self.terms, other.terms
        if any(k & 7 for k in g):
            adj = other._adjugate()
            f, g = (self * adj).terms, (other * adj).terms
        if not f:
            return cls.zero()
        sf, sg = min(f) & ~7, min(g) & ~7  # shift by whole powers of x
        f = {k - sf: c for k, c in f.items()}
        g = {k - sg: c for k, c in g.items()}
        gd = max(g)
        glead = g[gd]
        quot = {}
        while f:
            fd = max(f)
            if fd < gd:
                raise ExactDivisionError("inexact Laurent division")
            c, r = divmod(f[fd], glead)
            if r:
                raise ExactDivisionError("inexact coefficient division")
            shift = fd - gd
            quot[shift + sf - sg] = c
            for k, gc in g.items():
                k += shift
                s = f.get(k, 0) - c * gc
                if s:
                    f[k] = s
                else:
                    del f[k]
        return cls._make(quot)

    def evaluate_mod(self, x_val, a_val, p):
        """Image under x -> x_val, a -> a_val in F_p (a_val unused on Z[x, x^-1])."""
        acc = 0
        for key, c in self.terms.items():
            k = key & 7
            term = c * pow(x_val, key >> 3, p)
            acc += term * pow(a_val, k, p) if k else term
        return acc % p

    def _by_exponent(self):
        """[(e, [c0, c1, c2, c3])] in increasing e: the coefficient of x^e."""
        rows = {}
        for key in sorted(self.terms):
            rows.setdefault(key >> 3, [0, 0, 0, 0])[key & 7] = self.terms[key]
        return rows.items()

class LaurentInt(_Laurent):
    """An element of Z[x, x^-1]."""

    __slots__ = ()
    ring = "laurent"

    def __init__(self, coeffs=None):
        self.terms = {8 * _coerce_int(e): c for e, c in (coeffs or {}).items()
                      if _coerce_int(c)}

    def evaluate(self, x0):
        """Evaluate at an exact rational (or integer) point x0 != 0."""
        from fractions import Fraction

        x0 = Fraction(x0)
        return sum((c * x0 ** (k >> 3) for k, c in self.terms.items()), Fraction(0))

    def __repr__(self):
        parts = []
        for e, (c, _, _, _) in self._by_exponent():
            parts.append(f"{c}" if e == 0 else f"{c}*x" if e == 1 else f"{c}*x^{e}")
        return " + ".join(parts) if parts else "0"


def quantum_integer(n):
    """The balanced q-integer q^(n-1) + q^(n-3) + ... + q^(1-n) with q = x^2.

    Extended to all integers by [0] = 0 and [-n] = -[n].
    """
    if n == 0:
        return LaurentInt()
    if n < 0:
        return -quantum_integer(-n)
    return LaurentInt({2 * (n - 1 - 2 * j): 1 for j in range(n)})


class CycloLaurent(_Laurent):
    """An element of Z[a, x, x^-1]/(a^4 + 1), built as {e: c} for sum c x^e.

    Each c is an int or a ring element, in practice a ``CycloInt`` constant.
    """

    __slots__ = ()
    ring = "cyclo"

    def __init__(self, coeffs=None):
        total = CycloLaurent.zero()
        for e, c in (coeffs or {}).items():
            total = total + CycloLaurent.x_power(e) * c
        self.terms = total.terms

    @classmethod
    def from_laurent(cls, p):
        """Ring injection Z[x, x^-1] -> Z[a, x, x^-1]/(a^4+1): a new tag only."""
        return cls._make(p.terms)

    @classmethod
    def a_power(cls, k, x_exp=0):
        """a^k x^x_exp; a^-1 = -a^3."""
        return cls._make({8 * x_exp + k % 4: 1 if k % 8 < 4 else -1})

    def __repr__(self):
        names = ("", "*a", "*a^2", "*a^3")
        parts = []
        for e, cs in self._by_exponent():
            inner = " + ".join(f"{c}{n}" for c, n in zip(cs, names) if c)
            parts.append(f"({inner})*x^{e}")
        return " + ".join(parts) if parts else "0"


class CycloInt(CycloLaurent):
    """The constant c0 + c1 a + c2 a^2 + c3 a^3 of Z[a]/(a^4 + 1).

    ``CycloInt.a_power(k)`` is a^k; arithmetic is that of ``CycloLaurent``.
    """

    __slots__ = ()

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.terms = {k: c for k, c in enumerate((c0, c1, c2, c3)) if _coerce_int(c)}

    @classmethod
    def from_tuple(cls, t):
        c0, c1, c2, c3 = t
        return cls(c0, c1, c2, c3)

    def norm(self):
        """Product of all four conjugates; a nonnegative rational integer."""
        return (self * self._adjugate()).terms.get(0, 0)


class BlobParams:
    """The three scalars of the blob algebra: [2], gamma and delta_e.

    ``integral_form(m)`` produces the integral-form specialization
    gamma = q^(m-1) - q^(1-m), delta_e = q^m - q^(-m) with q = x^2.
    """

    __slots__ = ("delta", "gamma", "delta_e")

    def __init__(self, delta, gamma, delta_e):
        self.delta = delta
        self.gamma = gamma
        self.delta_e = delta_e

    @classmethod
    def integral_form(cls, m, cyclo=False):
        delta = quantum_integer(2)
        gamma = LaurentInt({2 * (m - 1): 1}) - LaurentInt({-2 * (m - 1): 1})
        delta_e = LaurentInt({2 * m: 1}) - LaurentInt({-2 * m: 1})
        lift = CycloLaurent.from_laurent if cyclo else (lambda v: v)
        return cls(lift(delta), lift(gamma), lift(delta_e))

    def sign_flipped(self):
        """Parameters of the twisted algebra where the blob generator is negated."""
        return BlobParams(self.delta, -self.gamma, -self.delta_e)

    def composition_scalar(self, plain_loops, blob_loops, blob_merges):
        """delta^plain * gamma^blob_loops * delta_e^merges as a ring element."""
        return (self.delta ** plain_loops) * (self.gamma ** blob_loops) \
            * (self.delta_e ** blob_merges)


def _code_element(code):
    """The element +-a^k x^e of a code; integer Laurent when k = 0."""
    key = code >> 1
    return (CycloLaurent if key & 7 else LaurentInt)._make({key: -1 if code & 1 else 1})


RINGS = {"laurent": LaurentInt, "cyclo": CycloLaurent}
