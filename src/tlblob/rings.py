"""Exact coefficient rings, exact rank and modular full-rank witnesses.

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
-a^(k-4).  The classes differ only in their ``ring`` tag, JSON payload and
``repr``, and a cyclotomic operand makes the result a ``CycloLaurent``.
Exact division by a divisor with an a-part first multiplies both sides by
the divisor's images under a -> a^3, a^5, a^7, whose product with it is
a-free, so plain Laurent long division then runs on the packed keys.  With
no zero coefficient stored, equality is dict equality, equal elements hash
equal in either ring, and values are hashable and immutable.

A signed unit monomial +-a^k x^e also has a one-int form, its code
(8e + k) << 1 | sign (``_unit_code``), which the certificate word chains
multiply without building elements.  The rank functions take vectors of
codes as well as of elements.
"""

from __future__ import annotations

import json
import random

from ._record import forward_to_reference

__all__ = [
    "LaurentInt", "CycloInt", "CycloLaurent", "BlobParams", "quantum_integer",
    "rank_exact", "rank_modular", "full_rank_witness", "check_full_rank_witness",
]

# The tagged JSON form of an element, loaded on first use.
_REFERENCE_NAMES = ("element_to_json", "element_from_json")
__getattr__ = forward_to_reference(__name__, _REFERENCE_NAMES)


class ExactDivisionError(ArithmeticError):
    """Raised when an exact division has a remainder."""


def _coerce_int(value, error=TypeError):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"expected int, got {type(value).__name__} {value!r}")


def _json_exponent(key):
    if not isinstance(key, str) or str(int(key)) != key:
        raise ValueError(f"exponent key must be a decimal integer string, got {key!r}")
    return int(key)


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
        ``SparseRepMatrix.mul`` calls this directly for one-term entries.
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

    def to_json(self):
        """{str(e): c} over Z[x, x^-1], {str(e): [c0, c1, c2, c3]} with a."""
        cyclo = self.ring == "cyclo"
        return {str(e): cs if cyclo else cs[0] for e, cs in self._by_exponent()}

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; ValueError for anything to_json cannot emit."""
        if not isinstance(obj, dict):
            raise ValueError(f"coefficients must be a JSON object, got {obj!r}")
        terms = {}
        for key, payload in obj.items():
            if cls.ring == "laurent":
                payload = [payload]
            elif not isinstance(payload, list) or len(payload) != 4:
                raise ValueError(f"cyclotomic coefficient must be 4 integers, got {payload!r}")
            e = _json_exponent(key)
            for k, c in enumerate(payload):
                if _coerce_int(c, ValueError):
                    terms[8 * e + k] = c
        return cls._make(terms)


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


def _unit_code(elem):
    """(8e + k) << 1 | sign for elem = +-a^k x^e (sign 1 for minus), else None."""
    terms = elem.terms
    if len(terms) == 1:
        ((key, c),) = terms.items()
        if c == 1 or c == -1:
            return key << 1 | (c < 0)
    return None


def _code_element(code):
    """The element +-a^k x^e of a code; integer Laurent when k = 0."""
    key = code >> 1
    return (CycloLaurent if key & 7 else LaurentInt)._make({key: -1 if code & 1 else 1})


def _holds_codes(vectors):
    """Whether the vectors' entries are codes (ints) rather than ring elements."""
    for vec in vectors:
        for value in vec.values():
            return type(value) is int
    return False


def _row_cleanup(row):
    return {k: v for k, v in row.items() if v}


def rank_exact(vectors):
    """Rank over the fraction field, by fraction-free elimination.

    ``vectors`` is an iterable of sparse mappings {index: ring element}; the
    index keys only need to be hashable and mutually comparable.  Entries may
    be LaurentInt or CycloLaurent (one ring per call).  Elimination is
    one-step Bareiss with full pivoting; the pivot column is chosen sparsest
    first, so the near-triangular matrices this package produces eliminate
    with almost no fill-in.  Since x is a unit, each row is first normalized
    by a power of x (clearing denominators cannot change the rank).
    Entries that are codes (``_unit_code``) are decoded first.
    """
    active = []
    for vec in vectors:
        if _holds_codes([vec]):
            vec = {k: _code_element(c) for k, c in vec.items()}
        row = _row_cleanup(dict(vec))
        if row:
            shift = -min(v.min_exp() for v in row.values())
            if shift:
                xs = type(next(iter(row.values()))).x_power(shift)
                row = {k: v * xs for k, v in row.items()}
            active.append(row)
    rank = 0
    divide = None  # exact division by the previous pivot
    while active:
        cols = {}
        for i, row in enumerate(active):
            for c in row:
                cols.setdefault(c, []).append(i)
        col = min(cols, key=lambda c: (len(cols[c]), c))
        candidates = cols[col]
        pi = min(candidates, key=lambda i: (len(active[i]), i))
        pivot_row = active.pop(pi)
        p = pivot_row[col]
        updated = []
        for row in active:
            a = row.get(col)
            new = {k: p * v for k, v in row.items()}
            if a is not None:  # new = p * row - a * pivot_row
                for k, w in pivot_row.items():
                    t = a * w
                    new[k] = new[k] - t if k in new else -t
            new = _row_cleanup(new)
            if divide is not None:
                new = {k: divide(v) for k, v in new.items()}
            if new:
                updated.append(new)
        active = updated
        # A unit pivot is inverted once per step, not once per entry.
        divide = p.unit_inverse().__mul__ if p.is_unit_monomial() else \
            (lambda v, p=p: v.divexact(p))
        rank += 1
    return rank


_MODULAR_PRIME = 998244353  # prime, = 1 mod 8, so a with a^4 = -1 exists


def _modular_eighth_root(rng, p):
    while True:
        z = rng.randrange(2, p - 1)
        a = pow(z, (p - 1) // 8, p)
        if pow(a, 4, p) == p - 1:
            return a


def _restrict(vectors, cols):
    """The vectors' entries in ``cols``, one pass over each vector's keys."""
    cols = set(cols)
    return [{c: e for c, e in v.items() if c in cols} for v in vectors]


def _evaluate_rows(vectors, x_val, a_val, p, cols=None):
    """Each vector's image under x -> x_val, a -> a_val, as {col: residue}.

    With ``cols`` given, only those columns are evaluated.  Each packed key
    8e + k is turned into x_val^e a_val^k mod p once per call, through a
    table filled as keys appear; the residues are those of ``evaluate_mod``.
    """
    if cols is not None:
        vectors = _restrict(vectors, cols)
    table = {}
    rows = []
    for v in vectors:
        row = {}
        for col, elem in v.items():
            acc = 0
            for key, c in elem.terms.items():
                m = table.get(key)
                if m is None:
                    m = table[key] = pow(x_val, key >> 3, p) * pow(a_val, key & 7, p) % p
                acc += c * m
            if acc % p:
                row[col] = acc % p
        rows.append(row)
    return rows


def _evaluate_codes(vectors, x_val, a_val, p, cols=None):
    """``_evaluate_rows`` for vectors of codes.

    Each distinct code is evaluated once.  A unit is never zero mod p, so
    every entry is kept.
    """
    if cols is not None:
        vectors = _restrict(vectors, cols)
    table = {}
    for code in set().union(*(v.values() for v in vectors)):
        key = code >> 1
        m = pow(x_val, key >> 3, p) * pow(a_val, key & 7, p) % p
        table[code] = p - m if code & 1 else m
    return [{k: table[c] for k, c in v.items()} for v in vectors]


def _rank_mod_p(int_rows, p):
    """Pivot columns of an echelon form mod p; their count is the rank.

    Each row is keyed by its leading (smallest) column with a nonzero
    residue.  While a pivot row owns that column, the row is reduced by the
    multiple of the pivot row that clears it; a row that vanishes is
    dependent, any other becomes the pivot row of its leading column.  Only
    the row being reduced is written to (a copy, made at its first
    reduction); the input rows are never copied up front or mutated.

    The pivot set depends only on the span V of the rows mod p.  Every
    pivot row lies in V and the pivot rows have distinct leading columns,
    so they are rank(V) distinct leading columns of vectors in V.  V has
    exactly dim V leading columns (the pivots of its reduced echelon form),
    so the two sets are equal, whatever the order of the rows or of the
    reduction.  Eager Gaussian elimination meets the same conditions and
    names the same set, so a sorted witness keeps its bytes.  When every
    row yields a pivot, the minor on the pivot columns is nonzero mod p:
    ordered by leading column, the pivot rows restricted to them are
    triangular with nonzero diagonal.
    """
    pivot_rows = {}
    inverses = {}
    for row in int_rows:
        lead = min(row, default=None)
        if lead is not None and not row[lead] % p:
            lead = min((k for k, v in row.items() if v % p), default=None)
        copied = False
        while lead in pivot_rows:
            if not copied:
                row = {k: v % p for k, v in row.items() if v % p}
                copied = True
            pivot = pivot_rows[lead]
            inv = inverses.get(lead)
            if inv is None:
                inv = inverses[lead] = pow(pivot[lead], p - 2, p)
            f = row[lead] * inv % p
            for k, v in pivot.items():
                r = (row.get(k, 0) - f * v) % p
                if r:
                    row[k] = r
                else:
                    row.pop(k, None)
            row.pop(lead, None)  # already cancelled; dropping it ensures progress
            lead = min(row, default=None)
        if lead is not None:
            pivot_rows[lead] = row
    return list(pivot_rows)


def _trial_points(trials, seed, p):
    """Seeded (x, a) points: x a unit mod p, a a root of a^4 + 1 mod p."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    return [(rng.randrange(2, p - 1), _modular_eighth_root(rng, p))
            for _ in range(trials)]


def rank_modular(vectors, trials=5, seed=0):
    """Rank lower bound: evaluate x (and a) at random residues mod p.

    Specializing is a ring map, so it can only lose rank: the maximum over
    trials is <= the true rank, with equality overwhelmingly likely.  A
    result equal to the number of vectors is a proof of full rank;
    ``full_rank_witness`` records the point so that it can be re-checked.
    """
    p = _MODULAR_PRIME
    points = _trial_points(trials, seed, p)
    vecs = [v for v in map(dict, vectors) if any(v.values())]
    if not vecs:
        return 0
    return max(len(_rank_mod_p(_evaluate_rows(vecs, x_val, a_val, p), p))
               for x_val, a_val in points)


def full_rank_witness(vectors, trials=5, seed=0):
    """A re-checkable proof that ``vectors`` are independent, or None.

    x -> x0 != 0 and a -> a0 with a0^4 = -1 (mod p) is a ring map from
    Z[a, x, x^-1]/(a^4 + 1) to F_p, so a nonzero minor mod p is the image of
    a nonzero minor over the ring.  The witness names the point and the
    columns of one such minor: {"p", "x", "a", "pivots"}.  None means no
    trial reached full rank; it proves nothing either way.  The entries may
    be ring elements or codes (``_unit_code``).
    """
    p = _MODULAR_PRIME
    points = _trial_points(trials, seed, p)
    vecs = list(vectors)
    if not vecs:
        return None
    evaluate = _evaluate_codes if _holds_codes(vecs) else _evaluate_rows
    for x_val, a_val in points:
        pivots = _rank_mod_p(evaluate(vecs, x_val, a_val, p), p)
        if len(pivots) == len(vecs):
            return {"p": p, "x": x_val, "a": a_val, "pivots": sorted(pivots)}
    return None


def _column_key(col):
    # JSON turns (row, col) keys into lists; compare them as tuples.
    return tuple(col) if isinstance(col, list) else col


def check_full_rank_witness(vectors, witness):
    """True iff ``witness`` proves that ``vectors`` have full rank.

    Checks the prime, that x is a unit and a a root of a^4 + 1 mod p, that
    the pivots are one distinct column per vector, and that the minor on
    those columns is nonzero mod p.  Accepts a witness read back from JSON.
    """
    vecs = list(vectors)
    try:
        p, x_val, a_val = (witness[k] for k in ("p", "x", "a"))
        pivots = [_column_key(c) for c in witness["pivots"]]
        one_per_vector = len(set(pivots)) == len(pivots) == len(vecs)
    except (KeyError, TypeError):  # missing field, or an unhashable column
        return False
    if not one_per_vector or not all(type(v) is int for v in (p, x_val, a_val)):
        return False
    if p != _MODULAR_PRIME or x_val % p == 0 or pow(a_val, 4, p) != p - 1:
        return False
    evaluate = _evaluate_codes if _holds_codes(vecs) else _evaluate_rows
    minor = evaluate(vecs, x_val, a_val, p, cols=pivots)
    return len(_rank_mod_p(minor, p)) == len(vecs)


RINGS = {"laurent": LaurentInt, "cyclo": CycloLaurent}


def dumps_canonical(obj):
    """Deterministic JSON used by certificates and the CLI."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
