"""Exact coefficient rings, exact rank and modular full-rank witnesses.

Two rings cover every scalar in the package:

* ``LaurentInt`` -- integer Laurent polynomials Z[x, x^-1].  The loop
  parameter is q = x^2, so half-integer powers of q are honest elements.
* ``CycloLaurent`` -- Laurent polynomials over Z[a]/(a^4 + 1).  The
  adjoined unit a satisfies a^4 = -1, hence a^2 + a^-2 = 0.

Both are kept in canonical form (no stored zero coefficients), so equality
is plain map equality and values are hashable and immutable.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

__all__ = [
    "LaurentInt",
    "CycloInt",
    "CycloLaurent",
    "BlobParams",
    "quantum_integer",
    "rank_exact",
    "rank_modular",
    "full_rank_witness",
    "check_full_rank_witness",
]


class ExactDivisionError(ArithmeticError):
    """Raised when an exact division has a remainder."""


def _coerce_int(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected int, got {type(value).__name__}")


class LaurentInt:
    """An element of Z[x, x^-1], stored as {exponent: nonzero int}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if _coerce_int(c):
                    clean[int(e)] = c
        self.coeffs = clean

    @classmethod
    def from_int(cls, k):
        return cls({0: k})

    @classmethod
    def x_power(cls, e, coeff=1):
        return cls({e: coeff})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentInt.from_int(other)
        if not isinstance(other, LaurentInt):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentInt.from_int(other)
        if not isinstance(other, LaurentInt):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentInt.__new__(LaurentInt)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentInt.__new__(LaurentInt)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentInt.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentInt()
            res = LaurentInt.__new__(LaurentInt)
            res.coeffs = {e: c * other for e, c in self.coeffs.items()}
            return res
        if not isinstance(other, LaurentInt):
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = LaurentInt.__new__(LaurentInt)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        res = LaurentInt.one()
        base = self
        while k:
            if k & 1:
                res = res * base
            base = base * base
            k >>= 1
        return res

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def is_unit_monomial(self):
        """True for +-x^k, the monomial units of Z[x, x^-1]."""
        if len(self.coeffs) != 1:
            return False
        (c,) = self.coeffs.values()
        return c in (1, -1)

    def unit_inverse(self):
        if not self.is_unit_monomial():
            raise ExactDivisionError(f"{self!r} is not a monomial unit")
        ((e, c),) = self.coeffs.items()
        return LaurentInt({-e: c})

    def divexact(self, other):
        """Exact quotient self / other; raises ExactDivisionError on remainder."""
        if not isinstance(other, LaurentInt) or not other:
            raise ExactDivisionError("division by zero or non-ring divisor")
        if other.is_unit_monomial():
            return self * other.unit_inverse()
        if not self:
            return LaurentInt()
        sf, sg = self.min_exp(), other.min_exp()
        f = {e - sf: c for e, c in self.coeffs.items()}
        g = {e - sg: c for e, c in other.coeffs.items()}
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
            quot[fd - gd] = c
            for e, gc in g.items():
                k = e + fd - gd
                s = f.get(k, 0) - c * gc
                if s:
                    f[k] = s
                else:
                    f.pop(k, None)
        return LaurentInt({e + sf - sg: c for e, c in quot.items()})

    def evaluate(self, x0):
        """Evaluate at an exact rational (or integer) point x0 != 0."""
        x0 = Fraction(x0)
        return sum((c * x0 ** e for e, c in self.coeffs.items()), Fraction(0))

    def evaluate_mod(self, x_val, a_val, p):
        # a_val is ignored; accepted so both rings share one protocol.
        acc = 0
        for e, c in self.coeffs.items():
            acc = (acc + c * pow(x_val, e, p)) % p
        return acc

    def to_json(self):
        return {str(e): c for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, obj):
        return cls({int(e): int(c) for e, c in obj.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{e}")
        return " + ".join(parts)


def quantum_integer(n):
    """The balanced q-integer q^(n-1) + q^(n-3) + ... + q^(1-n) with q = x^2.

    Extended to all integers by [0] = 0 and [-n] = -[n].
    """
    if n == 0:
        return LaurentInt()
    if n < 0:
        return -quantum_integer(-n)
    return LaurentInt({2 * (n - 1 - 2 * j): 1 for j in range(n)})


class CycloInt:
    """An element of Z[a]/(a^4 + 1), stored as coefficients of 1, a, a^2, a^3."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c = (c0, c1, c2, c3)

    @classmethod
    def from_tuple(cls, t):
        v = cls.__new__(cls)
        v.c = (int(t[0]), int(t[1]), int(t[2]), int(t[3]))
        return v

    @classmethod
    def a_power(cls, k):
        """a^k reduced into the {1, a, a^2, a^3} basis; a^-1 = -a^3."""
        k = k % 8
        sign = 1 if k < 4 else -1
        out = [0, 0, 0, 0]
        out[k % 4] = sign
        return cls.from_tuple(out)

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycloInt(other)
        if not isinstance(other, CycloInt):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        if isinstance(other, int):
            other = CycloInt(other)
        return CycloInt.from_tuple(tuple(a + b for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __neg__(self):
        return CycloInt.from_tuple(tuple(-a for a in self.c))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycloInt(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt.from_tuple(tuple(a * other for a in self.c))
        if not isinstance(other, CycloInt):
            return NotImplemented
        out = [0, 0, 0, 0]
        for i, ci in enumerate(self.c):
            if not ci:
                continue
            for j, cj in enumerate(other.c):
                if not cj:
                    continue
                k = i + j
                if k < 4:
                    out[k] += ci * cj
                else:
                    out[k - 4] -= ci * cj  # a^4 = -1
        return CycloInt.from_tuple(out)

    __rmul__ = __mul__

    def conj(self, k):
        """The ring map a -> a^k for odd k (a Galois substitution)."""
        c0, c1, c2, c3 = self.c
        if k % 8 == 1:
            return self
        if k % 8 == 3:
            return CycloInt(c0, c3, -c2, c1)
        if k % 8 == 5:
            return CycloInt(c0, -c1, c2, -c3)
        if k % 8 == 7:
            return CycloInt(c0, -c3, -c2, -c1)
        raise ValueError("conjugation exponent must be odd")

    def norm(self):
        """Product of all four conjugates; a nonnegative rational integer."""
        n = self * self.conj(3) * self.conj(5) * self.conj(7)
        assert n.c[1] == n.c[2] == n.c[3] == 0
        return n.c[0]

    def is_unit_monomial(self):
        """True for +-a^k (not all units of Z[a]/(a^4+1), but all we build)."""
        nz = [v for v in self.c if v]
        return len(nz) == 1 and nz[0] in (1, -1)

    def divexact(self, other):
        if not other:
            raise ExactDivisionError("division by zero")
        adj = other.conj(3) * other.conj(5) * other.conj(7)
        n = other.norm()
        num = self * adj
        out = []
        for v in num.c:
            q, r = divmod(v, n)
            if r:
                raise ExactDivisionError("inexact cyclotomic division")
            out.append(q)
        return CycloInt.from_tuple(out)

    def evaluate_mod(self, a_val, p):
        c0, c1, c2, c3 = self.c
        return (c0 + c1 * a_val + c2 * a_val * a_val + c3 * pow(a_val, 3, p)) % p

    def __repr__(self):
        names = ["", "a", "a^2", "a^3"]
        parts = [f"{v}{('*' + n) if n else ''}" for v, n in zip(self.c, names) if v]
        return " + ".join(parts) if parts else "0"


class CycloLaurent:
    """An element of Z[a, x, x^-1]/(a^4 + 1), stored as {x-exponent: CycloInt}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if isinstance(c, int):
                    c = CycloInt(c)
                if c:
                    clean[int(e)] = c
        self.coeffs = clean

    @classmethod
    def from_laurent(cls, p):
        """Ring injection Z[x, x^-1] -> Z[a, x, x^-1]/(a^4+1)."""
        return cls({e: CycloInt(c) for e, c in p.coeffs.items()})

    @classmethod
    def from_int(cls, k):
        return cls({0: CycloInt(k)})

    @classmethod
    def a_power(cls, k, x_exp=0):
        return cls({x_exp: CycloInt.a_power(k)})

    @classmethod
    def x_power(cls, e):
        return cls({e: CycloInt(1)})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: CycloInt(1)})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycloLaurent.from_int(other)
        elif isinstance(other, LaurentInt):
            other = CycloLaurent.from_laurent(other)
        if not isinstance(other, CycloLaurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, (int, LaurentInt)):
            other = (CycloLaurent.from_int(other) if isinstance(other, int)
                     else CycloLaurent.from_laurent(other))
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, CycloInt()) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = CycloLaurent.__new__(CycloLaurent)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = CycloLaurent.__new__(CycloLaurent)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = CycloLaurent.from_int(other)
        elif isinstance(other, LaurentInt):
            other = CycloLaurent.from_laurent(other)
        if not isinstance(other, CycloLaurent):
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, CycloInt()) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = CycloLaurent.__new__(CycloLaurent)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        res = CycloLaurent.one()
        base = self
        while k:
            if k & 1:
                res = res * base
            base = base * base
            k >>= 1
        return res

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def is_unit_monomial(self):
        if len(self.coeffs) != 1:
            return False
        (c,) = self.coeffs.values()
        return c.is_unit_monomial()

    def unit_inverse(self):
        if not self.is_unit_monomial():
            raise ExactDivisionError(f"{self!r} is not a monomial unit")
        ((e, c),) = self.coeffs.items()
        # (s*a^k)^-1 = s*a^-k since s = +-1.
        k = next(i for i, v in enumerate(c.c) if v)
        sign = c.c[k]
        inv = CycloInt.a_power(-k) * sign
        return CycloLaurent({-e: inv})

    def divexact(self, other):
        if not isinstance(other, CycloLaurent) or not other:
            raise ExactDivisionError("division by zero or non-ring divisor")
        if other.is_unit_monomial():
            return self * other.unit_inverse()
        if not self:
            return CycloLaurent()
        sf, sg = self.min_exp(), other.min_exp()
        f = {e - sf: c for e, c in self.coeffs.items()}
        g = {e - sg: c for e, c in other.coeffs.items()}
        gd = max(g)
        glead = g[gd]
        quot = {}
        while f:
            fd = max(f)
            if fd < gd:
                raise ExactDivisionError("inexact Laurent division")
            c = f[fd].divexact(glead)
            quot[fd - gd] = c
            for e, gc in g.items():
                k = e + fd - gd
                s = f.get(k, CycloInt()) - c * gc
                if s:
                    f[k] = s
                else:
                    f.pop(k, None)
        return CycloLaurent({e + sf - sg: c for e, c in quot.items()})

    def evaluate_mod(self, x_val, a_val, p):
        acc = 0
        for e, c in self.coeffs.items():
            acc = (acc + c.evaluate_mod(a_val, p) * pow(x_val, e, p)) % p
        return acc

    def to_json(self):
        return {str(e): list(c.c) for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, obj):
        return cls({int(e): CycloInt.from_tuple(v) for e, v in obj.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({self.coeffs[e]!r})*x^{e}" for e in sorted(self.coeffs))


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
        if cyclo:
            return cls(CycloLaurent.from_laurent(delta),
                       CycloLaurent.from_laurent(gamma),
                       CycloLaurent.from_laurent(delta_e))
        return cls(delta, gamma, delta_e)

    def sign_flipped(self):
        """Parameters of the twisted algebra where the blob generator is negated."""
        return BlobParams(self.delta, -self.gamma, -self.delta_e)

    def composition_scalar(self, plain_loops, blob_loops, blob_merges):
        """delta^plain * gamma^blob_loops * delta_e^merges as a ring element."""
        return (self.delta ** plain_loops) * (self.gamma ** blob_loops) \
            * (self.delta_e ** blob_merges)


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
    """
    active = []
    for vec in vectors:
        row = _row_cleanup(dict(vec))
        if row:
            shift = -min(v.min_exp() for v in row.values())
            if shift:
                xs = type(next(iter(row.values()))).x_power(shift)
                row = {k: v * xs for k, v in row.items()}
            active.append(row)
    rank = 0
    prev_pivot = None
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
            if a is None:
                new = {k: p * v for k, v in row.items()}
            else:
                new = {}
                for k in set(row) | set(pivot_row):
                    v = row.get(k)
                    w = pivot_row.get(k)
                    if v is not None and w is not None:
                        t = p * v - a * w
                    elif v is not None:
                        t = p * v
                    else:
                        t = -(a * w)
                    if t:
                        new[k] = t
                new.pop(col, None)
            if prev_pivot is not None:
                new = {k: v.divexact(prev_pivot) for k, v in new.items()}
            new = _row_cleanup(new)
            if new:
                updated.append(new)
        active = updated
        prev_pivot = p
        rank += 1
    return rank


_MODULAR_PRIME = 998244353  # prime, = 1 mod 8, so a with a^4 = -1 exists


def _modular_eighth_root(rng, p):
    while True:
        z = rng.randrange(2, p - 1)
        a = pow(z, (p - 1) // 8, p)
        if pow(a, 4, p) == p - 1:
            return a


def _evaluate_rows(vectors, x_val, a_val, p, cols=None):
    """Each vector's image under x -> x_val, a -> a_val, as {col: residue}.

    With ``cols`` given, only those columns are evaluated.
    """
    rows = []
    for v in vectors:
        keys = v if cols is None else (c for c in cols if c in v)
        row = {}
        for k in keys:
            val = v[k].evaluate_mod(x_val, a_val, p)
            if val:
                row[k] = val
        rows.append(row)
    return rows


def _rank_mod_p(int_rows, p):
    """Pivot columns of Gaussian elimination mod p; their count is the rank.

    When every row yields a pivot, the minor on the pivot columns is nonzero
    mod p: the eliminated matrix restricted to them is unit triangular.
    """
    rows = [dict(r) for r in int_rows if any(v % p for v in r.values())]
    pivots = []
    while rows:
        row = rows.pop()
        row = {k: v % p for k, v in row.items() if v % p}
        if not row:
            continue
        col = min(row)
        inv = pow(row[col], p - 2, p)
        row = {k: (v * inv) % p for k, v in row.items()}
        pivots.append(col)
        for other in rows:
            f = other.get(col)
            if f:
                for k, v in row.items():
                    other[k] = (other.get(k, 0) - f * v) % p
                other.pop(col, None)
    return pivots


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
    trial reached full rank; it proves nothing either way.
    """
    p = _MODULAR_PRIME
    points = _trial_points(trials, seed, p)
    vecs = list(vectors)
    if not vecs:
        return None
    for x_val, a_val in points:
        pivots = _rank_mod_p(_evaluate_rows(vecs, x_val, a_val, p), p)
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
    minor = _evaluate_rows(vecs, x_val, a_val, p, cols=pivots)
    return len(_rank_mod_p(minor, p)) == len(vecs)


def element_to_json(elem):
    """Tagged JSON form accepted by element_from_json."""
    if isinstance(elem, LaurentInt):
        return {"ring": "laurent", "coeffs": elem.to_json()}
    if isinstance(elem, CycloLaurent):
        return {"ring": "cyclo", "coeffs": elem.to_json()}
    raise TypeError(f"not a ring element: {type(elem).__name__}")


def element_from_json(obj):
    if obj["ring"] == "laurent":
        return LaurentInt.from_json(obj["coeffs"])
    if obj["ring"] == "cyclo":
        return CycloLaurent.from_json(obj["coeffs"])
    raise ValueError(f"unknown ring tag {obj['ring']!r}")


def dumps_canonical(obj):
    """Deterministic JSON used by certificates and the CLI."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
