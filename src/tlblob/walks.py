"""Walks on the nonnegative half of the Pascal graph, and their word map.

A walk of length n is a sequence in {1,2}^n read as column moves +1/-1
from the origin; every prefix must stay at a nonnegative column (which in
particular forces the first step to be 1).  Pairs of walks sharing an
endpoint index diagram basis elements: the pair (a, b) maps to a generator
word whose diagram has a as its upper half and b as its lower half.

The partial order on pairs is containment of drawings: pointwise column
domination of both walks at equal endpoints, and endpoint-column comparison
across different endpoints.
"""

from ._record import Record
from .words import GenWord

__all__ = [
    "Walk",
    "WalkPair",
    "enumerate_walks",
    "enumerate_pairs",
    "lower_at",
    "pair_word",
]


class Walk(Record):
    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = steps = tuple(int(s) for s in steps)
        h = 0
        for s in steps:
            if s not in (1, 2):
                raise ValueError(f"step {s} not in {{1,2}}")
            h += 1 if s == 1 else -1
            if h < 0:
                raise ValueError(f"walk {steps} leaves the nonnegative columns")

    def __len__(self):
        return len(self.steps)

    @property
    def profile(self):
        """Columns after 0..n steps."""
        out = [0]
        for s in self.steps:
            out.append(out[-1] + (1 if s == 1 else -1))
        return tuple(out)

    @property
    def endpoint(self):
        return self.profile[-1]

    def __repr__(self):
        return "".join(str(s) for s in self.steps)


class WalkPair(Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        if len(a) != len(b):
            raise ValueError("walks must have equal length")
        if a.endpoint != b.endpoint:
            raise ValueError("walks must share an endpoint")
        self.a = a
        self.b = b

    @property
    def n(self):
        return len(self.a)

    @property
    def endpoint(self):
        return self.a.endpoint

    def __repr__(self):
        return f"({self.a!r},{self.b!r})"


def enumerate_walks(n, c):
    """All length-n walks ending at column c, lexicographically sorted."""
    if not 0 <= c <= n or (n - c) % 2:
        raise ValueError(f"no walks of length {n} end at column {c}")
    out = []
    _grow(out, n, c, [], 0)
    return out


def _grow(out, n, c, steps, h):
    """Append to ``out`` each length-n walk to column c extending ``steps`` (at column h).

    A module-level function, not a closure: a nested function that calls
    itself is a reference cycle, which would keep ``out`` alive until the
    cyclic collector runs.
    """
    if len(steps) == n:
        if h == c:
            out.append(Walk(tuple(steps)))
        return
    # Prune: remaining steps must be able to reach column c.
    rem = n - len(steps)
    if abs(c - h) > rem:
        return
    steps.append(1)
    _grow(out, n, c, steps, h + 1)
    steps.pop()
    if h > 0:
        steps.append(2)
        _grow(out, n, c, steps, h - 1)
        steps.pop()


def enumerate_pairs(n):
    """All same-endpoint walk pairs of length n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    out = []
    for c in range(n % 2, n + 1, 2):
        walks = enumerate_walks(n, c)
        out.extend(WalkPair(a, b) for a in walks for b in walks)
    return out


def lower_at(walk, i):
    """Inverse of raise_at; only legal when the walk stays nonnegative."""
    s = walk.steps
    if not 1 <= i <= len(s) - 1 or s[i - 1] != 1 or s[i] != 2:
        raise ValueError(f"no ascent at position {i} of {walk!r}")
    return Walk(s[: i - 1] + (2, 1) + s[i + 1:])


def _lowerings(steps):
    """The positions the canonical chain lowers a walk's steps at: the
    smallest legal one, until none is, on a step list (no ``Walk``).

    Lowering at i turns steps (1, 2) at i, i+1 into (2, 1) and drops the
    column after step i by 2, so it needs that column >= 2.  No earlier
    position but i - 1 can become legal, so the scan resumes there.
    """
    s, positions = list(steps), []
    col = [0] * len(s)  # col[i]: the column after step i, for i < len(s)
    i = 1
    while i < len(s):
        col[i] = col[i - 1] + (1 if s[i - 1] == 1 else -1)
        if s[i - 1] == 1 and s[i] == 2 and col[i] >= 2:
            s[i - 1], s[i] = 2, 1
            positions.append(i)
            i = max(i - 1, 1)
        else:
            i += 1
    return positions


def pair_word(p):
    """The generator word of a walk pair.

    The lowest pair of its lattice maps to U_1 U_3 .. U_{2k-1} (k = number
    of 2-steps); lowering the left walk at position i prepends U_i, lowering
    the right walk appends U_i.  The canonical chain lowers at the smallest
    legal position first, left walk before right; any other chain yields the
    same diagram.
    """
    base = [2 * j + 1 for j in range(p.a.steps.count(2))]
    letters = (*_lowerings(p.a.steps), *base,
               *reversed(_lowerings(p.b.steps)))
    return GenWord(letters, p.n)
