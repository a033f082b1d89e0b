"""Planar (n,m)-diagram combinatorics for the Temperley-Lieb and blob algebras.

Conventions
-----------
Nodes of an (n,m) diagram are numbered 0..n-1 for the northern boundary
(t1..tn, west to east) and n..n+m-1 for the southern boundary (b1..bm).
A diagram is a fixed-point-free involution pairing all nodes by chords that
can be drawn without crossings inside the rectangle.

Planarity is tested in the boundary order t1,...,tn,bm,...,b1 (walk the
frame clockwise starting at the north-west corner); in that circular order
chords of a planar diagram never interleave.  The same order, read as a
*linear* order with the cut placed on the western edge, drives the
exposedness test for blobs: a chord may carry a blob exactly when no other
chord's span strictly encloses it, i.e. nothing separates it from the west
wall.

Composition stacks a top (n,k) over a bottom (k,m) diagram and numbers the
nodes of the stack with integers: the top's own numbers 0..n+k-1, then the
bottom's shifted by n+k.  Top southern node n+j meets bottom northern node
n+k+j at the middle boundary.  Chains from the outer nodes give the result's
lines; middle nodes left over lie on closed loops.
"""

from ._record import Record

__all__ = [
    "Pairing",
    "BlobPairing",
    "CompositionResult",
    "identity",
    "generator_u",
    "blob_e",
    "compose_tl",
    "compose_blob",
    "exposed_lines",
]


def _canonical_pairs(pairs):
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


class Pairing(Record):
    """A planar pairing of n northern and m southern boundary nodes."""

    __slots__ = ("n", "m", "pairs")

    def __init__(self, n, m, pairs=()):
        if (n + m) % 2:
            raise ValueError("n + m must be even")
        self.n = n
        self.m = m
        self.pairs = pairs = _canonical_pairs(pairs)
        seen = set()
        for a, b in pairs:
            if a == b:
                raise ValueError("fixed point in pairing")
            seen.update((a, b))
        if seen != set(range(n + m)):
            raise ValueError("pairs must partition all boundary nodes")
        spans = sorted(self._span(p) for p in pairs)
        stack = []
        for lo, hi in spans:
            while stack and stack[-1] < lo:
                stack.pop()
            if stack and stack[-1] < hi:
                raise ValueError(f"chords cross: {pairs}")
            stack.append(hi)

    def _pos(self, node):
        # Position in the linear order t1..tn, bm..b1 (west cut).
        if node < self.n:
            return node
        return self.n + (self.n + self.m - 1 - node)

    def _span(self, pair):
        a, b = self._pos(pair[0]), self._pos(pair[1])
        return (a, b) if a < b else (b, a)

    @property
    def match(self):
        out = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out

    def node_label(self, node):
        if node < self.n:
            return f"t{node + 1}"
        return f"b{node - self.n + 1}"

    def __repr__(self):
        body = ", ".join(
            f"({self.node_label(a)},{self.node_label(b)})" for a, b in self.pairs
        )
        return f"Pairing({self.n},{self.m}; {body})"


class BlobPairing(Record):
    """A planar pairing with blobs on a subset of its exposed lines."""

    __slots__ = ("base", "blobbed")

    def __init__(self, base, blobbed=()):
        self.base = base
        self.blobbed = blobbed = frozenset(tuple(sorted(p)) for p in blobbed)
        lines = set(base.pairs)
        exposed = set(exposed_lines(base))
        for line in blobbed:
            if line not in lines:
                raise ValueError(f"blob on a non-line {line}")
            if line not in exposed:
                raise ValueError(f"blob on a covered line {line}")

    @property
    def n(self):
        return self.base.n

    @property
    def m(self):
        return self.base.m

    def __repr__(self):
        body = ", ".join(
            f"({self.base.node_label(a)},{self.base.node_label(b)})"
            + ("*" if (a, b) in self.blobbed else "")
            for a, b in self.base.pairs
        )
        return f"BlobPairing({self.n},{self.m}; {body})"


class CompositionResult(Record):
    """A composed diagram plus the discarded-feature counts."""

    __slots__ = ("diagram", "plain_loops", "blob_loops", "blob_merges")

    def __init__(self, diagram, plain_loops=0, blob_loops=0, blob_merges=0):
        self.diagram = diagram
        self.plain_loops = plain_loops
        self.blob_loops = blob_loops
        self.blob_merges = blob_merges


def exposed_lines(d):
    """Lines of d not enclosed by any other line (blob-eligible lines)."""
    spans = {p: d._span(p) for p in d.pairs}
    out = []
    for p, (lo, hi) in spans.items():
        if not any(qlo < lo and hi < qhi for q, (qlo, qhi) in spans.items() if q != p):
            out.append(p)
    return sorted(out)


def identity(n):
    return Pairing(n, n, tuple((i, n + i) for i in range(n)))


def _absolute_index(j, n, convention):
    if n < 2:
        raise ValueError(f"n = {n} has no generators: they need n >= 2")
    if convention == "standard":
        if not 1 <= j <= n - 1:
            raise ValueError(f"generator index {j} out of range 1..{n - 1}")
        return j
    if convention == "shifted":
        if n % 2:
            raise ValueError("shifted convention needs an even ambient size")
        half = n // 2
        if not -half + 1 <= j <= half - 1:
            raise ValueError(f"shifted index {j} out of range {-half + 1}..{half - 1}")
        return half + j
    raise ValueError(f"unknown index convention {convention!r}")


def generator_u(j, n, convention="standard"):
    """The cup-cap generator joining neighbours j, j+1 on both boundaries."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k = _absolute_index(j, n, convention)
    pairs = [(k - 1, k), (n + k - 1, n + k)]
    pairs += [(i, n + i) for i in range(n) if i not in (k - 1, k)]
    return Pairing(n, n, tuple(pairs))


def blob_e(n):
    """The identity diagram with a blob on its western line (t1, b1)."""
    base = identity(n)
    return BlobPairing(base, frozenset([(0, n)]))


def compose_tl(top, bottom):
    """Stack top over bottom, discard closed loops, count them."""
    if not isinstance(top, Pairing) or not isinstance(bottom, Pairing):
        raise TypeError("blobbed diagrams must go through compose_blob")
    from .reference import _trace_concatenation

    pairs, _, loops = _trace_concatenation(top, bottom)
    diagram = Pairing(top.n, bottom.m, tuple(pairs))
    return CompositionResult(diagram, plain_loops=len(loops))


def compose_blob(top, bottom, params=None):
    """Blob composition: merge stacked blobs, evaluate blobbed loops.

    Every connected chain of the concatenation carries the total number b of
    blobs met along it.  An open chain keeps a single blob when b >= 1 and
    contributes a factor delta_e^(b-1); a closed loop contributes [2] when
    b = 0 and gamma * delta_e^(b-1) otherwise.  Returns the composition
    result together with the accumulated scalar (None when params is None).
    """
    from .reference import _trace_concatenation

    pairs, chain_blobs, loop_blobs = _trace_concatenation(top, bottom)
    base = Pairing(top.n, bottom.m, tuple(pairs))
    blobbed = frozenset(p for p, cnt in chain_blobs.items() if cnt)
    diagram = BlobPairing(base, blobbed)
    merges = sum(cnt - 1 for cnt in chain_blobs.values() if cnt)
    merges += sum(cnt - 1 for cnt in loop_blobs if cnt)
    plain = sum(1 for cnt in loop_blobs if not cnt)
    blobby = sum(1 for cnt in loop_blobs if cnt)
    result = CompositionResult(diagram, plain_loops=plain,
                               blob_loops=blobby, blob_merges=merges)
    if params is None:
        return result, None
    return result, params.composition_scalar(plain, blobby, merges)
