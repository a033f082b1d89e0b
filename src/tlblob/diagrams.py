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

from __future__ import annotations

import itertools

from ._record import Record
from .rings import _coerce_int

__all__ = [
    "Pairing",
    "BlobPairing",
    "CompositionResult",
    "identity",
    "generator_u",
    "blob_e",
    "reflect",
    "compose_tl",
    "compose_blob",
    "propagating_number",
    "cut",
    "enumerate_tl",
    "enumerate_blob",
    "exposed_lines",
    "diagram_to_json",
    "diagram_from_json",
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
    k = _absolute_index(j, n, convention)
    pairs = [(k - 1, k), (n + k - 1, n + k)]
    pairs += [(i, n + i) for i in range(n) if i not in (k - 1, k)]
    return Pairing(n, n, tuple(pairs))


def blob_e(n):
    """The identity diagram with a blob on its western line (t1, b1)."""
    base = identity(n)
    return BlobPairing(base, frozenset([(0, n)]))


def reflect(d):
    """Left-right mirror of a plain diagram; an involution."""
    remap = lambda v: (d.n - 1 - v) if v < d.n else (d.n + (d.n + d.m - 1 - v))
    return Pairing(d.n, d.m, tuple((remap(a), remap(b)) for a, b in d.pairs))


def _trace_concatenation(top, bottom):
    """Chain-trace the concatenation of two (blob) diagrams.

    Returns (result_pairs, open_chain_blobs, loop_blob_counts) where
    open_chain_blobs maps each result pair to the number of blobs its chain
    picked up, and loop_blob_counts lists the blob count of each closed loop.
    """
    (t, t_blobs), (b, b_blobs) = (
        (d.base, d.blobbed) if isinstance(d, BlobPairing) else (d, ())
        for d in (top, bottom))
    if t.m != b.n:
        raise ValueError(f"inner boundary mismatch: {t.m} vs {b.n}")
    shift = t.n + t.m
    end = shift + b.n + b.m
    partner = [None] * end  # node -> (other end of its line, blob flag)
    for offset, d, blobbed in ((0, t, t_blobs), (shift, b, b_blobs)):
        for x, y in d.pairs:
            blob = (x, y) in blobbed
            partner[offset + x] = (offset + y, blob)
            partner[offset + y] = (offset + x, blob)
    junction = [None] * end  # top south t.n + j <-> bottom north shift + j
    for j in range(t.m):
        junction[t.n + j], junction[shift + j] = shift + j, t.n + j
    visited = [False] * end

    def chain(node):
        # Follow lines and junctions: (outer end, or None for a loop, blobs).
        start, blobs = node, 0
        while True:
            visited[node] = True
            node, blob = partner[node]
            visited[node] = True
            blobs += blob
            across = junction[node]
            if across is None:
                return node, blobs
            if across == start:
                return None, blobs
            node = across

    outer = [*range(t.n), *range(shift + b.n, end)]
    result_id = {node: i for i, node in enumerate(outer)}
    result_pairs = []
    open_chain_blobs = {}
    for node in outer:
        if not visited[node]:
            # The other end is unvisited, so later in outer: the pair is sorted.
            other, blobs = chain(node)
            pair = (result_id[node], result_id[other])
            result_pairs.append(pair)
            open_chain_blobs[pair] = blobs
    loop_blob_counts = [chain(node)[1] for node in range(t.n, shift)
                        if not visited[node]]
    return result_pairs, open_chain_blobs, loop_blob_counts


def compose_tl(top, bottom):
    """Stack top over bottom, discard closed loops, count them."""
    if not isinstance(top, Pairing) or not isinstance(bottom, Pairing):
        raise TypeError("blobbed diagrams must go through compose_blob")
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


def propagating_number(d):
    """Number of lines joining the northern to the southern boundary."""
    return sum(1 for a, b in d.pairs if a < d.n <= b)


def cut(d):
    """Split d into an upper and lower half meeting in ha(d) through-lines.

    The propagating lines, read west to east, are cut once each; composing
    the halves reproduces d without creating loops.
    """
    props = sorted((a, b) for a, b in d.pairs if a < d.n <= b)
    ha = len(props)
    upper = [(a, b) for a, b in d.pairs if b < d.n]
    lower = [(a - d.n, b - d.n) for a, b in d.pairs if a >= d.n]
    up_pairs = list(upper) + [(a, d.n + k) for k, (a, _) in enumerate(props)]
    down_pairs = [(k, ha + (b - d.n)) for k, (_, b) in enumerate(props)]
    down_pairs += [(ha + a, ha + b) for a, b in lower]
    return Pairing(d.n, ha, tuple(up_pairs)), Pairing(ha, d.m, tuple(down_pairs))


def enumerate_tl(n, m):
    """All planar (n,m) diagrams, as non-crossing matchings of the boundary."""
    if n < 0 or m < 0:
        raise ValueError(f"sizes must be >= 0, got ({n}, {m})")
    total = n + m
    if total % 2:
        return []

    def matchings(points):
        if not points:
            yield []
            return
        first = points[0]
        for k in range(1, len(points), 2):
            inner = points[1:k]
            outer = points[k + 1:]
            for mi in matchings(inner):
                for mo in matchings(outer):
                    yield [(first, points[k])] + mi + mo

    def from_pos(p):
        return p if p < n else n + (total - 1 - p)

    out = []
    for match in matchings(list(range(total))):
        pairs = tuple((from_pos(a), from_pos(b)) for a, b in match)
        out.append(Pairing(n, m, pairs))
    return sorted(out, key=lambda d: d.pairs)


def enumerate_blob(n):
    """All blob diagrams on n strands: every subset of exposed lines per diagram."""
    out = []
    for d in enumerate_tl(n, n):
        lines = exposed_lines(d)
        for k in range(len(lines) + 1):
            for subset in itertools.combinations(lines, k):
                out.append(BlobPairing(d, frozenset(subset)))
    return out


def _label_to_node(label, n, m):
    """Node of a label t1..tn (north) or b1..bm (south); ValueError otherwise."""
    kind, digits = (label[:1], label[1:]) if isinstance(label, str) else ("", "")
    size = {"t": n, "b": m}.get(kind)
    if size is None or not (digits.isascii() and digits.isdigit()) \
            or not 1 <= int(digits) <= size:
        raise ValueError(f"bad node label {label!r}")
    return int(digits) - 1 + (0 if kind == "t" else n)


def diagram_to_json(d):
    blob = isinstance(d, BlobPairing)
    base = d.base if blob else d
    obj = {
        "n": base.n,
        "m": base.m,
        "pairs": [[base.node_label(a), base.node_label(b)] for a, b in base.pairs],
    }
    if blob:
        obj["blobs"] = [
            [base.node_label(a), base.node_label(b)] for a, b in sorted(d.blobbed)
        ]
    return obj


def diagram_from_json(obj):
    """The diagram of a JSON object; ValueError on anything malformed.

    Node counts must be JSON integers >= 0 (not floats, strings or
    booleans), and a blob line may be listed once: a second blob on the
    same line would be a scalar factor, which a diagram cannot carry.
    """
    n, m = (_coerce_int(obj[key], ValueError) for key in ("n", "m"))
    if n < 0 or m < 0:
        raise ValueError(f"node counts must be >= 0, got n={n}, m={m}")
    pairs = tuple(
        (_label_to_node(a, n, m), _label_to_node(b, n, m)) for a, b in obj["pairs"]
    )
    base = Pairing(n, m, pairs)
    if "blobs" in obj:
        blobs = [
            tuple(sorted((_label_to_node(a, n, m), _label_to_node(b, n, m))))
            for a, b in obj["blobs"]
        ]
        if len(set(blobs)) != len(blobs):
            raise ValueError("a blob line is listed more than once")
        return BlobPairing(base, frozenset(blobs))
    return base
