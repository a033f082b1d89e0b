"""Fallback, reference and workbench code, loaded on first use.

The three certificate commands prove their claims from the algebra
presentations and a modular rank witness (README "Certification").  The
code here serves everything else: the exhaustive sweeps that the proofs
fall back to, composition by chain-tracing a concatenation, enumeration,
the walk-pair order, word text forms, the overlay test, and the JSON
readers and writers of the other subcommands.  Keeping it in one module
that a certificate command never imports keeps it out of that command's
start-up.

Every name here stays importable from the module it used to live in (and
from ``tlblob`` where it was exported): those modules forward it through a
PEP 562 ``__getattr__`` (``tlblob._forwarder``).  Functions of
the proof-path modules are called through the module, so a wrapper that a
tracer or a test installs there is seen here as it was before the move.
"""

import itertools
import re
from functools import lru_cache

from . import blobrep, diagrams, faithful, rings, walks, words
from ._record import Record
from .diagrams import BlobPairing, Pairing
from .rings import RINGS, LaurentInt, _Laurent
from .tensorrep import SparseRepMatrix
from .walks import Walk
from .words import GenWord

# -- faithful: the exhaustive sweeps and the overlay test --------------------

OVERLAY_MENU = (
    LaurentInt.one(),
    LaurentInt.x_power(1),
    LaurentInt.x_power(-1),
    LaurentInt.from_int(2),
    LaurentInt.from_int(3),
    LaurentInt.x_power(2),
)


class MaskIndependenceReport(Record):
    __slots__ = ("n", "trials", "seed", "basis_size", "ranks")
    __hash__ = None

    def __init__(self, n, trials, seed, basis_size, ranks=None):
        self.n = n
        self.trials = trials
        self.seed = seed
        self.basis_size = basis_size
        self.ranks = [] if ranks is None else ranks

    @property
    def ok(self):
        return all(r == self.basis_size for r in self.ranks)


def verify_mask_independence(n, trials=25, seed=faithful.DEFAULT_SEED):
    """Overlay every nonzero entry with random nonzero scalars; rank must hold.

    Draws come from a fixed menu of units and small integers; each trial
    certifies the rank of the overlaid family afresh.
    """
    import random

    rng = random.Random(seed)
    pairs, _, vectors = faithful._pair_word_vectors(n)
    masks = [sorted(v) for v in vectors]
    report = MaskIndependenceReport(n, trials, seed, len(pairs))
    for _ in range(trials):
        vectors = [
            {pos: rng.choice(OVERLAY_MENU) for pos in positions}
            for positions in masks
        ]
        report.ranks.append(faithful._certified_rank(vectors, seed)[0])
    return report


def _failing_scalars(lhs, rhs, scalars):
    """For each scalar s, whether lhs == s * rhs fails.

    One exact ratio serves every s.  When rhs is zero, the identity holds
    only for a zero lhs.
    """
    ratio = lhs.ratio_to(rhs)
    return [not (ratio == s if rhs.entries else not lhs.entries)
            for s in scalars]


def _tl_pair_fails(mats, d1, d2):
    """Whether R(D1) R(D2) = [2]^loops R(D1 o D2) fails."""
    res = diagrams.compose_tl(d1, d2)
    failed, = _failing_scalars(mats[d1].mul(mats[d2]), mats[res.diagram],
                               [rings.quantum_integer(2) ** res.plain_loops])
    return failed


def _convention_scalars(params):
    """Discard counts -> [scalar under params, under its sign flip], memoised."""
    conventions = (params, params.sign_flipped())

    @lru_cache(maxsize=None)
    def scalars(counts):
        return [p.composition_scalar(*counts) for p in conventions]
    return scalars


def _structure_constant_failures(rep_of, basis, images, params):
    """Failing pairs under ``params`` and under its sign flip, in one sweep.

    Each left-hand side rep(D) rep(D') is rep(D) pushed through the letters
    of D''s word (the same matrix, by associativity).  Its one exact ratio
    to rep(D o D') is compared with each convention's scalar; when
    rep(D o D') is zero, the pair holds only if the left-hand side is zero.
    """
    scalars = _convention_scalars(params)
    basis_words = list(basis.values())
    failures = ([], [])
    for d1, w1 in basis.items():
        row = faithful._prefix_products(rep_of[d1], basis_words, images)
        for (d2, w2), lhs in zip(basis.items(), row):
            res, _ = diagrams.compose_blob(d1, d2)
            counts = (res.plain_loops, res.blob_loops, res.blob_merges)
            fails = _failing_scalars(lhs, rep_of[res.diagram], scalars(counts))
            for failed, fail in zip(failures, fails):
                if fail:
                    failed.append((w1, w2))
    return failures


def _basis_images(images, basis):
    """rep(D) for each basis diagram D: its word evaluated through images."""
    ring = next(iter(images.values())).ring
    return dict(zip(basis, faithful._rep_word_matrices(
        basis.values(), images, blobrep._image_dimension(images), ring)))


# -- diagrams: composition by concatenation, enumeration, JSON ---------------

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


def reflect(d):
    """Left-right mirror of a plain diagram; an involution."""
    remap = lambda v: (d.n - 1 - v) if v < d.n else (d.n + (d.n + d.m - 1 - v))
    return Pairing(d.n, d.m, tuple((remap(a), remap(b)) for a, b in d.pairs))


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
        lines = diagrams.exposed_lines(d)
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
    n, m = (rings._coerce_int(obj[key], ValueError) for key in ("n", "m"))
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


# -- walks: the envelope order and walk text forms ---------------------------

def walk_from_string(text):
    return Walk(tuple(int(ch) for ch in text.strip()))


def raise_at(walk, i):
    """Replace the descent (2,1) at 1-based positions (i, i+1) by (1,2)."""
    s = walk.steps
    if not 1 <= i <= len(s) - 1 or s[i - 1] != 2 or s[i] != 1:
        raise ValueError(f"no descent at position {i} of {walk!r}")
    return Walk(s[: i - 1] + (1, 2) + s[i + 1:])


def leq(p, q):
    """Envelope order: domination at equal endpoints, else endpoint order."""
    if p.n != q.n:
        raise ValueError("pairs must have equal length")
    pa, pb, qa, qb = p.a.profile, p.b.profile, q.a.profile, q.b.profile
    if pa[-1] != qa[-1]:
        return pa[-1] < qa[-1]
    return all(x <= y for x, y in zip(pa, qa)) and \
        all(x <= y for x, y in zip(pb, qb))


def linear_extension(pairs):
    """A total order consistent with leq, independent of input order.

    Sorting by (endpoint, reversed-step tuples) is a linear extension: at a
    first step difference the dominated walk takes the 2, so pointwise-lower
    walks are lexicographically greater as step strings.
    """
    def key(p):
        return (p.endpoint,
                tuple(-s for s in p.a.steps),
                tuple(-s for s in p.b.steps))

    return sorted(pairs, key=key)


def hasse_edges(pairs):
    """Covering relations of the envelope order on the given pairs."""
    pairs = linear_extension(pairs)
    below = {
        q: [p for p in pairs if p != q and leq(p, q)] for q in pairs
    }
    edges = []
    for q, lower in below.items():
        for p in lower:
            if not any(leq(p, r) and leq(r, q) and r != p and r != q for r in lower):
                edges.append((p, q))
    return edges


def tl_basis_word_table(n):
    """One loop-free word per plain diagram, indexed by walk pairs."""
    table = {}
    for p in walks.enumerate_pairs(n):
        word = walks.pair_word(p)
        table[words.eval_word(word).diagram] = word
    return table


# -- words: the folding map and word text forms ------------------------------

def f_map(word):
    """Fold a blob word into the doubled algebra: e -> U_0, U_i -> U_{-i} U_i.

    Takes loop-free words to loop-free words; not an algebra map.
    """
    if word.convention != "standard":
        raise ValueError("f_map expects a standard-convention blob word")
    letters = []
    for letter in word.letters:
        if letter == "e":
            letters.append(0)
        else:
            letters.extend((-letter, letter))
    return GenWord(tuple(letters), 2 * word.n, "shifted")


def parse_word(text, n, convention="standard"):
    """Parse a word from text ("e u1 u-2") or from a JSON-style token list.

    A token is "e", "u" followed by an optionally negative ASCII integer, or
    (in a list or tuple) an int; anything else raises ValueError.
    """
    if isinstance(text, str):
        tokens = text.split()
    elif isinstance(text, (list, tuple)):
        tokens = text
    else:
        raise ValueError(f"a word is a string or a token list, got {text!r}")
    letters = []
    for tok in tokens:
        if tok == "e":
            letters.append("e")
        elif isinstance(tok, int) and not isinstance(tok, bool):
            letters.append(tok)
        elif isinstance(tok, str) and re.fullmatch(r"u-?[0-9]+", tok):
            letters.append(int(tok[1:]))
        else:
            raise ValueError(f"bad word token {tok!r}")
    return GenWord(tuple(letters), n, convention)


def format_word(word):
    return " ".join("e" if l == "e" else f"u{l}" for l in word.letters)


# -- tensorrep and rings: JSON forms, product diagnostics --------------------

def product_summand_counts(a, b):
    """For each product position, how many intermediate indices contribute."""
    rows_of_b = {}
    for (r, c), v in b.entries.items():
        rows_of_b.setdefault(r, []).append((c, v))
    counts = {}
    for (u, w), _ in a.entries.items():
        for c, _ in rows_of_b.get(w, ()):
            counts[(u, c)] = counts.get((u, c), 0) + 1
    return counts


def element_to_json(elem):
    """Tagged JSON form accepted by element_from_json."""
    if not isinstance(elem, _Laurent):
        raise TypeError(f"not a ring element: {type(elem).__name__}")
    return {"ring": elem.ring, "coeffs": elem.to_json()}


def element_from_json(obj):
    """Inverse of element_to_json; ValueError for malformed input."""
    if not isinstance(obj, dict) or "ring" not in obj or "coeffs" not in obj:
        raise ValueError(f"ring element needs 'ring' and 'coeffs', got {obj!r}")
    tag = obj["ring"]
    if not isinstance(tag, str) or tag not in RINGS:
        raise ValueError(f"unknown ring tag {tag!r}")
    return RINGS[tag].from_json(obj["coeffs"])


def matrix_to_json(a):
    entries = []
    for (r, c) in sorted(a.entries):
        elem = element_to_json(a.entries[(r, c)])
        entries.append([r, c, elem["coeffs"]])
    return {
        "rows_log2": a.rows_log2,
        "cols_log2": a.cols_log2,
        "ring": a.ring,
        "entries": entries,
    }


def _json_natural(value, what, bits=None):
    """value if it is an int >= 0 (and below 2**bits, without building 2**bits)."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0 \
            and (bits is None or value.bit_length() <= bits):
        return value
    bound = "" if bits is None else f" below 2^{bits}"
    raise ValueError(f"{what} must be an integer >= 0{bound}, got {value!r}")


def matrix_from_json(obj):
    """Inverse of matrix_to_json; ValueError for malformed input."""
    if not isinstance(obj, dict):
        raise ValueError(f"matrix must be a JSON object, got {obj!r}")
    ring = obj.get("ring")
    if not isinstance(ring, str) or ring not in RINGS:
        raise ValueError(f"unknown ring tag {ring!r}")
    rows = _json_natural(obj.get("rows_log2"), "rows_log2")
    cols = _json_natural(obj.get("cols_log2"), "cols_log2")
    if not isinstance(obj.get("entries"), list):
        raise ValueError("matrix needs an 'entries' list")
    entries = {}
    for entry in obj["entries"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError(f"matrix entry must be [row, col, coeffs], got {entry!r}")
        r, c, coeffs = entry
        key = (_json_natural(r, "row", rows), _json_natural(c, "column", cols))
        if key in entries:
            raise ValueError(f"duplicate matrix entry at {key}")
        entries[key] = element_from_json({"ring": ring, "coeffs": coeffs})
    return SparseRepMatrix(rows, cols, entries, ring)
