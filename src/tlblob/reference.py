"""Fallback, reference and workbench code, loaded on first use.

The three certificate commands prove their claims from the algebra
presentations, the contraction argument and a modular rank witness
(README "Certification").  The code here serves everything else: the
blob structure-constant sweep that the presentation proof falls back to,
the TL composition sweep and the walk-pair word chain (test oracles for
``verify-tl``'s pass, not fallbacks), the exact (Bareiss) rank that a
failed witness search falls back to, enumeration, the walk-pair order,
word text forms, the overlay test, the JSON readers and writers, and the
handlers of the workbench subcommands (``enumerate``, ``compose``,
``rmatrix``, ``walkword`` and ``lattice``).  Keeping it in one module that a
certificate command never imports keeps it out of that command's
start-up.

Import each name from this module; the exported ones are also served by
the package root.  Functions of the proof-path modules are called through
their module, so a wrapper that a tracer or a test installs there is seen
here too.
"""

import itertools
import json
import re
from functools import lru_cache

from . import blobrep, diagrams, faithful, rings, tensorrep, walks, words
from ._record import Record
from .diagrams import BlobPairing, Pairing
from .certificate import _MODULAR_PRIME, _trial_points
from .rank import _evaluate_rows, _holds_codes, _rank_mod_p
from .rings import RINGS, LaurentInt, _code_element, _Laurent
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


def _pair_word_vectors(n):
    """(pairs, words, word-matrix vectors) of all walk pairs of size n.

    The lists are in enumeration order, and the matrices come from the
    letter chain (``faithful._word_vectors``): the family ``verify-tl``
    certifies, built as it was before its one pass over R(D).  It is a
    test oracle for that pass, not a fallback.  Raises ValueError for
    n < 0.
    """
    faithful._require_size(n)
    pairs = walks.enumerate_pairs(n)
    word_list = [walks.pair_word(p) for p in pairs]
    return pairs, word_list, faithful._word_vectors(
        word_list, faithful._tl_letter_matrices(n), n, "laurent")


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
    pairs, _, vectors = _pair_word_vectors(n)
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


# -- rank: exact elimination and the witness-free lower bound ----------------

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
    Entries that are codes (``codes._unit_code``) are decoded first.
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


def rank_modular(vectors, trials=5, seed=0):
    """Rank lower bound: evaluate x (and a) at random residues mod p.

    Specializing is a ring map, so it can only lose rank: the maximum over
    trials is <= the true rank, with equality overwhelmingly likely.  A
    result equal to the number of vectors is a proof of full rank;
    ``rank.full_rank_witness`` records the point so that it can be
    re-checked.
    """
    p = _MODULAR_PRIME
    points = _trial_points(trials, seed, p)
    vecs = [v for v in map(dict, vectors) if any(v.values())]
    if not vecs:
        return 0
    return max(len(_rank_mod_p(_evaluate_rows(vecs, x_val, a_val, p), p))
               for x_val, a_val in points)


# -- diagrams: enumeration, JSON ---------------------------------------------

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
    same line would be a scalar factor, which a diagram cannot carry.  A
    key other than n, m, pairs and blobs is an error, so that a misspelled
    "blobs" cannot drop the blobs.
    """
    n, m = (rings._coerce_int(obj[key], ValueError) for key in ("n", "m"))
    unknown = [key for key in obj if key not in ("n", "m", "pairs", "blobs")]
    if unknown:
        raise ValueError(f"unexpected diagram key {', '.join(map(repr, unknown))}"
                         " (a diagram has n, m, pairs and blobs)")
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
    """The walk written as its steps, e.g. "112"; only ASCII 1 and 2 are steps."""
    steps = text.strip()
    if steps.strip("12"):
        raise ValueError(f"a walk is written with the steps 1 and 2, got {text!r}")
    return Walk(tuple(int(ch) for ch in steps))


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
    """Tagged JSON form {"ring", "coeffs"} accepted by element_from_json.

    The coefficients map str(e) to the coefficient of x^e: an int over
    Z[x, x^-1], the list [c0, c1, c2, c3] of a^0..a^3 with a.
    """
    if not isinstance(elem, _Laurent):
        raise TypeError(f"not a ring element: {type(elem).__name__}")
    cyclo = elem.ring == "cyclo"
    return {"ring": elem.ring, "coeffs": {str(e): cs if cyclo else cs[0]
                                          for e, cs in elem._by_exponent()}}


def element_from_json(obj):
    """Inverse of element_to_json; ValueError for anything it cannot emit."""
    if not isinstance(obj, dict) or "ring" not in obj or "coeffs" not in obj:
        raise ValueError(f"ring element needs 'ring' and 'coeffs', got {obj!r}")
    tag, coeffs = obj["ring"], obj["coeffs"]
    if not isinstance(tag, str) or tag not in RINGS:
        raise ValueError(f"unknown ring tag {tag!r}")
    if not isinstance(coeffs, dict):
        raise ValueError(f"coefficients must be a JSON object, got {coeffs!r}")
    terms = {}
    for key, payload in coeffs.items():
        if tag == "laurent":
            payload = [payload]
        elif not isinstance(payload, list) or len(payload) != 4:
            raise ValueError(f"cyclotomic coefficient must be 4 integers, got {payload!r}")
        if not isinstance(key, str) or str(int(key)) != key:
            raise ValueError(f"exponent key must be a decimal integer string, got {key!r}")
        for k, c in enumerate(payload):
            if rings._coerce_int(c, ValueError):
                terms[8 * int(key) + k] = c
    return RINGS[tag]._make(terms)


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


# -- cli: the workbench commands ---------------------------------------------

def _load_diagram(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            # accept the output of `compose` directly
            if isinstance(obj, dict) and "pairs" not in obj \
                    and "diagram" in obj:
                obj = obj["diagram"]
            return diagram_from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
            raise ValueError(f"{path} does not hold a diagram: {exc}") from exc


def _cmd_enumerate(args):
    if args.blob:
        if args.m is not None and args.m != args.n:
            raise ValueError("blob diagrams need m = n")
        found = enumerate_blob(args.n)
    else:
        found = enumerate_tl(args.n, args.n if args.m is None else args.m)
    payload = {
        "count": len(found),
        "diagrams": [diagram_to_json(d) for d in found],
    }
    return payload, True


def _cmd_compose(args):
    left = _load_diagram(args.left)
    right = _load_diagram(args.right)
    if hasattr(left, "blobbed") or hasattr(right, "blobbed"):
        res, _ = diagrams.compose_blob(left, right)
    else:
        res = diagrams.compose_tl(left, right)
    payload = {
        "diagram": diagram_to_json(res.diagram),
        "plain_loops": res.plain_loops,
        "blob_loops": res.blob_loops,
        "blob_merges": res.blob_merges,
    }
    return payload, True


def _cmd_rmatrix(args):
    if args.file:
        diagram = _load_diagram(args.file)
    elif args.u is not None and args.n is not None:
        diagram = diagrams.generator_u(args.u, args.n, args.convention)
    else:
        raise ValueError("rmatrix needs --file or both --n and --u")
    if hasattr(diagram, "blobbed"):
        raise ValueError("rmatrix takes a plain diagram; this one has blobs")
    return {"matrix": matrix_to_json(tensorrep.r_matrix(diagram))}, True


def _cmd_walkword(args):
    pair = walks.WalkPair(walk_from_string(args.a), walk_from_string(args.b))
    word = walks.pair_word(pair)
    ev = words.eval_word(word)
    payload = {
        "word": words.format_word(word),
        "diagram": diagram_to_json(ev.tl_diagram),
        "loop_free": ev.loop_free,
    }
    return payload, True


def _cmd_lattice(args):
    pairs = linear_extension(walks.enumerate_pairs(args.n))
    index = {p: i for i, p in enumerate(pairs)}
    edges = sorted((index[p], index[q]) for p, q in hasse_edges(pairs))
    payload = {
        "pairs": [f"{p.a!r}|{p.b!r}" for p in pairs],
        "edges": [list(e) for e in edges],
    }
    return payload, True


# Subcommand -> handler(args) -> (payload, ok), run by ``cli.main``.
WORKBENCH = {
    "enumerate": _cmd_enumerate,
    "compose": _cmd_compose,
    "rmatrix": _cmd_rmatrix,
    "walkword": _cmd_walkword,
    "lattice": _cmd_lattice,
}
