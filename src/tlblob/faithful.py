"""Verification engine: triangularity, rank certificates, mirror checks.

Everything here is exact.  A full rank is certified by a modular witness:
a point x -> x0, a -> a0 mod p and a minor that is nonzero there.  The
substitution is a ring map, so that minor is nonzero over the ring too; the
witness goes into the certificate and is re-checked before it is trusted.
When no witness is found, the rank comes from fraction-free (Bareiss)
elimination over the coefficient ring's fraction field (``tlblob.rank``).

Every word matrix comes from one shared-prefix product chain
(``_prefix_products``), one product per distinct word prefix.  The
certificate chains (``_word_vectors``) run it on ``CodedMatrix``: each
entry is the int code of a signed unit monomial under a packed key
row << dim_log2 | col, which sorts like (row, col), so the modular witness
picks the same pivots; they become (row, col) again for the JSON.  When an
image entry has no code or two summands meet at one position, the chain
runs on ring elements instead, with the same packed keys.  The
triangularity report, the composition proof (against ``R(D)`` in codes),
the rank and the mask overlays all read the walk-pair words and vectors
from ``_pair_word_vectors``.  ``verify_tl`` builds them once and hands
that one list to all three of its stages; each public function builds its
own list when called alone.  Everything runs in one process.

The TL composition identity is proved from the TL_n presentation:
generator images that satisfy the defining relations define an algebra
map, and the loop-free walk-pair words carry it to every basis diagram.
``prove_r_composition`` checks the relations and the words (each evaluated
by ``eval_word``'s partner-array fold) and falls back to the exhaustive
``verify_r_composition`` sweep, whose result it then returns, when either
check fails.  The sweep's per-pair check lives in ``reference`` and loads
only when the sweep runs.  The blob structure-constant proof lives in
``tlblob.blobrep``.  ``walks`` is loaded by the walk-pair build only, so
``certify_rho0`` never loads it.

The functions ``perfbench/traced.py`` wraps are called through the module
its span names (``tensorrep.r_matrix(...)``, ``rings.rank_exact(...)``),
looked up when the call runs, so a wrapper installed after this module
loaded is still reached.
"""

from functools import lru_cache
from math import comb

from . import DEFAULT_SEED, __version__, _forwarder, rings, tensorrep, words
from ._record import Record
from .diagrams import generator_u
from .rank import check_full_rank_witness, full_rank_witness
from .rings import dumps_canonical, quantum_integer
from .tensorrep import (
    CodedMatrix,
    SparseRepMatrix,
    SummandCollision,
    _expanded,
    _placed_local,
    index_to_seq,
    mask_eq,
    r_matrix_codes,
    Rho0Config,
    seq_to_index,
)
from .words import eval_word

# perfbench/traced.py wraps this by this module's name; ``blobrep`` defines it.
__getattr__ = _forwarder(__name__, blobrep=("verify_blob_representation",))

__all__ = [
    "DEFAULT_SEED",
    "TriangularityReport",
    "FaithfulnessCertificate",
    "tl_word_matrix",
    "rep_word_matrix",
    "triangularity_report",
    "verify_tl_faithful",
    "verify_tl",
    "verify_r_composition",
    "prove_r_composition",
    "certify_mirror",
    "certify_rho0",
    "verify_blob_representation",
]


@lru_cache(maxsize=32)
def _tl_letter_matrices(n):
    """R(u_i) for i in 1..n-1, as R(u_1) on 2 strands placed at (i, i+1)."""
    block = tensorrep.r_matrix(generator_u(1, 2))
    return {i: _placed_local(block, i, n, sign=1) for i in range(1, n)}


def _prefix_products(start, words, images):
    """Yield start * image(w) for each word in turn, one product per prefix.

    Products are memoised on letter-tuple prefixes: the product for
    w + (l,) is the product for w times images[l].  The table need not be
    prefix closed; a missing prefix is built on the way.  A prefix is
    dropped after the last word that starts with it, so only the products
    still needed are held.
    """
    words = [w.letters for w in words]
    expiring = {}
    for i, letters in enumerate(words):
        for k in range(len(letters) + 1):
            expiring[letters[:k]] = i
    memo = {(): start}
    for i, letters in enumerate(words):
        k = len(letters)
        while letters[:k] not in memo:
            k -= 1
        cur = memo[letters[:k]]
        for j in range(k, len(letters)):
            cur = cur.mul(images[letters[j]])
            memo[letters[:j + 1]] = cur
        yield cur
        for prefix in [p for p in memo if expiring[p] == i]:
            del memo[prefix]


def _rep_word_matrices(words, images, dim_log2, ring):
    return _prefix_products(SparseRepMatrix.identity(dim_log2, ring),
                            words, images)


def rep_word_matrix(word, images, dim_log2, ring):
    """Evaluate a generator word through matrix images of the generators."""
    return next(_rep_word_matrices([word], images, dim_log2, ring))


def tl_word_matrix(word):
    return rep_word_matrix(word, _expanded(_tl_letter_matrices(word.n)), word.n,
                           "laurent")


def _word_vectors(words, images, dim_log2, ring):
    """Each word's matrix as a vector {row << dim_log2 | col: entry}.

    The entries are codes (``CodedMatrix``) when every image entry is a
    signed unit monomial and no product position gets two summands; else
    they are ring elements from ``_rep_word_matrices``.
    """
    words = list(words)
    coded = {letter: CodedMatrix.from_matrix(m) for letter, m in images.items()}
    if all(m is not None for m in coded.values()):
        try:
            return [m.entries for m in _prefix_products(
                CodedMatrix.identity(dim_log2), words, coded)]
        except SummandCollision:
            pass
    return [{r << dim_log2 | c: v for (r, c), v in m.entries.items()}
            for m in _rep_word_matrices(words, images, dim_log2, ring)]


def _pair_word_vectors(n):
    """(pairs, words, word-matrix vectors) of all walk pairs of size n.

    The lists are in enumeration order.  One build serves triangularity,
    the composition proof and the rank (``verify_tl``).
    """
    from . import walks

    pairs = walks.enumerate_pairs(n)
    word_list = [walks.pair_word(p) for p in pairs]
    return pairs, word_list, _word_vectors(
        word_list, _expanded(_tl_letter_matrices(n)), n, "laurent")


def _is_walk(seq):
    h = 0
    for s in seq:
        h += 1 if s == 1 else -1
        if h < 0:
            return False
    return True


class TriangularityReport(Record):
    """Clause-by-clause outcome of the triangularity sweep at size n.

    ``failures`` holds (pair, position, clause) triples; nonzero entries at
    positions that are not valid walk pairs are counted separately in
    ``nonwalk_entries`` as informational, since the order is defined on
    walks only.
    """

    __slots__ = ("n", "failures", "nonwalk_entries")
    __hash__ = None

    def __init__(self, n, failures=None, nonwalk_entries=0):
        self.n = n
        self.failures = [] if failures is None else failures
        self.nonwalk_entries = nonwalk_entries

    @property
    def ok(self):
        return not self.failures


def _require_size(n):
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def triangularity_report(n):
    """Check that each walk pair's matrix is supported below the pair.

    Clause 1: the entry at the pair's own position is nonzero.  Clause 2:
    every nonzero entry whose row and column are valid walks sits at a pair
    dominated by the defining pair.  The matrices are read from the same
    shared-prefix build as ``verify_tl_faithful``, pair by pair in
    enumeration order.
    """
    _require_size(n)
    return _triangularity(n, _pair_word_vectors(n))


def _triangularity(n, build):
    from .walks import Walk

    failures, nonwalk = [], 0
    # Column profile of each index's walk, None where the index is no walk.
    profiles = [Walk(seq).profile if _is_walk(seq) else None
                for seq in (index_to_seq(i, n) for i in range(1 << n))]
    walks = [i for i, prof in enumerate(profiles) if prof is not None]
    walk_keys = {row << n | col for row in walks for col in walks}
    # below[i]: the walks whose profile is pointwise <= walk i's.  A pair
    # (r, c) <= (a, b) iff end(r) < end(a), or end(r) = end(a) with
    # r in below[a] and c in below[b] (``leq``).
    below = {i: {j for j in walks
                 if all(x <= y for x, y in zip(profiles[j], profiles[i]))}
             for i in walks}
    low = (1 << n) - 1
    pairs, _, vectors = build
    for p, vec in zip(pairs, vectors):
        row, col = seq_to_index(p.a.steps), seq_to_index(p.b.steps)
        if row << n | col not in vec:
            failures.append((p, (row, col), "diagonal-zero"))
        end, below_a, below_b = profiles[row][-1], below[row], below[col]
        # Most entries sit off the walks; the intersection skips them in C.
        on_walks = walk_keys.intersection(vec)
        nonwalk += len(vec) - len(on_walks)
        above = []
        for key in on_walks:
            r = key >> n
            e = profiles[r][-1]
            if e > end or e == end and (r not in below_a
                                        or key & low not in below_b):
                above.append(key)
        # Only the (rare) failures are sorted: keys sort like (row, col).
        failures.extend((p, (key >> n, key & low), "above-pair")
                        for key in sorted(above))
    return TriangularityReport(n, failures, nonwalk)


class FaithfulnessCertificate(Record):
    __slots__ = ("n", "basis_size", "rank", "method", "mask_checks", "witness",
                 "tool_version")
    __hash__ = None

    def __init__(self, n, basis_size, rank, method, mask_checks=None, witness=None,
                 tool_version=__version__):
        self.n = n
        self.basis_size = basis_size
        self.rank = rank
        self.method = method
        self.mask_checks = [] if mask_checks is None else mask_checks
        self.witness = witness
        self.tool_version = tool_version

    @property
    def valid(self):
        return self.basis_size >= 1 and self.rank == self.basis_size and \
            all(c["ok"] for c in self.mask_checks)

    def to_json(self):
        return {
            "n": self.n,
            "basis_size": self.basis_size,
            "rank": self.rank,
            "method": self.method,
            "mask_checks": self.mask_checks,
            "witness": self.witness,
            "tool_version": self.tool_version,
            "valid": self.valid,
        }

    def dumps(self):
        return dumps_canonical(self.to_json())


def _certified_rank(vectors, seed, cols_log2=None):
    """(rank, method, witness) of a family of sparse vectors.

    A full-rank witness that re-checks gives rank len(vectors) with method
    "modular-witness"; otherwise Bareiss elimination gives the rank, with
    method "exact" and no witness.  With ``cols_log2`` the keys are packed
    row << cols_log2 | col, and the witness names its pivots as (row, col).
    """
    vectors = list(vectors)
    witness = full_rank_witness(vectors, trials=5, seed=seed)
    if witness is not None and check_full_rank_witness(vectors, witness):
        if cols_log2 is not None:
            low = (1 << cols_log2) - 1
            witness = dict(witness, pivots=[(k >> cols_log2, k & low)
                                            for k in witness["pivots"]])
        return len(vectors), "modular-witness", witness
    return rings.rank_exact(vectors), "exact", None


def verify_tl_faithful(n, seed=DEFAULT_SEED):
    """Rank of the walk-pair word matrices; full rank means faithful."""
    _require_size(n)
    return _tl_certificate(n, seed, _pair_word_vectors(n))


def _tl_certificate(n, seed, build):
    pairs, _, vectors = build
    rank, method, witness = _certified_rank(vectors, seed, n)
    return FaithfulnessCertificate(n=n, basis_size=len(pairs), rank=rank,
                                   method=method, witness=witness)


@lru_cache(maxsize=16)
def _diagram_matrix_table(n):
    from .reference import enumerate_tl

    diagrams = enumerate_tl(n, n)
    return diagrams, {d: tensorrep.r_matrix(d) for d in diagrams}


def verify_r_composition(n):
    """The multiplicative identity R(D) R(D') = [2]^loops R(D o D'), swept."""
    from .reference import _tl_pair_fails

    _require_size(n)
    diagrams, mats = _diagram_matrix_table(n)
    return [(d1, d2) for d1 in diagrams for d2 in diagrams
            if _tl_pair_fails(mats, d1, d2)]


def prove_r_composition(n):
    """verify_r_composition's failures, proved from the TL_n presentation.

    When the R(u_i) satisfy the TL_n relations at delta = [2], u_i -> R(u_i)
    defines an algebra map.  The walk-pair words are loop free and evaluate
    to all Catalan(n) diagrams, so the map sends each diagram D to its
    word's matrix, which must equal R(D) (for id, the empty word:
    R(id) = I).  Then R is that algebra map and no pair fails.  When any
    check fails, the exhaustive sweep gives the failures instead.
    """
    _require_size(n)
    return _prove_r_composition(n, _pair_word_vectors(n))


def _prove_r_composition(n, build):
    _, pair_words, vectors = build
    evals = [eval_word(w) for w in pair_words]
    # R(D) is compared in codes.  It has an entry 1 (code 0: north arcs at
    # u, south arcs at 1/u), which no nonzero ring element equals, so a
    # build on ring elements (the guard fired) is left to the sweep.
    proved = words.verify_presentation(_tl_letter_matrices(n), n,
                                       quantum_integer(2)).ok \
        and all(ev.loop_free for ev in evals) and \
        len({ev.diagram for ev in evals}) == comb(2 * n, n) // (n + 1) and \
        all(r_matrix_codes(ev.tl_diagram) == v for ev, v in zip(evals, vectors))
    return [] if proved else verify_r_composition(n)


def verify_tl(n, seed=DEFAULT_SEED):
    """(triangularity_report, prove_r_composition, verify_tl_faithful) of n.

    The three results are those of the three functions, read from one
    walk-pair build instead of three.
    """
    _require_size(n)
    build = _pair_word_vectors(n)
    return (_triangularity(n, build), _prove_r_composition(n, build),
            _tl_certificate(n, seed, build))


def certify_mirror(e_matrix, factored_u, n, seed=DEFAULT_SEED):
    """Certify a blob representation given by masks of mirrored generators.

    ``factored_u`` maps i -> (X_i, Y_i); the definition constrains the two
    factors separately, so they are checked against the shifted-index
    generator matrices at positions -i and +i before the product is formed.
    On mask success the basis words are evaluated through the representation
    and their certified rank must reach the blob diagram count.
    """
    total = 2 * n
    if set(factored_u) != set(range(1, n)):
        raise ValueError(f"generator images must cover indices 1..{n - 1}")
    mats = [e_matrix]
    for factors in factored_u.values():
        mats.extend(factors)
    for mat in mats:
        if (mat.rows_log2, mat.cols_log2) != (total, total):
            raise ValueError(f"matrices must act on {total} tensor factors")

    def shifted(j):
        return tensorrep.r_matrix(generator_u(j, total, "shifted"))

    checks = [{"name": "e", "ok": mask_eq(e_matrix, shifted(0))}]
    images = {"e": e_matrix}
    for i, (x_i, y_i) in sorted(factored_u.items()):
        checks.append({"name": f"u{i}_left", "ok": mask_eq(x_i, shifted(-i))})
        checks.append({"name": f"u{i}_right", "ok": mask_eq(y_i, shifted(i))})
        images[i] = x_i.mul(y_i)
    rank, method, witness = 0, "masks-only", None
    if all(c["ok"] for c in checks):
        vectors = _word_vectors(words.blob_basis_words(n).values(), images,
                                total, e_matrix.ring)
        rank, method, witness = _certified_rank(vectors, seed, total)
    return FaithfulnessCertificate(n=n, basis_size=comb(2 * n, n), rank=rank,
                                   method=method, mask_checks=checks,
                                   witness=witness)


def certify_rho0(n, m, seed=DEFAULT_SEED):
    rep = tensorrep.rho0(Rho0Config(n, m))
    return certify_mirror(rep.e, rep.u_factors, n, seed=seed)
