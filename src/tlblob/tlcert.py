"""The TL_n certificate of ``verify-tl``: triangularity, composition, rank.

``verify_tl`` builds the walk-pair words and their word-matrix vectors once
(``_pair_word_vectors``) and hands that one list to its three stages: the
triangularity sweep over the walk-pair order, the composition proof from
the TL_n presentation, and the certified rank.  ``faithful`` keeps the
shared kernels (the prefix chain, the certified rank, the TL letter images)
and the single-stage entry points ``triangularity_report`` and
``verify_tl_faithful``, which call into this module; ``certify-rho0`` never
loads it.

The TL composition identity is proved from the TL_n presentation:
generator images that satisfy the defining relations define an algebra
map, and the loop-free walk-pair words carry it to every basis diagram.
``prove_r_composition`` checks the relations and the words (each evaluated
by ``eval_word``'s partner-array fold) and falls back to the exhaustive
``faithful.verify_r_composition`` sweep, whose result it then returns, when
either check fails.

Every function of ``faithful``, ``walks`` and ``words`` is called through
its module, looked up when the call runs, so a wrapper that
``perfbench/traced.py`` or a test installs there is reached.
"""

from math import comb

from . import faithful, walks, words
from ._record import Record
from .rings import quantum_integer
from .tensorrep import _expanded, index_to_seq, r_matrix_codes, seq_to_index

__all__ = ["TriangularityReport", "prove_r_composition", "verify_tl"]


def _pair_word_vectors(n):
    """(pairs, words, word-matrix vectors) of all walk pairs of size n.

    The lists are in enumeration order.  One build serves triangularity,
    the composition proof and the rank (``verify_tl``).  Raises ValueError
    for n < 0.
    """
    faithful._require_size(n)
    pairs = walks.enumerate_pairs(n)
    word_list = [walks.pair_word(p) for p in pairs]
    return pairs, word_list, faithful._word_vectors(
        word_list, _expanded(faithful._tl_letter_matrices(n)), n, "laurent")


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


def _triangularity(n, build):
    """Check that each walk pair's matrix is supported below the pair.

    Clause 1: the entry at the pair's own position is nonzero.  Clause 2:
    every nonzero entry whose row and column are valid walks sits at a pair
    dominated by the defining pair.  The matrices are read from ``build``,
    pair by pair in enumeration order.
    """
    failures, nonwalk = [], 0
    # Column profile of each index's walk, None where the index is no walk.
    profiles = [walks.Walk(seq).profile if _is_walk(seq) else None
                for seq in (index_to_seq(i, n) for i in range(1 << n))]
    on_walk = [i for i, prof in enumerate(profiles) if prof is not None]
    walk_keys = {row << n | col for row in on_walk for col in on_walk}
    # below[i]: the walks whose profile is pointwise <= walk i's.  A pair
    # (r, c) <= (a, b) iff end(r) < end(a), or end(r) = end(a) with
    # r in below[a] and c in below[b] (``leq``).
    below = {i: {j for j in on_walk
                 if all(x <= y for x, y in zip(profiles[j], profiles[i]))}
             for i in on_walk}
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


def _tl_certificate(n, seed, build):
    pairs, _, vectors = build
    rank, method, witness = faithful._certified_rank(vectors, seed, n)
    return faithful.FaithfulnessCertificate(n=n, basis_size=len(pairs),
                                            rank=rank, method=method,
                                            witness=witness)


def prove_r_composition(n):
    """verify_r_composition's failures, proved from the TL_n presentation.

    When the R(u_i) satisfy the TL_n relations at delta = [2], u_i -> R(u_i)
    defines an algebra map.  The walk-pair words are loop free and evaluate
    to all Catalan(n) diagrams, so the map sends each diagram D to its
    word's matrix, which must equal R(D) (for id, the empty word:
    R(id) = I).  Then R is that algebra map and no pair fails.  When any
    check fails, the exhaustive sweep gives the failures instead.
    """
    return _prove_r_composition(n, _pair_word_vectors(n))


def _prove_r_composition(n, build):
    _, pair_words, vectors = build
    evals = [words.eval_word(w) for w in pair_words]
    # R(D) is compared in codes.  It has an entry 1 (code 0: north arcs at
    # u, south arcs at 1/u), which no nonzero ring element equals, so a
    # build on ring elements (the guard fired) is left to the sweep.
    proved = words.verify_presentation(faithful._tl_letter_matrices(n), n,
                                       quantum_integer(2)).ok \
        and all(ev.loop_free for ev in evals) and \
        len({ev.diagram for ev in evals}) == comb(2 * n, n) // (n + 1) and \
        all(r_matrix_codes(ev.tl_diagram) == v for ev, v in zip(evals, vectors))
    return [] if proved else faithful.verify_r_composition(n)


def verify_tl(n, seed=faithful.DEFAULT_SEED):
    """(triangularity_report, prove_r_composition, verify_tl_faithful) of n.

    The three results are those of the three functions, read from one
    walk-pair build instead of three.
    """
    build = _pair_word_vectors(n)
    return (_triangularity(n, build), _prove_r_composition(n, build),
            _tl_certificate(n, seed, build))
