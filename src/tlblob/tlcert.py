"""The TL_n certificate of ``verify-tl``: one pass over R(D), one diagram
at a time.

R(D) (``codes.r_matrix_codes``) is a product over the lines of D of
one fixed tensor per line: C on a cup or a cap, with C[1][2] = x and
C[2][1] = 1/x, and the identity on a through line.  In R(D) R(D') the sum
over the middle indices factors over the components of the glued picture.
An open component contracts to its line's tensor, since C C = I and
C^T C^T = I (the two zig-zags), and a closed loop to
tr(C C^T) = x^2 + x^-2 = [2].  So R(D) R(D') = [2]^loops R(D o D') for
every n, and a word that folds to D with nothing discarded has the matrix
R(D).  ``_identities_hold`` checks the three identities, and that a
through line gives I, on the tensors that ``r_matrix_codes`` itself uses.

``verify_tl`` makes one pass over the walk pairs (``_walk_pair_codes``).
Each pair's word is folded by ``words._fold`` and must reach a TL diagram
D with nothing discarded (``_is_loop_free_tl``).  R(D)'s codes are built,
fed to the triangularity sweep, checked to have the pair's own position as
their smallest key, and dropped.  Catalan(n) distinct partner arrays then
make the walk-pair word matrices the R(D) of all diagrams, each led by its
own position; the pairs are distinct, so the leads are too.  Ordered by
lead, the minor on the leads is triangular with a unit diagonal, so it is
nonzero at every point: the witness names the first seeded point
(``certificate._trial_points``) and the leads as pivots.  They are the
pivots elimination would find, since those depend only on the span
(``rank._rank_mod_p``).

A check that fails raises RuntimeError naming it: a bug (exit 2), never a
certificate.  The word chain (``reference._pair_word_vectors``) and the
sweep (``faithful.verify_r_composition``) are test oracles for the pass,
not fallbacks; it loads neither module, nor ``tlblob.diagrams``.  It
runs on the unit-code kernel (``tlblob.codes``) and the certificate
record (``tlblob.certificate``) alone, so it loads no ring
(``tlblob.rings``), ``tensorrep`` or witness search (``tlblob.rank``).

Every function of ``walks`` and ``words`` is called through its module,
looked up when the call runs, so a wrapper that ``perfbench/traced.py``
or a test installs there is reached.
"""

from math import comb

from . import DEFAULT_SEED, walks, words
from ._record import Record
from .certificate import _MODULAR_PRIME, FaithfulnessCertificate, _trial_points
from .codes import (CodedMatrix, SummandCollision, index_to_seq,
                    r_matrix_codes, seq_to_index)

__all__ = ["TriangularityReport", "verify_tl"]


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


def _triangularity(n, pair_vectors):
    """Check that each walk pair's matrix is supported below the pair.

    Clause 1: the entry at the pair's own position is nonzero.  Clause 2:
    every nonzero entry whose row and column are valid walks sits at a pair
    dominated by the defining pair.  The (pair, vector) items of
    ``pair_vectors`` are read one at a time, in enumeration order.
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
    for p, vec in pair_vectors:
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


def _is_loop_free_tl(fold, n):
    """Whether a ``words._fold`` result is a TL diagram reached with nothing
    discarded: no count, no blob flag, and a partner array that
    ``words._is_blob_state`` accepts (the checks ``Pairing`` makes)."""
    partner, blob, counts = fold
    return not any(counts) and not any(blob) and \
        words._is_blob_state(partner, blob, n)


def _lines(partner):
    """The lines (i, j), i < j, of a partner array: ``Pairing``'s pairs."""
    return tuple((i, j) for i, j in enumerate(partner) if i < j)


def _transposed(c):
    """The transpose of a 2x2 ``CodedMatrix``."""
    return CodedMatrix(1, {(k & 1) << 1 | k >> 1: v
                           for k, v in c.entries.items()})


def _identities_hold():
    """Whether the line tensors of ``r_matrix_codes`` satisfy the argument.

    C is read as the cap's R (N, two top nodes) and the cup's (S, two
    bottom nodes), each a 2x2 ``CodedMatrix`` indexed [left][right].  On
    codes: S N = I and S^T N^T = I, the zig-zags to the right and to the
    left; the diagonal of S N^T, whose sum is the loop, is x^2 and x^-2
    (x^e has code e << 4), so tr(S N^T) = [2]; and a through line's R is
    I.  Two summands at one position of a product fail the check.
    """
    one = CodedMatrix.identity(1).entries
    cap = CodedMatrix(1, r_matrix_codes(2, 0, ((0, 1),)))
    cup = CodedMatrix(1, r_matrix_codes(0, 2, ((0, 1),)))
    try:
        right = cup.mul(cap).entries
        left = _transposed(cup).mul(_transposed(cap)).entries
        loop = cup.mul(_transposed(cap)).entries
    except SummandCollision:
        return False
    return right == left == one == r_matrix_codes(1, 1, ((0, 1),)) and \
        sorted(v for k, v in loop.items() if k in one) == [-2 << 4, 2 << 4]


def _walk_pair_codes(n, pairs, arrays, leads):
    """Yield (p, codes of R(D)) for each walk pair p in turn, D the fold of
    p's word.

    Each fold must be a TL diagram reached with nothing discarded; its
    partner array joins the set ``arrays``.  R(D)'s smallest key must be
    p's own position, seq_to_index(a) << n | seq_to_index(b), which joins
    the list ``leads``.  A check that fails raises RuntimeError.
    """
    for p in pairs:
        fold = words._fold(walks.pair_word(p))
        if not _is_loop_free_tl(fold, n):
            raise RuntimeError(f"verify-tl: loop-free TL fold refused at {p!r}")
        arrays.add(bytes(fold[0]))
        vec = r_matrix_codes(n, n, _lines(fold[0]))
        own = seq_to_index(p.a.steps) << n | seq_to_index(p.b.steps)
        if min(vec) != own:
            raise RuntimeError(f"verify-tl: lead check refused at {p!r}")
        leads.append(own)
        yield p, vec


def verify_tl(n, seed=DEFAULT_SEED):
    """(triangularity report, composition failures, rank certificate) of n.

    One pass over R(D): no composition failure, and the leads as the
    witness's pivots.  A check that fails raises RuntimeError naming it:
    the line-tensor identities, the loop-free TL fold, the Catalan(n)
    distinct arrays or the lead check.  Raises ValueError for n < 0.
    """
    pairs = walks.enumerate_pairs(n)
    if not _identities_hold():
        raise RuntimeError("verify-tl: line-tensor identities refused")
    arrays, leads = set(), []
    report = _triangularity(n, _walk_pair_codes(n, pairs, arrays, leads))
    size = comb(2 * n, n) // (n + 1)
    if not len(pairs) == len(arrays) == size:
        raise RuntimeError(f"verify-tl: Catalan(n) distinct arrays refused: "
                           f"{len(arrays)} from {len(pairs)} pairs, not {size}")
    p = _MODULAR_PRIME
    x, a = _trial_points(1, seed, p)[0]
    low = (1 << n) - 1
    witness = {"p": p, "x": x, "a": a,
               "pivots": [(k >> n, k & low) for k in sorted(leads)]}
    return report, [], FaithfulnessCertificate(
        n=n, basis_size=size, rank=size, method="modular-witness",
        witness=witness)
