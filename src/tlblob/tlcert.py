"""The TL_n certificate of ``verify-tl``: two lemmas and a count per walk
pair, with no R(D) built and no word folded.

R(D) (``codes.r_matrix_codes``) is a product over the lines of D of
one fixed tensor per line: C on a cup or a cap, with C[1][2] = x and
C[2][1] = 1/x, and the identity on a through line.  In R(D) R(D') the sum
over the middle indices factors over the components of the glued picture.
An open component contracts to its line's tensor, since C C = I and
C^T C^T = I (the two zig-zags), and a closed loop to
tr(C C^T) = x^2 + x^-2 = [2].  So R(D) R(D') = [2]^loops R(D o D') for
every n: R is an algebra map on the diagram algebra.  ``_identities_hold``
checks the three identities, and that a through line gives I, on the
tensors that ``r_matrix_codes`` itself uses.

``verify_tl`` makes one pass over the walk pairs.  Each pair (a, b) is
decoded into its diagram D by bracket matching (``_side``): an up step
opens a line, a down step closes the innermost open one, and the openers
left open on the two sides are the through lines, joined in order.  So D
is a TL diagram.  An arc (i, j), i < j, of D sets either j's key bit
(weight x) or i's (weight 1/x) of an entry of R(D); a through line sets
neither bit or both; node i is key bit 2n - 1 - i.

- Lead lemma: R(D)'s smallest key takes each arc's closer bit and no
  through-line bit (``_lead``), since the lines set disjoint bits and i's
  bit is above j's.  That key is a unit x^e, and it must be the pair's own
  position seq_to_index(a) << n | seq_to_index(b).  Over Catalan(n)
  distinct positions this round trip proves the decoded diagrams
  distinct, so they are all of TL_n, and R is injective on them: ordered
  by lead, the minor on the leads is triangular with a unit diagonal, so
  it is nonzero at every point.  The witness names the first seeded point
  and the leads as pivots (``certificate._lead_witness``), the pivots
  elimination would find.
- Profile lemma: flipping an arc lowers its side's walk by 2 on [i, j);
  flipping a through line lowers both sides' walks by 2 from its ends on,
  ends included.  So an entry whose row and column are walks lies below
  the pair in the walk-pair order: its end is lower, or its two profiles
  are pointwise lower.  The triangularity report has no failures.
- Count: ``nonwalk_entries`` is Catalan(n) 2^n minus the entries whose
  row and column are walks, which ``_walk_entries`` counts from the two
  sides' arc forests.

A check that fails raises RuntimeError naming it: a bug (exit 2), never a
certificate.  The sweep over every entry of every R(D) and the word fold
it read D from (``reference._verify_tl_sweep``) are test oracles for the
pass, not fallbacks.  The pass runs on the unit-code kernel
(``tlblob.codes``) and the certificate record (``tlblob.certificate``)
alone, so it loads no ``words``, ring (``tlblob.rings``), ``tensorrep``
or witness search (``tlblob.rank``).

``walks.enumerate_pairs`` is called through its module, looked up when the
call runs, so a wrapper that ``perfbench/traced.py`` or a test installs
there is reached.
"""

from math import comb
from operator import add, mul

from . import DEFAULT_SEED, walks
from ._record import Record
from .certificate import FaithfulnessCertificate, _lead_witness
from .codes import CodedMatrix, SummandCollision, r_matrix_codes, seq_to_index

__all__ = ["TriangularityReport", "verify_tl"]


class TriangularityReport(Record):
    """Clause-by-clause outcome of the triangularity check at size n.

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


def _side(steps, first, width):
    """(arcs, openers, segments) of one side of a walk pair's diagram.

    The side's walk ``steps`` is read on nodes first, first + 1, ...: an up
    step opens a line and a down step closes the innermost open one, the
    arc (i, j), i < j.  The openers left open are the side's through-line
    ends, in order.  No arc spans one, so they cut the side's arcs into
    segments, one before each through line and one after the last.

    segments[k][h] counts the sets of segment k's arcs whose flip keeps the
    walk >= 0 from height h, for h < ``width``.  The arcs of a segment form
    a forest, and the count is a product over its trees.  A tree rooted at
    the arc (i, j) gives g(h) = F(h + 1) + [h >= 1] F(h - 1), F the product
    over its children: unflipped, i steps up and the children start at
    h + 1; flipped, i steps down and they start at h - 1.  Either way j
    returns the walk to h.  A height the walk never reaches is read as 0
    past the top; that touches no count at a reachable height, since a
    tree of depth t that starts at h rises to h + t <= len(steps).
    """
    arcs, root, stack = [], [1] * width, []
    for node, step in enumerate(steps, first):
        if step == 1:
            stack.append((node, [1] * width))
            continue
        opener, inner = stack.pop()
        arcs.append((opener, node))
        g = [inner[1], *map(add, inner, inner[2:]), inner[-2]]
        outer = stack[-1][1] if stack else root
        outer[:] = map(mul, outer, g)
    return arcs, [node for node, _ in stack], \
        [root, *(inner for _, inner in stack)]


def _walk_entries(top, bottom):
    """The number of R(D)'s entries whose row and column are both walks,
    from the segments (``_side``) of D's top and bottom.

    Before through line k both walks stand at height k - 2f, f the through
    lines flipped so far, and flipping it needs that height >= 1.  Only
    through lines couple the two sides, so ways[f] sums, over the flips
    so far with f through lines flipped, the product of both sides' segment
    counts.
    """
    ways = [top[0][0] * bottom[0][0]]
    for k in range(1, len(top)):
        seg_top, seg_bottom, nxt = top[k], bottom[k], [0] * (len(ways) + 1)
        for f, w in enumerate(ways):
            if w:
                h = k - 2 * f  # after through line k - 1, unflipped
                nxt[f] += w * seg_top[h] * seg_bottom[h]
                if h >= 2:
                    nxt[f + 1] += w * seg_top[h - 2] * seg_bottom[h - 2]
        ways = nxt
    return sum(ways)


def _decoded_pairs(n, pairs):
    """Yield (p, partner, walk entries) for each walk pair p in turn.

    ``partner`` is the partner array of p's diagram D, on top nodes 0..n-1
    and bottom nodes n..2n-1: the two sides' arcs (``_side``) and their
    through-line ends joined in order.  The walk entries are
    ``_walk_entries`` of D.  Each walk's side is decoded once.
    """
    width, tops, bottoms = n + 1, {}, {}
    for p in pairs:
        a, b = p.a.steps, p.b.steps
        top = tops.get(a) or tops.setdefault(a, _side(a, 0, width))
        bottom = bottoms.get(b) or bottoms.setdefault(b, _side(b, n, width))
        partner = [0] * (2 * n)
        for i, j in (*top[0], *bottom[0], *zip(top[1], bottom[1],
                                                strict=True)):
            partner[i], partner[j] = j, i
        yield p, partner, _walk_entries(top[2], bottom[2])


def _lead(partner, n):
    """R(D)'s smallest key by the lead lemma, D the partner array's
    diagram: each arc (i, j), i < j, sets j's bit 2n - 1 - j, and a through
    line sets none."""
    top = 2 * n - 1
    return sum(1 << top - j for i, j in enumerate(partner)
               if i < j and (j < n or i >= n))


def verify_tl(n, seed=DEFAULT_SEED):
    """(triangularity report, rank certificate) of n.

    The line-tensor identities prove the composition identity for every
    pair, and the lemmas the triangularity and the leads, which are the
    witness's pivots.  A check
    that fails raises RuntimeError naming it: the line-tensor identities,
    the lead check or the Catalan(n) distinct leads.  Raises ValueError
    for n < 0.
    """
    pairs = walks.enumerate_pairs(n)
    if not _identities_hold():
        raise RuntimeError("verify-tl: line-tensor identities refused")
    leads, on_walks = [], 0
    for p, partner, count in _decoded_pairs(n, pairs):
        own = seq_to_index(p.a.steps) << n | seq_to_index(p.b.steps)
        if _lead(partner, n) != own:
            raise RuntimeError(f"verify-tl: lead check refused at {p!r}")
        leads.append(own)
        on_walks += count
    size = comb(2 * n, n) // (n + 1)
    distinct = len(set(leads))
    if not len(pairs) == distinct == size:
        raise RuntimeError(f"verify-tl: Catalan(n) distinct leads refused: "
                           f"{distinct} from {len(pairs)} pairs, not {size}")
    return TriangularityReport(n, [], (size << n) - on_walks), \
        FaithfulnessCertificate(
            n=n, basis_size=size, rank=size, method="modular-witness",
            witness=_lead_witness(leads, seed, n))
