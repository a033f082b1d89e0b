"""Words in the algebra generators and their diagrammatic evaluation.

A word is a sequence of letters, each either the blob generator ``"e"`` or
an integer i standing for the cup-cap generator U_i.  Two index conventions
exist: ``"standard"`` indices run 1..n-1; ``"shifted"`` indices run
-n/2+1..n/2-1 on an even ambient size n (shifted index i acts at absolute
position n/2 + i, so index 0 sits at the middle of the frame).

Evaluating a word folds its letters into one (blob) diagram while counting
every discarded feature; a word is loop free when nothing was discarded.

The blob basis comes from one breadth-first search over partner arrays
(``_search``): each state is a diagram's partner array with its blob flags,
checked by an O(n) scan (``_is_blob_state``) before it counts.  The
certificates read its words in order (``_basis_words``) and build no
diagram; ``blob_basis_words`` turns the same states into ``BlobPairing``
keys, and only it and ``eval_word`` load ``tlblob.diagrams``.  The fold
itself (``_fold``) builds no diagram either: the TL composition proof
(``tlcert``) checks its partner arrays with the same scan.  Only
``verify_presentation`` multiplies matrices, and it loads
``tlblob.tensorrep`` when called, so ``verify-tl``, which folds words,
loads neither it nor ``rings``.
"""

from collections import deque
from math import comb

from ._record import Record

__all__ = [
    "GenWord",
    "format_word",
    "WordEval",
    "eval_word",
    "blob_basis_words",
    "verify_presentation",
]


def _absolute_index(j, n, convention):
    """The standard index 1..n-1 of letter j in its convention."""
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


class GenWord(Record):
    """A word in {e, U_i}; the empty word denotes the algebra unit."""

    __slots__ = ("letters", "n", "convention")

    def __init__(self, letters, n, convention="standard"):
        self.letters = letters = tuple(letters)
        self.n = n
        self.convention = convention
        for letter in letters:
            if letter == "e":
                if convention != "standard":
                    raise ValueError("the blob letter lives in the standard convention")
                if n < 1:
                    raise ValueError("the blob letter needs n >= 1")
                continue
            if not isinstance(letter, int) or isinstance(letter, bool):
                raise ValueError(f"bad letter {letter!r}")
            # Range check once, at construction.
            _absolute_index(letter, n, convention)

    def __mul__(self, other):
        if self.n != other.n or self.convention != other.convention:
            raise ValueError("cannot concatenate words of different shape")
        return GenWord(self.letters + other.letters, self.n, self.convention)

    def __repr__(self):
        return f"GenWord({format_word(self)!r}, n={self.n}, {self.convention})"


def format_word(word):
    return " ".join("e" if l == "e" else f"u{l}" for l in word.letters)


class WordEval(Record):
    """Evaluation of a word: final diagram plus accumulated discard counts."""

    __slots__ = ("diagram", "plain_loops", "blob_loops", "blob_merges")

    def __init__(self, diagram, plain_loops, blob_loops, blob_merges):
        self.diagram = diagram
        self.plain_loops = plain_loops
        self.blob_loops = blob_loops
        self.blob_merges = blob_merges

    @property
    def loop_free(self):
        return not (self.plain_loops or self.blob_loops or self.blob_merges)

    @property
    def tl_diagram(self):
        if self.diagram.blobbed:
            raise ValueError("diagram carries blobs")
        return self.diagram.base


def eval_word(word):
    """The word's diagram and discard counts, from its fold (``_fold``)."""
    partner, blob, counts = _fold(word)
    return WordEval(_partner_diagram(partner, blob, word.n), *counts)


def _fold(word):
    """(partner, blob, counts): the word's letters folded left to right,
    one O(1) update per letter.

    The running diagram is a partner array on its top nodes 0..n-1 and
    bottom nodes n..2n-1, with a blob flag on both ends of each blobbed
    line (``_stack``).  ``counts`` lists the plain loops, blob loops and
    blob merges discarded, those of composing the generator diagrams one
    by one.  No diagram is built: ``eval_word`` builds one from the arrays.
    """
    n = word.n
    partner = [*range(n, 2 * n), *range(n)]
    blob = [False] * (2 * n)
    offset = n + (n // 2 if word.convention == "shifted" else 0) - 1
    counts = [0, 0, 0, 0]  # nothing, plain loops, blob loops, blob merges
    for letter in word.letters:
        counts[_stack(partner, blob, n, None if letter == "e" else offset + letter)] += 1
    return partner, blob, counts[1:]


def _stack(partner, blob, n, a):
    """Stack one generator below the partner-array diagram, in place.

    ``a`` is None for e, else U_k's left bottom node n + k - 1.  Stacking
    U_k below joins the lines at bottom nodes a and a + 1 and re-cups those
    two nodes: when they already form a bottom cup, that cup closes into a
    (blob) loop; when both joined lines carry a blob, the blobs merge.
    Stacking e below flags the line through bottom node n, which is always
    exposed; a line already flagged merges.  Returns what was discarded:
    0 nothing, 1 a plain loop, 2 a blob loop, 3 a blob merge.
    """
    if a is None:
        merged = blob[n]
        blob[n] = blob[partner[n]] = True
        return 3 if merged else 0
    b = a + 1
    x, y = partner[a], partner[b]
    if x == b:
        discarded = 2 if blob[a] else 1
    else:
        discarded = 3 if blob[x] and blob[y] else 0
        partner[x], partner[y] = y, x
        blob[x] = blob[y] = blob[x] or blob[y]
    partner[a], partner[b] = b, a
    blob[a] = blob[b] = False
    return discarded


def _partner_diagram(partner, blob, n):
    """The blob diagram of a partner array and its blob flags."""
    from .diagrams import BlobPairing, Pairing

    pairs = [(i, j) for i, j in enumerate(partner) if i < j]
    return BlobPairing(Pairing(n, n, pairs), [p for p in pairs if blob[p[0]]])


def _is_blob_state(partner, blob, n):
    """Whether a partner array with blob flags is a blob diagram on (n, n).

    ``BlobPairing``'s checks in one O(n) scan of the frame order t1..tn,
    bn..b1.  partner must be a fixed-point-free involution.  Each node
    closes its line when its partner is the innermost open end and opens it
    otherwise, so no two lines cross exactly when every line is closed at
    the end.  A blobbed line must have both ends flagged and open when no
    line is open, i.e. be exposed.
    """
    size = 2 * n
    if len(partner) != size or len(blob) != size:
        return False
    open_ends = []
    for i in (*range(n), *range(size - 1, n - 1, -1)):
        j = partner[i]
        if not 0 <= j < size or j == i or partner[j] != i or blob[j] != blob[i]:
            return False
        if open_ends and open_ends[-1] == j:
            open_ends.pop()
        elif blob[i] and open_ends:
            return False
        else:
            open_ends.append(i)
    return not open_ends


def _search(n):
    """Yield (partner, blob, letters) for each blob diagram on n strands.

    Breadth first from the identity: right-multiplication by the generators
    (fixed order: e, U_1, .., U_{n-1}) extends the frontier, and an
    extension survives only when the stacked letter discards nothing
    (``_stack`` on the partner array).  Each state comes with the first word
    that reached it, so the order is deterministic, and only after
    ``_is_blob_state`` accepts it: a state that is no blob diagram raises
    RuntimeError.  So does a search that ends short of all (2n)!/(n!n!)
    diagrams, the states counted being validated ones.
    """
    if n < 1:
        raise ValueError("the blob letter needs n >= 1")
    letters = [("e", None)] + [(i, n + i - 1) for i in range(1, n)]
    partner, blob = [*range(n, 2 * n), *range(n)], [False] * (2 * n)
    seen = {bytes(partner + blob)}
    queue = deque([(partner, blob, ())])
    found = 0
    while queue:
        state = partner, blob, word = queue.popleft()
        if not _is_blob_state(partner, blob, n):
            raise RuntimeError(f"basis search reached a non-diagram: "
                               f"partner {partner}, blob {blob}")
        found += 1
        yield state
        for letter, a in letters:
            p, b = partner[:], blob[:]
            if _stack(p, b, n, a):
                continue
            key = bytes(p + b)
            if key not in seen:
                seen.add(key)
                queue.append((p, b, word + (letter,)))
    expected = comb(2 * n, n)
    if found != expected:
        raise RuntimeError(f"basis search incomplete: {found}/{expected}")


def _basis_words(n):
    """``blob_basis_words(n)``'s words in the same order, no diagram built."""
    return [GenWord(word, n) for _, _, word in _search(n)]


def blob_basis_words(n):
    """One loop-free word per blob diagram, {BlobPairing: GenWord}.

    The states of ``_search``, in its order, keyed by their diagrams.
    """
    return {_partner_diagram(p, b, n): GenWord(word, n)
            for p, b, word in _search(n)}


# The two blob relations with a scalar side, by the parameter they name.
_SCALAR_RELATIONS = {"delta_e": "e.e = delta_e e", "gamma": "u1 e u1 = gamma u1"}


class PresentationReport(Record):
    """Outcome of checking the defining relations against matrices.

    ``violations`` lists (relation name, residual) in check order.  The
    residual is lhs - rhs as the ``Placed`` block it was computed as, on
    the factors the relation's images touch; ``.expand()`` gives the full
    matrix.
    """

    __slots__ = ("violations", "empirical_scalars")
    __hash__ = None

    def __init__(self, violations, empirical_scalars):
        self.violations = violations
        self.empirical_scalars = empirical_scalars

    @property
    def ok(self):
        return not self.violations

    def ok_with(self, blob_params):
        """Whether the relations hold with blob_params' gamma and delta_e.

        Only the two scalar-shaped relations name them.  An empirical
        scalar c means lhs = c * base with base nonzero, so such a relation
        holds exactly at c.  None means either no scalar works or base and
        lhs are zero and every scalar does: the checked verdict carries over.
        """
        violated = {name for name, _ in self.violations}
        for key, ratio in self.empirical_scalars.items():
            if ratio is not None:
                violated.discard(_SCALAR_RELATIONS[key])
                if ratio != getattr(blob_params, key):
                    violated.add(_SCALAR_RELATIONS[key])
        return not violated


def verify_presentation(rep, n, delta, blob_params=None):
    """Check the cup-cap relations (and blob relations when "e" is present).

    ``rep`` maps generator indices 1..n-1 (and optionally "e") to square
    matrices or ``Placed`` images of one size and one ring; a full matrix
    is read as acting on every factor.  Every violated identity is reported
    with its residual block (``PresentationReport``).  For the two
    scalar-shaped blob relations the empirically observed scalar is
    recorded next to the expected one.  Other keys, shapes or rings raise
    ValueError: relations checked on a missing generator prove nothing.

    Each relation is computed on the union of its images' supports:
    (A(x)I)(B(x)I) = AB(x)I, X(x)I = Y(x)I iff X = Y, and operators on
    disjoint factors commute without a product.
    """
    from .tensorrep import Placed, _on_union, _placed  # verify-tl needs none

    idx = [i for i in rep if i != "e"]
    if set(idx) != set(range(1, n)):
        raise ValueError(f"generator images must be indexed 1..{n - 1} "
                         f"(and optionally 'e'), got {sorted(map(repr, idx))}")
    placed = {k: _placed(m) for k, m in rep.items()}
    shapes = {(p.block.rows_log2, p.block.cols_log2, p.block.ring)
              for p in placed.values()}
    if len(shapes) > 1 or any(r != c for r, c, _ in shapes):
        raise ValueError("generator images must be square, of one size, "
                         "over one ring")
    violations = []
    empirical = {}

    def check(name, bits, lhs, rhs):
        if lhs != rhs:
            violations.append((name, Placed(bits, lhs.sub(rhs))))

    def commute(name, x, y):
        if placed[x].support & placed[y].support:
            bits, (a, b) = _on_union(placed[x], placed[y])
            check(name, bits, a.mul(b), b.mul(a))

    for i in idx:
        bits, (u,) = _on_union(placed[i])
        check(f"u{i}.u{i} = delta u{i}", bits, u.mul(u), u.scalar_mul(delta))
        for j in idx:
            if abs(i - j) == 1:
                bits, (u, v) = _on_union(placed[i], placed[j])
                check(f"u{i} u{j} u{i} = u{i}", bits, u.mul(v).mul(u), u)
            elif i != j:
                commute(f"u{i} u{j} = u{j} u{i}", i, j)
    if "e" in rep:
        if blob_params is None:
            raise ValueError("blob relations need blob parameters")
        bits, (e,) = _on_union(placed["e"])
        ee = e.mul(e)
        empirical["delta_e"] = ee.ratio_to(e)
        check(_SCALAR_RELATIONS["delta_e"], bits, ee,
              e.scalar_mul(blob_params.delta_e))
        if 1 in rep:
            bits, (u1, e) = _on_union(placed[1], placed["e"])
            ueu = u1.mul(e).mul(u1)
            empirical["gamma"] = ueu.ratio_to(u1)
            check(_SCALAR_RELATIONS["gamma"], bits, ueu,
                  u1.scalar_mul(blob_params.gamma))
        for i in idx:
            if i >= 2:
                commute(f"e u{i} = u{i} e", "e", i)
    return PresentationReport(violations, empirical)
