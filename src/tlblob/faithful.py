"""Verification engine: word-matrix chains, rank certificates, mirror checks.

Everything here is exact.  A full rank is certified by a modular witness:
a point x -> x0, a -> a0 mod p and a minor that is nonzero there.  The
substitution is a ring map, so that minor is nonzero over the ring too.

Every word matrix comes from one shared-prefix product chain
(``_prefix_products``), one product per distinct word prefix.  The
certificate chains run it on ``codes.CodedMatrix``: each entry is the int
code of a signed unit monomial under a packed key row << dim_log2 | col,
which sorts like (row, col); the witness's pivots become (row, col) again
for the JSON.

``certify_mirror`` streams the chain (``_distinct_leads``): the basis words
run in trie order, so only the products along one word are held, and each
vector is dropped once its smallest key, its lead, is read.  When the leads
are distinct, the minor on them is triangular with a unit-monomial
diagonal, so it is nonzero at every point where x and a are units: the
witness names the first seeded point and the sorted leads
(``certificate._lead_witness``), and nothing is eliminated.  When an image
entry has no code, two summands meet at one position or a lead repeats,
the vectors are built in full (``_word_vectors``, on ring elements when
the code chain fails) and ``_certified_rank`` certifies them.  It is the
one caller of the witness search (``tlblob.rank``, loaded on first use);
the overlay test ``reference.verify_mask_independence`` reaches the search
through it too.  When no witness re-checks, the rank comes from
fraction-free (Bareiss) elimination over the coefficient ring's fraction
field (``reference.rank_exact``, loaded only then).  ``rho0`` reaches
neither.  Everything runs in one process.

Generator images arrive as ``tensorrep.Placed`` blocks or full matrices,
read through ``tensorrep._placed`` (a full matrix is a block on every
factor); the chain entry expands each letter once.  ``certify_rho0``
hands ``certify_mirror`` rho0's blocks: each mask is compared with the TL
letter of ``_tl_letter_matrices(2n)`` on the factors the two touch
(``tensorrep._on_union``), and each u_i is formed once, on its two
windows (``tensorrep._window_product``), so the only 2^(2n)-square
matrices are the letter images the chain multiplies.

This module holds what ``certify-rho0`` runs: the chains, the certified
rank and ``certify_mirror``.  ``verify-tl`` runs none of it: its pass,
which decodes each walk pair's diagram and proves its lead by lemma,
lives in ``tlblob.tlcert``.  The TL word chain and
``verify_r_composition``, the exhaustive sweep (which loads its per-pair
check from ``reference``), are test oracles for that pass, not fallbacks.
``triangularity_report`` and ``verify_tl_faithful`` read the pass and
load ``tlcert`` on first use.  The blob structure-constant proof lives in
``tlblob.blobrep``.  So ``certify_rho0`` loads neither ``tlcert``,
``walks``, ``rank`` nor ``reference``.

The functions ``perfbench/traced.py`` wraps are called through the module
its span names (``tensorrep.r_matrix(...)``, ``rings.rank_exact(...)``),
looked up when the call runs, so a wrapper installed after this module
loaded is still reached.
"""

from math import comb

from . import DEFAULT_SEED, _forwarder, rings, tensorrep, words
from .certificate import FaithfulnessCertificate, _lead_witness
from .codes import CodedMatrix, SummandCollision
from .tensorrep import (
    SparseRepMatrix,
    _expanded,
    _on_union,
    _placed,
    _placed_local,
    _window_product,
    mask_eq,
    Rho0Config,
)

# perfbench/traced.py wraps this by this module's name; ``blobrep`` defines it.
__getattr__ = _forwarder(__name__, blobrep=("verify_blob_representation",))

__all__ = [
    "DEFAULT_SEED",
    "FaithfulnessCertificate",
    "tl_word_matrix",
    "rep_word_matrix",
    "triangularity_report",
    "verify_tl_faithful",
    "verify_r_composition",
    "certify_mirror",
    "certify_rho0",
    "verify_blob_representation",
]


def _tl_letter_matrices(n):
    """R(u_i) for i in 1..n-1, as R(u_1) on 2 strands placed at (i, i+1).

    R(u_1) on 2 strands is the cup-cap block at q = x^2.
    """
    block = tensorrep.local_u_matrix(None, rings.LaurentInt.x_power(2))
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
                            words, _expanded(images))


def rep_word_matrix(word, images, dim_log2, ring):
    """Evaluate a generator word through matrix images of the generators."""
    return next(_rep_word_matrices([word], images, dim_log2, ring))


def tl_word_matrix(word):
    return rep_word_matrix(word, _tl_letter_matrices(word.n), word.n, "laurent")


def _coded_images(images):
    """Each full image as a ``CodedMatrix``, or None when an entry of one
    is no signed unit monomial."""
    coded = {letter: CodedMatrix.from_matrix(m) for letter, m in images.items()}
    return None if None in coded.values() else coded


def _word_vectors(words, images, dim_log2, ring):
    """Each word's matrix as a vector {row << dim_log2 | col: entry}.

    Each image is expanded to its full matrix once, here.  The entries
    are codes (``CodedMatrix``) when every image entry is a signed unit
    monomial and no product position gets two summands; else they are ring
    elements from ``_rep_word_matrices``.
    """
    words, images = list(words), _expanded(images)
    coded = _coded_images(images)
    if coded is not None:
        try:
            return [m.entries for m in _prefix_products(
                CodedMatrix.identity(dim_log2), words, coded)]
        except SummandCollision:
            pass
    return [{r << dim_log2 | c: v for (r, c), v in m.entries.items()}
            for m in _rep_word_matrices(words, images, dim_log2, ring)]


def _trie_order(word):
    """Sort key of a word: its letters, e before U_1 .. U_{n-1}, so the
    words a word prefixes come right after it, together."""
    return tuple(0 if letter == "e" else letter for letter in word.letters)


def _distinct_leads(words, images, dim_log2):
    """The set of the words' leads, or None when it is no proof of full rank.

    A word's lead is the smallest key of its coded vector.  The images are
    expanded and coded once; the words run through the chain in trie order
    (``_trie_order``), so it holds only the products along the current
    word, and each vector is dropped once its lead is read.  None when an
    image entry has no code, two summands meet at one position
    (``SummandCollision``), or a vector is empty or has another's lead.
    """
    coded = _coded_images(_expanded(images))
    if coded is None:
        return None
    leads = set()
    try:
        for m in _prefix_products(CodedMatrix.identity(dim_log2),
                                  sorted(words, key=_trie_order), coded):
            lead = min(m.entries, default=None)
            if lead is None or lead in leads:
                return None
            leads.add(lead)
    except SummandCollision:
        return None
    return leads


def _require_size(n):
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def triangularity_report(n):
    """Check that each walk pair's matrix is supported below the pair (``tlcert``)."""
    from .tlcert import verify_tl

    return verify_tl(n)[0]


def _certified_rank(vectors, seed, cols_log2=None):
    """(rank, method, witness) of a family of sparse vectors.

    A full-rank witness that re-checks gives rank len(vectors) with method
    "modular-witness"; otherwise Bareiss elimination gives the rank, with
    method "exact" and no witness.  With ``cols_log2`` the keys are packed
    row << cols_log2 | col, and the witness names its pivots as (row, col).
    """
    from .rank import check_full_rank_witness, full_rank_witness

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
    from .tlcert import verify_tl

    return verify_tl(n, seed)[1]


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


def _relations_hold(images, n, ring):
    """Whether the images satisfy the blob relations with delta = [2] and
    the gamma and delta_e they realise (``ok_with`` the scalars that
    ``verify_presentation`` records: only relations no scalar meets fail).
    """
    delta = rings.quantum_integer(2)
    if ring == "cyclo":
        delta = rings.CycloLaurent.from_laurent(delta)
    # Any gamma and delta_e: ``ok_with`` decides the two relations again.
    report = words.verify_presentation(images, n, delta,
                                       rings.BlobParams(delta, delta, delta))
    found = report.empirical_scalars
    return report.ok_with(rings.BlobParams(delta, found.get("gamma"),
                                           found.get("delta_e")))


def certify_mirror(e_matrix, factored_u, n, seed=DEFAULT_SEED):
    """Certify a blob representation given by masks of mirrored generators.

    The images are ``Placed`` blocks or full matrices on 2n factors.
    ``factored_u`` maps i -> (X_i, Y_i); the definition constrains the two
    factors separately, so each is checked against the shifted-index
    generator at position -i or +i, the TL letter at n - i or n + i, before
    the product is formed.  A mask is compared on the factors the image
    and the letter touch, and X_i Y_i on the factors of its two windows
    (``tensorrep._window_product``).  On mask success the images must
    satisfy the blob relations (``_relations_hold``), else the method is
    "relations-failed"; then the basis words are evaluated through the
    representation and their rank must reach the blob diagram count.  The
    rank is the number of distinct leads (``_distinct_leads``), with the
    triangular witness on them; when the leads prove nothing, it is
    ``_certified_rank``'s on the full vectors.
    """
    total = 2 * n
    if n < 1 or set(factored_u) != set(range(1, n)):
        raise ValueError(f"n must be >= 1, with images for indices 1..{n - 1}")
    mats = [_placed(e_matrix)]
    for factors in factored_u.values():
        mats.extend(map(_placed, factors))
    for mat in mats:
        if (mat.block.rows_log2, mat.block.cols_log2) != (total, total):
            raise ValueError(f"matrices must act on {total} tensor factors")
    letters = _tl_letter_matrices(total)

    def mask_ok(image, j):
        _, (a, b) = _on_union(image, letters[n + j])
        return mask_eq(a, b)

    checks = [{"name": "e", "ok": mask_ok(e_matrix, 0)}]
    images = {"e": e_matrix}
    for i, (x_i, y_i) in sorted(factored_u.items()):
        checks.append({"name": f"u{i}_left", "ok": mask_ok(x_i, -i)})
        checks.append({"name": f"u{i}_right", "ok": mask_ok(y_i, i)})
        images[i] = _window_product(x_i, y_i)
    ring, rank, witness = mats[0].block.ring, 0, None
    if not all(c["ok"] for c in checks):
        method = "masks-only"
    elif not _relations_hold(images, n, ring):
        method = "relations-failed"
    else:
        basis = words._basis_words(n)
        leads = _distinct_leads(basis, images, total)
        if leads is not None:
            rank, method = len(leads), "modular-witness"
            witness = _lead_witness(leads, seed, total)
        else:
            vectors = _word_vectors(basis, images, total, ring)
            rank, method, witness = _certified_rank(vectors, seed, total)
    return FaithfulnessCertificate(n=n, basis_size=comb(2 * n, n), rank=rank,
                                   method=method, mask_checks=checks,
                                   witness=witness)


def certify_rho0(n, m, seed=DEFAULT_SEED):
    """certify_mirror on rho0(n, m)'s blocks (``tensorrep._rho0_placed``)."""
    e, factors = tensorrep._rho0_placed(Rho0Config(n, m))
    return certify_mirror(e, factors, n, seed=seed)
