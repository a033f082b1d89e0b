"""The blob structure constants of a representation, proved from the
presentation.

``verify-blob`` runs this module alone: ``verify_rho0`` checks the blob
relations on ``rho0``'s generator images, held as blocks on the tensor
factors they act on (``tensorrep.Placed``), and the default basis, the
words of ``words._search``, is complete and loop free by construction, so
the relations prove the structure constants for every basis pair; no
diagram is built.  A caller's table is folded again
(``_is_loop_free_table``).  When the relations fail in both sign
conventions, or the table is not complete and loop free,
``prove_blob_representation`` returns the exhaustive sweep's report
(``verify_blob_representation``; its per-pair checks live in
``reference``).  One stated relation check also decides the sign-flipped
relations (``PresentationReport.ok_with``).

The sweep is called as ``faithful.verify_blob_representation``, the name
``perfbench/traced.py`` wraps; the fallback loads ``faithful`` anyway,
through ``reference``.
"""

from math import comb

from . import words
from ._record import Record
from .rings import BlobParams
from .tensorrep import Rho0Config, _expanded, _on_union, _placed, rho0_placed
from .words import eval_word

__all__ = [
    "BlobRepReport",
    "verify_blob_representation",
    "prove_blob_representation",
    "verify_rho0",
]


class BlobRepReport(Record):
    """Structure-constant verification of a representation on a diagram basis."""

    __slots__ = ("n", "pairs_checked", "failures", "sign_normalized",
                 "empirical_scalars", "expected_scalars")
    __hash__ = None

    def __init__(self, n, pairs_checked, failures, sign_normalized,
                 empirical_scalars=None, expected_scalars=None):
        self.n = n
        self.pairs_checked = pairs_checked
        self.failures = failures
        self.sign_normalized = sign_normalized
        self.empirical_scalars = {} if empirical_scalars is None else empirical_scalars
        self.expected_scalars = {} if expected_scalars is None else expected_scalars

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {
            "n": self.n,
            "pairs_checked": self.pairs_checked,
            "residuals": len(self.failures),
            "sign_normalized": self.sign_normalized,
            "empirical_scalars": {k: repr(v) for k, v in self.empirical_scalars.items()},
            "expected_scalars": {k: repr(v) for k, v in self.expected_scalars.items()},
            "ok": self.ok,
        }


def _image_dimension(images):
    dims = {_placed(m).block.rows_log2 for m in images.values()}
    if len(dims) != 1:
        raise ValueError("generator images must share one dimension")
    return dims.pop()


def _blob_report(images, n, params, basis_size, failures, sign_normalized,
                 scalars=()):
    """The report.  ``scalars`` holds the empirical scalars already known
    from a relation check on images' own e and u1; each other one that
    images define is computed on the factors e and u1 touch."""
    report = BlobRepReport(n=n, pairs_checked=basis_size ** 2,
                           failures=failures, sign_normalized=sign_normalized)
    report.expected_scalars = {"gamma": params.gamma, "delta_e": params.delta_e}
    report.empirical_scalars = found = dict(scalars)
    if "e" in images:
        _, (e,) = _on_union(images["e"])
        if "delta_e" not in found:
            found["delta_e"] = e.mul(e).ratio_to(e)
        if 1 in images and "gamma" not in found:
            _, (u1, e) = _on_union(images[1], images["e"])
            found["gamma"] = u1.mul(e).mul(u1).ratio_to(u1)
    return report


def verify_blob_representation(images, n, params, basis=None):
    """Compare rep products against diagram structure constants.

    Each basis pair (D, D') must satisfy rep(D) rep(D') = s * rep(D o D')
    with s = [2]^loops * gamma^blobloops * delta_e^merges.  When the check
    fails as stated but passes with (gamma, delta_e) globally negated (the
    twist that sends the blob generator to its negative), the report says so
    and is considered passing; the empirically observed scalars are recorded
    next to the configured ones either way.  ``images`` may be ``Placed``:
    the sweep expands them to full matrices.
    """
    from .reference import _basis_images, _structure_constant_failures

    if basis is None:
        basis = words.blob_basis_words(n)
    images = _expanded(images)
    rep_of = _basis_images(images, basis)
    failures, refailures = _structure_constant_failures(rep_of, basis, images,
                                                        params)
    sign_normalized = bool(failures) and not refailures
    if sign_normalized:
        failures = []
    return _blob_report(images, n, params, len(basis), failures,
                        sign_normalized)


def _is_loop_free_table(basis, n):
    """Whether each word is a standard word on n strands that evaluates,
    discarding nothing, to its own key."""
    for d, word in basis.items():
        if word.n != n or word.convention != "standard":
            return False
        ev = eval_word(word)
        if not ev.loop_free or ev.diagram != d:
            return False
    return True


def prove_blob_representation(images, n, params, basis=None):
    """verify_blob_representation's report, proved from the presentation.

    The basis must be a complete loop-free table: comb(2n, n) blob diagrams
    when some word uses e, else the Catalan(n) TL diagrams.  When the images
    of its letters satisfy the stated defining relations, they define an
    algebra map that sends each diagram to rep(D), so no pair fails.  The
    sign flip changes only e.e = delta_e e and u1 e u1 = gamma u1, and
    (e, e) and (u1, D(e u1)) are basis pairs of a blob basis: when the
    stated relations fail there but the flipped ones hold, the sweep finds
    a stated failure and no flipped one, so the report is sign_normalized.
    In every other case the exhaustive sweep's report is returned.
    """
    return _prove_blob(images, n, params, basis)[0]


def _prove_blob(images, n, params, basis):
    """(prove_blob_representation's report, the stated relation check).

    The check is None when the basis table failed and the relations were
    never checked.  ``images`` may be ``Placed``.
    Only a caller's table is checked.  The default basis is
    ``words._search``'s, complete and loop free by construction (README
    "Certification"): only its states are counted, and the sweep builds the
    diagram table itself.
    """
    own_table = basis is None
    if own_table:
        blob, size = True, sum(1 for _ in words._search(n))
    else:
        blob = any("e" in w.letters for w in basis.values())
        size = comb(2 * n, n) if blob else comb(2 * n, n) // (n + 1)
    _image_dimension(images)  # images of two sizes raise, as in the sweep
    relations = None
    if own_table or len(basis) == size and _is_loop_free_table(basis, n):
        rep = {i: images[i] for i in range(1, n)}
        if blob:
            rep["e"] = images["e"]
        relations = words.verify_presentation(rep, n, params.delta, params)
        if relations.ok or relations.ok_with(params.sign_flipped()):
            return _blob_report(images, n, params, size, [], not relations.ok,
                                relations.empirical_scalars), relations
    from . import faithful  # the sweep's span in perfbench/traced.py

    sweep = faithful.verify_blob_representation(images, n, params, basis)
    return sweep, relations


def verify_rho0(n, m):
    """rho0(n, m)'s structure-constant report, and whether its generator
    images satisfy the blob relations with the sign-flipped parameters.

    The report is prove_blob_representation's on the default basis, a
    complete loop-free table, so the relations are always checked; that one
    check serves the proof and the sign-flip verdict.
    """
    params = BlobParams.integral_form(m, cyclo=True)
    report, relations = _prove_blob(rho0_placed(Rho0Config(n, m)), n, params,
                                    None)
    return report, relations.ok_with(params.sign_flipped())
