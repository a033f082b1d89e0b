"""Exact-arithmetic workbench for Temperley-Lieb and blob diagram algebras.

The package builds the tensor-space matrices of planar diagrams over exact
coefficient rings and machine-verifies, at desk scale, the structural facts
behind their faithfulness: the multiplicative identity of the diagram map,
triangularity over the walk-pair order, linear independence of basis
images, and the mirror-mask certification of the explicit blob
representation.

Importing the package loads none of its modules: each exported name is
looked up in the module that defines it on first use (PEP 562), so a
command loads only the code it runs.
"""

import sys

__version__ = "0.1.0"

DEFAULT_SEED = 7


def _forwarder(module_name, **moved):
    """A module ``__getattr__`` serving names defined in other tlblob modules.

    ``moved`` maps a module of this package to the names it serves; that
    module is imported when one of them is first looked up.  A name equal to
    its module's name is the module itself.  Any other name raises
    AttributeError as usual.
    """
    owner = {name: target for target, names in moved.items() for name in names}

    def __getattr__(name):
        target = owner.get(name)
        if target is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        full = f"{__name__}.{target}"
        __import__(full)
        module = sys.modules[full]
        return module if name == target else getattr(module, name)
    return __getattr__


_EXPORTS = {
    "rings": ("rings", "BlobParams", "CycloInt", "CycloLaurent", "LaurentInt",
              "quantum_integer"),
    "rank": ("FaithfulnessCertificate", "check_full_rank_witness",
             "full_rank_witness"),
    "diagrams": ("diagrams", "BlobPairing", "CompositionResult", "Pairing",
                 "blob_e", "compose_blob", "compose_tl", "exposed_lines",
                 "generator_u", "identity"),
    "words": ("words", "GenWord", "blob_basis_words", "eval_word",
              "format_word", "verify_presentation"),
    "walks": ("walks", "Walk", "WalkPair", "enumerate_pairs", "enumerate_walks",
              "lower_at", "pair_word"),
    "tensorrep": ("tensorrep", "Rho0Config", "Rho0Rep", "SparseRepMatrix",
                  "index_to_seq", "local_u_matrix", "mask", "mask_eq",
                  "place_local", "r_matrix", "rho0", "seq_to_index"),
    "faithful": ("faithful", "certify_mirror",
                 "certify_rho0", "triangularity_report", "verify_r_composition",
                 "verify_tl_faithful"),
    "tlcert": ("TriangularityReport", "prove_r_composition", "verify_tl"),
    "blobrep": ("prove_blob_representation", "verify_blob_representation",
                "verify_rho0"),
    "reference": ("cut", "enumerate_blob", "enumerate_tl", "propagating_number",
                  "reflect", "f_map", "parse_word", "hasse_edges",
                  "leq", "linear_extension", "raise_at", "rank_exact",
                  "rank_modular", "tl_basis_word_table",
                  "verify_mask_independence"),
}
__getattr__ = _forwarder(__name__, **_EXPORTS)

__all__ = sorted(["DEFAULT_SEED", *(name for names in _EXPORTS.values()
                                    for name in names)])
