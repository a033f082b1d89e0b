"""Exact-arithmetic workbench for Temperley-Lieb and blob diagram algebras.

The package builds the tensor-space matrices of planar diagrams over exact
coefficient rings and machine-verifies, at desk scale, the structural facts
behind their faithfulness: the multiplicative identity of the diagram map,
triangularity over the walk-pair order, linear independence of basis
images, and the mirror-mask certification of the explicit blob
representation.
"""

__version__ = "0.1.0"

from .rings import (
    BlobParams,
    CycloInt,
    CycloLaurent,
    LaurentInt,
    check_full_rank_witness,
    full_rank_witness,
    quantum_integer,
    rank_exact,
    rank_modular,
)
from .diagrams import (
    BlobPairing,
    CompositionResult,
    Pairing,
    blob_e,
    compose_blob,
    compose_tl,
    exposed_lines,
    generator_u,
    identity,
)
from .words import (
    GenWord,
    blob_basis_words,
    eval_word,
    verify_presentation,
)
from .walks import (
    Walk,
    WalkPair,
    enumerate_pairs,
    enumerate_walks,
    lower_at,
    pair_word,
)
from .tensorrep import (
    Rho0Config,
    Rho0Rep,
    SparseRepMatrix,
    index_to_seq,
    local_u_matrix,
    mask,
    mask_eq,
    place_local,
    r_matrix,
    rho0,
    seq_to_index,
)
from .faithful import (
    DEFAULT_SEED,
    FaithfulnessCertificate,
    TriangularityReport,
    certify_mirror,
    certify_rho0,
    prove_blob_representation,
    prove_r_composition,
    triangularity_report,
    verify_blob_representation,
    verify_r_composition,
    verify_rho0,
    verify_tl,
    verify_tl_faithful,
)

from ._record import forward_to_reference as _forward_to_reference

# Exported names that live in ``reference`` and load on first use.
_REFERENCE_NAMES = (
    "cut", "enumerate_blob", "enumerate_tl", "propagating_number", "reflect",
    "f_map", "format_word", "parse_word", "hasse_edges", "leq",
    "linear_extension", "raise_at", "tl_basis_word_table",
    "verify_mask_independence",
)
__getattr__ = _forward_to_reference(__name__, _REFERENCE_NAMES)

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_REFERENCE_NAMES))
