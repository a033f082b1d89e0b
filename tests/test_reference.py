"""The certificate commands never load ``tlblob.reference``; everything that
moved there stays reachable under its old names, and the fallbacks that
need it still give the same results."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import tlblob
from tlblob import faithful, reference

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TRACED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "traced.py")

# Each module that forwards names, and the names it forwards.
MOVED = {
    "tlblob.faithful": (
        "_tl_pair_fails", "_failing_scalars", "_structure_constant_failures",
        "_convention_scalars", "_basis_images", "verify_mask_independence",
        "MaskIndependenceReport", "OVERLAY_MENU"),
    "tlblob.diagrams": (
        "_trace_concatenation", "cut", "propagating_number", "enumerate_tl",
        "enumerate_blob", "reflect", "_label_to_node", "diagram_to_json",
        "diagram_from_json"),
    "tlblob.tensorrep": (
        "matrix_to_json", "_json_natural", "matrix_from_json",
        "product_summand_counts"),
    "tlblob.walks": (
        "raise_at", "leq", "linear_extension", "hasse_edges",
        "tl_basis_word_table", "walk_from_string"),
    "tlblob.words": ("f_map", "parse_word", "format_word"),
    "tlblob.rings": ("element_to_json", "element_from_json"),
}

# tlblob.__all__ before the move, submodule names included.
EXPORTED = {
    "BlobPairing", "BlobParams", "CompositionResult", "CycloInt",
    "CycloLaurent", "DEFAULT_SEED", "FaithfulnessCertificate", "GenWord",
    "LaurentInt", "Pairing", "Rho0Config", "Rho0Rep", "SparseRepMatrix",
    "TriangularityReport", "Walk", "WalkPair", "blob_basis_words", "blob_e",
    "certify_mirror", "certify_rho0", "check_full_rank_witness",
    "compose_blob", "compose_tl", "cut", "diagrams", "enumerate_blob",
    "enumerate_pairs", "enumerate_tl", "enumerate_walks", "eval_word",
    "exposed_lines", "f_map", "faithful", "format_word", "full_rank_witness",
    "generator_u", "hasse_edges", "identity", "index_to_seq", "leq",
    "linear_extension", "local_u_matrix", "lower_at", "mask", "mask_eq",
    "pair_word", "parse_word", "place_local", "propagating_number",
    "prove_blob_representation", "prove_r_composition", "quantum_integer",
    "r_matrix", "raise_at", "rank_exact", "rank_modular", "reflect", "rho0",
    "rings", "seq_to_index", "tensorrep", "tl_basis_word_table",
    "triangularity_report", "verify_blob_representation",
    "verify_mask_independence", "verify_presentation", "verify_r_composition",
    "verify_rho0", "verify_tl", "verify_tl_faithful", "walks", "words",
}


def run_python(code, *args):
    """stdout of ``code`` in a fresh interpreter with src on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


@pytest.mark.parametrize("argv", [
    ["verify-tl", "--n", "3"],
    ["certify-rho0", "--n", "2", "--m", "1"],
    ["verify-blob", "--n", "2", "--m", "2"],
])
def test_certificate_commands_leave_reference_unloaded(argv):
    code = ("import contextlib, io, sys\n"
            "from tlblob.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(sys.argv[1:])\n"
            "print(status, 'tlblob.reference' in sys.modules)\n")
    assert run_python(code, *argv) == "0 False\n"


def test_forced_fallbacks_load_reference():
    # A proof that cannot finish falls back to its sweep, which loads the
    # module on first use and gives the sweep's result.
    code = """
import json, sys
from tlblob import faithful
from tlblob.diagrams import generator_u
from tlblob.rings import BlobParams
from tlblob.tensorrep import Rho0Config, rho0

loaded = ['tlblob.reference' in sys.modules]
codes, broken = faithful.r_matrix_codes, generator_u(1, 3)
faithful.r_matrix_codes = lambda d: None if d == broken else codes(d)
tl = faithful.prove_r_composition(3)
loaded.append('tlblob.reference' in sys.modules)
images = rho0(Rho0Config(2, 1)).letter_images()
two = next(iter(images["e"].entries.values())).from_int(2)
images["e"] = images["e"].scalar_mul(two)
blob = faithful.prove_blob_representation(images, 2,
                                          BlobParams.integral_form(1, cyclo=True))
print(json.dumps({"loaded": loaded, "tl": tl, "blob": blob.to_json()}))
"""
    out = json.loads(run_python(code))
    assert out["loaded"] == [False, True]
    assert out["tl"] == []
    assert out["blob"] == {
        "n": 2, "ok": False, "pairs_checked": 36, "residuals": 5,
        "sign_normalized": False,
        "empirical_scalars": {"delta_e": "(2)*x^-2 + (-2)*x^2", "gamma": "0"},
        "expected_scalars": {"delta_e": "(-1)*x^-2 + (1)*x^2", "gamma": "0"},
    }


def test_exact_rank_fallback():
    # A dependent family has no full-rank witness: Bareiss gives the rank.
    _, _, vectors = faithful._pair_word_vectors(3)
    assert faithful._certified_rank(vectors + [vectors[0]], 7) == \
        (5, "exact", None)


def test_package_exports_are_unchanged():
    assert set(tlblob.__all__) == EXPORTED
    assert "reference" not in tlblob.__all__


@pytest.mark.parametrize("module_name", sorted(MOVED))
def test_moved_names_resolve_to_one_object(module_name):
    module = importlib.import_module(module_name)
    for name in MOVED[module_name]:
        assert name not in vars(module)
        obj = getattr(reference, name)
        assert getattr(module, name) is obj
        if name in EXPORTED:
            assert getattr(tlblob, name) is obj
    assert set(MOVED[module_name]) == set(module._REFERENCE_NAMES)


def test_package_forwards_exactly_its_moved_exports():
    moved = {name for names in MOVED.values() for name in names}
    assert set(tlblob._REFERENCE_NAMES) == moved & EXPORTED


def test_unknown_names_still_raise():
    for module in (tlblob, faithful, tlblob.diagrams):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_traced_spans_stay_on_their_modules():
    # perfbench/traced.py wraps these by (module, attribute); the objects
    # must still be defined there, not forwarded.
    with open(TRACED, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SPANS"])
    assert spans
    for _, module_name, attr in spans:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert obj.__module__ == module_name, attr
