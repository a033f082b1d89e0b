"""The certificate commands never load ``tlblob.reference``, and the
fallbacks that need it still give the same results.  ``import tlblob``
loads no module of the package, each certificate command loads only the
modules it runs (``certify-rho0`` and ``verify-blob`` no ``tlcert``,
``verify-tl`` no ``faithful``, ``rings``, ``tensorrep`` or ``rank``,
``verify-blob`` no ``codes``, ``rank`` or ``certificate``, and none of
them ``argparse``), the package root serves every export from its home
module, every module's ``__all__`` star-imports, and
``perfbench/traced.py`` still sees every layer it wraps, the proof
fallbacks included."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import tlblob
from tlblob import faithful, reference, tlcert

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TRACED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "traced.py")

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
    "prove_blob_representation", "quantum_integer",
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


def test_word_repr_leaves_reference_unloaded():
    code = ("import sys\n"
            "from tlblob.words import GenWord\n"
            "print(repr(GenWord(('e', 1, 2), 3)),"
            " 'tlblob.reference' in sys.modules)\n")
    assert run_python(code) == "GenWord('e u1 u2', n=3, standard) False\n"


def test_forced_fallbacks_load_reference():
    # A blob proof that cannot finish falls back to its sweep, which loads
    # the module on first use and gives the sweep's result.
    code = """
import json, sys
from tlblob import blobrep
from tlblob.rings import BlobParams
from tlblob.tensorrep import Rho0Config, rho0

images = rho0(Rho0Config(2, 1)).letter_images()
two = next(iter(images["e"].entries.values())).from_int(2)
images["e"] = images["e"].scalar_mul(two)
loaded = ['tlblob.reference' in sys.modules]
blob = blobrep.prove_blob_representation(images, 2,
                                         BlobParams.integral_form(1, cyclo=True))
loaded.append('tlblob.reference' in sys.modules)
print(json.dumps({"loaded": loaded, "blob": blob.to_json()}))
"""
    out = json.loads(run_python(code))
    assert out["loaded"] == [False, True]
    assert out["blob"] == {
        "n": 2, "ok": False, "pairs_checked": 36, "residuals": 5,
        "sign_normalized": False,
        "empirical_scalars": {"delta_e": "(2)*x^-2 + (-2)*x^2", "gamma": "0"},
        "expected_scalars": {"delta_e": "(-1)*x^-2 + (1)*x^2", "gamma": "0"},
    }


def test_refused_tl_pass_exits_2_without_the_word_chain():
    # A check of verify-tl's pass that fails is a bug: exit 2, nothing on
    # stdout, and no word chain or sweep loaded to answer instead.
    code = ("import contextlib, io, sys\n"
            "from tlblob import cli, tlcert\n"
            "tlcert._identities_hold = lambda: False\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), "
            "contextlib.redirect_stderr(err):\n"
            "    status = cli.main(['verify-tl', '--n', '3'])\n"
            "print(status, repr(out.getvalue()), sorted("
            "{'tlblob.faithful', 'tlblob.reference'} & set(sys.modules)),"
            " 'line-tensor identities refused' in err.getvalue())\n")
    assert run_python(code) == "2 '' [] True\n"


def test_compose_tl_leaves_reference_unloaded():
    code = ("import sys\n"
            "from tlblob.diagrams import compose_tl, generator_u\n"
            "res = compose_tl(generator_u(1, 3), generator_u(2, 3))\n"
            "print(res.plain_loops, 'tlblob.reference' in sys.modules)\n")
    assert run_python(code) == "0 False\n"


def test_exact_rank_fallback():
    # A dependent family has no full-rank witness: Bareiss gives the rank.
    _, _, vectors = reference._pair_word_vectors(3)
    assert faithful._certified_rank(vectors + [vectors[0]], 7) == \
        (5, "exact", None)


def test_package_exports_are_unchanged():
    assert set(tlblob.__all__) == EXPORTED
    assert "reference" not in tlblob.__all__


def test_package_root_serves_every_export_from_its_home():
    for home_name, names in tlblob._EXPORTS.items():
        home = importlib.import_module(f"tlblob.{home_name}")
        for name in names:
            obj = getattr(tlblob, name)
            if name == home_name:
                assert obj is home
                continue
            assert obj is vars(home)[name], name
            assert obj.__module__ == home.__name__, name


def test_unknown_names_still_raise():
    for module in (tlblob, faithful, tlblob.diagrams):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_traced_spans_resolve_on_their_modules():
    # perfbench/traced.py wraps these by (module, attribute).  Each resolves
    # there: defined in that module, or forwarded to the module that defines
    # it now (``rings.rank_exact`` is ``reference.rank_exact``).
    with open(TRACED, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SPANS"])
    assert spans
    for _, module_name, attr in spans:
        module = importlib.import_module(module_name)
        head, *rest = attr.split(".")
        obj = getattr(module, head)
        if obj.__module__ != module_name:
            assert module.__getattr__(head) is obj, attr
        for part in rest:
            obj = getattr(obj, part)
        assert callable(obj), attr


# The only names a module serves from another one: perfbench/traced.py
# wraps them by these modules' names.  Module -> {home module: names}.
SPLIT = {
    "tlblob.rings": {"tlblob.reference": ("rank_exact", "rank_modular"),
                     "tlblob._json": ("dumps_canonical",)},
    "tlblob.faithful": {"tlblob.blobrep": ("verify_blob_representation",)},
}


@pytest.mark.parametrize("module_name", sorted(SPLIT))
def test_split_names_resolve_to_one_object(module_name):
    module = importlib.import_module(module_name)
    for home_name, names in SPLIT[module_name].items():
        home = importlib.import_module(home_name)
        for name in names:
            obj = vars(home)[name]
            assert obj.__module__ == home_name
            assert module.__getattr__(name) is obj
            assert getattr(module, name) is obj
            if name in EXPORTED:
                assert getattr(tlblob, name) is obj


def test_only_the_traced_names_are_forwarded():
    # A fresh interpreter: no monkeypatch has bound a forwarded name yet.
    code = """
import importlib, pkgutil, tlblob
for info in pkgutil.iter_modules(tlblob.__path__):
    if info.name != "__main__":
        module = importlib.import_module("tlblob." + info.name)
        if "__getattr__" in vars(module):
            print(info.name, sorted(set(module.__all__) - set(vars(module))))
"""
    assert run_python(code) == ("faithful ['verify_blob_representation']\n"
                                "rings ['dumps_canonical', 'rank_exact',"
                                " 'rank_modular']\n")


# Every module of the package; ``__main__`` runs the command line instead.
MODULES = sorted("tlblob" if name == "__init__.py" else f"tlblob.{name[:-3]}"
                 for name in os.listdir(os.path.join(SRC, "tlblob"))
                 if name.endswith(".py") and name != "__main__.py")


@pytest.mark.parametrize("module_name", MODULES)
def test_star_import_finds_every_listed_name(module_name):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", f"from {module_name} import *"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_tlblob_loads_no_submodule():
    code = ("import sys, tlblob\n"
            "print(sorted(m for m in sys.modules if m.startswith('tlblob.')))\n")
    assert run_python(code) == "[]\n"


def test_import_cli_loads_only_the_json_writer():
    # Every command pays this import (the benchmark's setup probe); the
    # writer loads with cli so that the tracer reaches it.
    code = ("import sys, tlblob.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'tlblob' or m.startswith('tlblob.')))\n")
    assert run_python(code) == "['tlblob', 'tlblob._json', 'tlblob.cli']\n"


def loaded_modules(*args):
    """Modules that ``python -X importtime -m tlblob *args`` loads."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "tlblob",
                           *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def imported_modules(*args):
    """tlblob modules that ``python -X importtime -m tlblob *args`` loads."""
    return {m for m in loaded_modules(*args) if "tlblob" in m}


BASE = {"tlblob", "tlblob._json", "tlblob._record", "tlblob.cli",
        "tlblob.words"}


@pytest.mark.parametrize("argv,extra", [
    # No walks, faithful or rank: the relations and the table are the proof.
    # No diagrams: the table is the search's words on partner arrays.  No
    # codes or certificate: nothing is coded and no rank is certified.
    (["verify-blob", "--n", "3", "--m", "2"],
     {"tlblob.blobrep", "tlblob.rings", "tlblob.tensorrep"}),
    # No walks or diagrams: the blob basis words come from words.
    (["certify-rho0", "--n", "2", "--m", "1"],
     {"tlblob.certificate", "tlblob.codes", "tlblob.faithful", "tlblob.rank",
      "tlblob.rings", "tlblob.tensorrep"}),
    # No blob structure-constant proof, and no diagrams: the composition
    # proof checks the words' partner arrays.  No faithful either: the
    # pass builds no word chain and eliminates nothing.  No rings,
    # tensorrep or rank: R(D) is built as codes and the witness's minor is
    # triangular, so no element, full matrix or elimination is made.
    (["verify-tl", "--n", "3"],
     {"tlblob.certificate", "tlblob.codes", "tlblob.tlcert", "tlblob.walks"}),
])
def test_certificate_commands_load_only_their_modules(argv, extra):
    assert imported_modules(*argv) == BASE | extra


@pytest.mark.parametrize("argv", [
    ["verify-tl", "--n", "3"],
    ["verify-blob", "--n", "3", "--m", "2"],
    ["certify-rho0", "--n", "3", "--m", "1"],
    ["certify-rho0", "--n", "2", "--m", "-1"],
])
def test_certificate_commands_never_load_argparse(argv):
    # cli parses a well-formed command line itself; argparse, with gettext
    # behind it, loads only for help, --version and usage errors.
    assert not {"argparse", "gettext"} & loaded_modules(*argv)


@pytest.mark.parametrize("argv", [
    ["verify-tl", "--n", "3"],
    ["verify-blob", "--n", "3", "--m", "2"],
    ["certify-rho0", "--n", "3", "--m", "1"],
])
def test_certificate_commands_never_load_json(argv):
    # _json.dumps_canonical writes the JSON itself.
    assert not {m for m in loaded_modules(*argv)
                if m in ("json", "_json") or m.startswith("json.")}


@pytest.mark.parametrize("argv", [
    ["certify-rho0", "--n", "3", "--m", "1"],
    ["certify-rho0", "--n", "2", "--m", "-1"],
    ["verify-blob", "--n", "3", "--m", "1"],
    ["verify-blob", "--n", "1", "--m", "2"],
])
def test_mirror_and_blob_commands_leave_tlcert_unloaded(argv):
    code = ("import contextlib, io, sys\n"
            "from tlblob.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(sys.argv[1:])\n"
            "print(status, sorted({'tlblob.tlcert', 'tlblob.reference'}"
            " & set(sys.modules)))\n")
    assert run_python(code, *argv) == "0 []\n"


# Definitions moved off the modules ``certify-rho0`` loads, and
# ``format_word`` next to ``GenWord``: (old module, new home, names).
MOVED = [
    ("tlblob.faithful", "tlblob.tlcert",
     ("TriangularityReport", "verify_tl", "_triangularity", "_is_walk")),
    # The word chain's build, off ``verify-tl``'s path.
    ("tlblob.tlcert", "tlblob.reference", ("_pair_word_vectors",)),
    ("tlblob.rank", "tlblob.reference",
     ("rank_exact", "rank_modular", "_row_cleanup")),
    ("tlblob.cli", "tlblob.reference",
     ("_load_diagram", "_cmd_enumerate", "_cmd_compose", "_cmd_rmatrix",
      "_cmd_walkword", "_cmd_lattice")),
    ("tlblob.reference", "tlblob.words", ("format_word",)),
    # The chain-tracing composition, next to the diagrams it composes.
    ("tlblob.reference", "tlblob.diagrams", ("_trace_concatenation",)),
    # The unit-code kernel, the certificate record and the JSON writer,
    # off the modules ``verify-tl`` never calls.  ``rank`` imports the
    # prime and the points from ``certificate``; ``rings`` forwards
    # ``dumps_canonical`` (SPLIT).
    ("tlblob.rings", "tlblob.codes", ("_unit_code",)),
    ("tlblob.tensorrep", "tlblob.codes",
     ("seq_to_index", "index_to_seq", "SummandCollision", "CodedMatrix",
      "_r_entries", "r_matrix_codes")),
    ("tlblob.rank", "tlblob.certificate",
     ("FaithfulnessCertificate", "_modular_eighth_root")),
    ("tlblob.rings", "tlblob._json",
     ("dumps_canonical", "_json", "_json_string", "_json_char")),
]


@pytest.mark.parametrize("old_name,home_name,names", MOVED)
def test_moved_names_resolve_from_their_new_home(old_name, home_name, names):
    old = importlib.import_module(old_name)
    home = importlib.import_module(home_name)
    for name in names:
        obj = vars(home)[name]
        assert obj.__module__ == home_name, name
        assert name not in vars(old), name
        if name in EXPORTED:
            assert getattr(tlblob, name) is obj, name


# perfbench/traced.py span calls (nonzero only) and counts, recorded before
# the per-command split; the split must not hide a call from the tracer.
TRACED_CASES = [
    # The pass over R(D) checks no relation on the letter images.
    (["verify-tl", "--n", "3"],
     {"walks.pair_word": 5, "walks.enumerate_pairs": 1,
      "cli.dumps_canonical": 1},
     {"rings.rank_exact.nnz_in": 0, "tensorrep.SparseRepMatrix.mul.nnz_out": 0,
      "cli.output_bytes": 348}),
    # The mirror certificate checks the blob relations on its images.
    (["certify-rho0", "--n", "2", "--m", "1"],
     {"tensorrep.SparseRepMatrix.mul": 5, "faithful.certify_mirror": 1,
      "words.verify_presentation": 1, "cli.dumps_canonical": 1},
     {"rings.rank_exact.nnz_in": 0, "tensorrep.SparseRepMatrix.mul.nnz_out": 52,
      "cli.output_bytes": 331}),
    (["verify-blob", "--n", "2", "--m", "2"],
     {"tensorrep.SparseRepMatrix.mul": 5,
      "words.verify_presentation": 1, "cli.dumps_canonical": 1},
     {"rings.rank_exact.nnz_in": 0, "tensorrep.SparseRepMatrix.mul.nnz_out": 68,
      "cli.output_bytes": 322}),
]


@pytest.mark.parametrize("argv,calls,counts", TRACED_CASES)
def test_traced_spans_see_every_layer(tmp_path, argv, calls, counts):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, TRACED, "--spans", str(tmp_path / "spans.json"), "--",
         *argv, "--seed", "7", "--jobs", "1"],
        env=env, check=True, capture_output=True, text=True)
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["exit"] == 0
    assert {name: span["calls"] for name, span in summary["spans"].items()
            if span["calls"]} == calls
    assert summary["counts"] == counts


def test_traced_spans_see_both_proof_fallbacks():
    # The fallbacks run on no benchmark workload; the tracer must still see
    # them, so each is called through the module its span names.
    code = """
import importlib.util, json, sys
import tlblob.cli

spec = importlib.util.spec_from_file_location("traced", sys.argv[1])
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)
tracer = traced.Tracer()
tracer.install()

from tlblob import blobrep, faithful, reference
from tlblob.rings import BlobParams
from tlblob.tensorrep import Rho0Config, rho0

_, _, vectors = reference._pair_word_vectors(3)
rank = faithful._certified_rank(vectors + [vectors[0]], 7)
images = rho0(Rho0Config(2, 1)).letter_images()
two = next(iter(images["e"].entries.values())).from_int(2)
images["e"] = images["e"].scalar_mul(two)
report = blobrep.prove_blob_representation(
    images, 2, BlobParams.integral_form(1, cyclo=True))
spans = tracer.summary()
print(json.dumps({"rank": rank, "ok": report.ok,
                  "rank_exact": spans["rings.rank_exact"]["calls"],
                  "sweep": spans["faithful.verify_blob_representation"]["calls"]}))
"""
    assert json.loads(run_python(code, TRACED)) == {
        "rank": [5, "exact", None], "ok": False, "rank_exact": 1, "sweep": 1}
