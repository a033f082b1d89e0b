"""The certificate commands never load ``tlblob.reference``, and the
fallbacks that need it still give the same results.  ``import tlblob``
loads no module of the package, each certificate command loads only the
modules it runs (``certify-rho0`` and ``verify-blob`` no ``tlcert``,
``certify-rho0`` no ``rank`` unless its leads prove nothing, ``verify-tl``
no ``words``, ``faithful``, ``rings``, ``tensorrep`` or ``rank``,
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


BASE = {"tlblob", "tlblob._json", "tlblob._record", "tlblob.cli"}


@pytest.mark.parametrize("argv,extra", [
    # No walks, faithful or rank: the relations and the table are the proof.
    # No diagrams: the table is the search's words on partner arrays.  No
    # codes or certificate: nothing is coded and no rank is certified.
    (["verify-blob", "--n", "3", "--m", "2"],
     {"tlblob.blobrep", "tlblob.rings", "tlblob.tensorrep", "tlblob.words"}),
    # No walks or diagrams: the blob basis words come from words.  No
    # rank: the leads are distinct, so the witness's minor is triangular.
    (["certify-rho0", "--n", "2", "--m", "1"],
     {"tlblob.certificate", "tlblob.codes", "tlblob.faithful",
      "tlblob.rings", "tlblob.tensorrep", "tlblob.words"}),
    # No words, diagrams or blob proof: each walk pair's diagram is decoded
    # from the pair, and no word is folded.  No faithful: no word chain is
    # built and nothing is eliminated.  No rings, tensorrep or rank: the
    # lead and the count come from the lines, and the witness's minor is
    # triangular, so no element, matrix or elimination is made.
    (["verify-tl", "--n", "3"],
     {"tlblob.certificate", "tlblob.codes", "tlblob.tlcert", "tlblob.walks"}),
])
def test_certificate_commands_load_only_their_modules(argv, extra):
    assert imported_modules(*argv) == BASE | extra


@pytest.mark.parametrize("n,m", [(n, 1) for n in range(1, 6)] +
                         [(4, m) for m in (-1, 0, 2, 3)])
def test_certify_rho0_loads_no_witness_search(n, m):
    assert "tlblob.rank" not in imported_modules(
        "certify-rho0", "--n", str(n), "--m", str(m))


# A fallback case in a fresh interpreter: the mirror certificate, whether
# tlblob.rank was loaded before and after it, and the full-vector
# certificate of the same inputs.
FALLBACK_CASE = """
import json, sys
from tlblob import faithful, tensorrep, words
from tlblob.rings import CycloLaurent

n, case = int(sys.argv[1]), sys.argv[2]
e, factors = tensorrep._rho0_placed(tensorrep.Rho0Config(n, 1))
basis = words._basis_words(n)
if case == "repeated-lead":  # a word twice: the two vectors share a lead
    basis[-1] = basis[0]
elif case == "summand-collision":  # u1 u1 closes a loop: two summands meet
    basis[-1] = words.GenWord((1, 1), n)
else:  # a doubled e: its entries 2 a^k x^e have no code
    e = tensorrep.Placed(e.support, e.block.scalar_mul(CycloLaurent.from_int(2)))
words._basis_words = lambda size: list(basis)
loaded = ["tlblob.rank" in sys.modules]
cert = faithful.certify_mirror(e, factors, n)
loaded.append("tlblob.rank" in sys.modules)
images = {"e": e}
for i, (x_i, y_i) in factors.items():
    images[i] = tensorrep._window_product(x_i, y_i)
vectors = faithful._word_vectors(basis, images, 2 * n, "cyclo")
rank, method, witness = faithful._certified_rank(vectors, 7, 2 * n)
print(json.dumps({"loaded": loaded, "cert": cert.to_json(),
                  "full": {"rank": rank, "method": method, "witness": witness}}))
"""


@pytest.mark.parametrize("case", ["repeated-lead", "summand-collision",
                                  "no-code"])
def test_mirror_fallback_is_the_full_vectors_and_loads_rank(case):
    out = json.loads(run_python(FALLBACK_CASE, "2", case))
    assert out["loaded"] == [False, True]
    cert, full = out["cert"], out["full"]
    assert {k: cert[k] for k in full} == full
    assert cert["valid"] == (case == "no-code")


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
    ("tlblob.faithful", "tlblob.tlcert", ("TriangularityReport", "verify_tl")),
    # The word chain's build, and the sweep over R(D) with the fold it
    # read D from, off ``verify-tl``'s path: test oracles for its lemmas.
    ("tlblob.tlcert", "tlblob.reference",
     ("_pair_word_vectors", "_triangularity", "_is_walk", "_is_loop_free_tl",
      "_lines", "_walk_pair_codes")),
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
    # The pass checks no relation on the letter images, and it decodes
    # each walk pair's diagram without its word.
    (["verify-tl", "--n", "3"],
     {"walks.enumerate_pairs": 1, "cli.dumps_canonical": 1},
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
