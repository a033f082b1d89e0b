import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tlblob.cli import _COMMON, _SUBCOMMANDS, _build_parser, _parse_fast, main
from tlblob.diagrams import generator_u, identity
from tlblob.reference import diagram_to_json, matrix_to_json
from tlblob.tensorrep import r_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_verify_tl(self, capsys):
        code, out = run(capsys, "verify-tl", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["rank"] == 5
        assert payload["certificate"]["valid"]
        assert payload["triangularity"]["ok"]
        assert payload["composition_identity"]["ok"]
        assert payload["seed"] == 7

    def test_verify_tl_deterministic(self, capsys):
        _, first = run(capsys, "verify-tl", "--n", "2")
        _, second = run(capsys, "verify-tl", "--n", "2")
        assert first == second

    def test_verify_tl_jobs(self, capsys):
        code1, serial = run(capsys, "verify-tl", "--n", "3")
        code2, parallel = run(capsys, "verify-tl", "--n", "3", "--jobs", "2")
        assert code1 == code2 == 0
        assert serial == parallel

    def test_verify_blob(self, capsys):
        code, out = run(capsys, "verify-blob", "--n", "2", "--m", "2")
        assert code == 0
        payload = json.loads(out)
        sc = payload["structure_constants"]
        assert sc["ok"] and sc["residuals"] == 0 and sc["sign_normalized"]
        assert "empirical_scalars" in sc and "expected_scalars" in sc
        assert payload["relations_ok_after_sign_flip"]

    def test_certify_rho0(self, capsys):
        code, out = run(capsys, "certify-rho0", "--n", "2", "--m", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["valid"]
        assert payload["certificate"]["rank"] == 6


class TestEnumerate:
    def test_blob_count(self, capsys):
        code, out = run(capsys, "enumerate", "--blob", "--n", "3")
        assert code == 0
        assert json.loads(out)["count"] == 20

    def test_rectangular(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "2", "--m", "4")
        assert code == 0
        assert json.loads(out)["count"] == 5

    def test_missing_n_is_usage_error(self, capsys):
        assert main(["enumerate"]) == 2


class TestCompose:
    def test_compose_files(self, capsys, tmp_path):
        left = tmp_path / "left.json"
        right = tmp_path / "right.json"
        left.write_text(json.dumps(diagram_to_json(generator_u(1, 2))))
        right.write_text(json.dumps(diagram_to_json(generator_u(1, 2))))
        code, out = run(capsys, "compose", str(left), str(right))
        assert code == 0
        payload = json.loads(out)
        assert payload["plain_loops"] == 1
        assert payload["diagram"]["pairs"] == [["t1", "t2"], ["b1", "b2"]]

    def test_mismatched_sizes_exit_2(self, capsys, tmp_path):
        left = tmp_path / "left.json"
        right = tmp_path / "right.json"
        left.write_text(json.dumps(diagram_to_json(identity(2))))
        right.write_text(json.dumps(diagram_to_json(identity(3))))
        assert main(["compose", str(left), str(right)]) == 2

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(diagram_to_json(identity(2))))
        assert main(["compose", str(bad), str(good)]) == 2

    @pytest.mark.parametrize("obj", [
        {"n": 2.9, "m": 2.7, "pairs": [["t1", "b1"], ["t2", "b2"]]},
        {"n": True, "m": 1, "pairs": [["t1", "b1"]]},
        {"n": "1", "m": 1, "pairs": [["t1", "b1"]]},
        {"n": 1, "m": 1, "pairs": [["t1", "b1"]],
         "blobs": [["t1", "b1"], ["b1", "t1"]]},
    ])
    def test_malformed_diagram_exit_2(self, capsys, tmp_path, obj):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["compose", str(bad), str(bad)]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_file_exit_2(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(diagram_to_json(identity(2))))
        assert main(["compose", str(tmp_path / "absent.json"), str(good)]) == 2

    @pytest.mark.parametrize("text,why", [
        ("{not json", "Expecting property name"),
        (json.dumps({"n": 1, "m": 1, "pairs": [["t1", "t1"]]}), "fixed point"),
        (json.dumps({"n": 1, "m": 1, "pairs": "ab"}), "not enough values"),
    ], ids=["json", "fixed-point", "unpack"])
    def test_malformed_file_is_named(self, capsys, tmp_path, text, why):
        # With two files, the error says which one is malformed.
        good = tmp_path / "good.json"
        good.write_text(json.dumps(diagram_to_json(identity(1))))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for argv in (["compose", str(good), str(bad)],
                     ["rmatrix", "--file", str(bad)]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {bad} does not hold a diagram: ")
            assert why in err and str(good) not in err


class TestSmallCommands:
    def test_walkword(self, capsys):
        code, out = run(capsys, "walkword", "--a", "112", "--b", "121")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == "u2 u1"
        assert payload["loop_free"]

    def test_walkword_bad_pair(self, capsys):
        assert main(["walkword", "--a", "11", "--b", "12"]) == 2

    def test_lattice(self, capsys):
        code, out = run(capsys, "lattice", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["edges"] == [[0, 1]]
        assert len(payload["pairs"]) == 2

    def test_rmatrix_generator(self, capsys):
        code, out = run(capsys, "rmatrix", "--n", "2", "--u", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == json.loads(json.dumps(
            matrix_to_json(r_matrix(generator_u(1, 2)))))

    def test_rmatrix_file(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(diagram_to_json(identity(2))))
        code, out = run(capsys, "rmatrix", "--file", str(path))
        assert code == 0
        assert len(json.loads(out)["matrix"]["entries"]) == 4

    @pytest.mark.parametrize("blobs", [[], [["t1", "t2"]]])
    def test_rmatrix_blob_diagram_is_usage_error(self, capsys, tmp_path, blobs):
        path = tmp_path / "blob.json"
        path.write_text(json.dumps({"n": 2, "m": 2, "pairs": [["t1", "t2"], ["b1", "b2"]],
                                    "blobs": blobs}))
        code = main(["rmatrix", "--file", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "rmatrix takes a plain diagram" in err
        assert "Traceback" not in err and "unexpected" not in err

    def test_rmatrix_without_input_is_error(self, capsys):
        assert main(["rmatrix"]) == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["enumerate", "--n", "2", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["count"] == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


class TestUsageErrors:
    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        assert main(["verify-tl", "--n", "2", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_negative_n_is_usage_error(self, capsys):
        assert main(["verify-tl", "--n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "-2"],
        ["enumerate", "--n", "2", "--m", "-2"],
        ["enumerate", "--blob", "--n", "-1"],
        ["lattice", "--n", "-1"],
    ])
    def test_negative_enumeration_size_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("argv,n", [
        (["verify-blob", "--n", "0"], 0),
        (["certify-rho0", "--n", "-1"], -1),
        (["certify-rho0", "--n", "0", "--m", "2"], 0),
    ])
    def test_rho0_size_below_one_is_usage_error(self, capsys, argv, n):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n must be >= 1, got {n}\n"

    @pytest.mark.parametrize("argv", [
        ["rmatrix", "--n", "-2", "--u", "1"],
        ["rmatrix", "--n", "-2", "--u", "0", "--convention", "shifted"],
    ])
    def test_rmatrix_negative_size_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 0, got -2\n"

    @pytest.mark.parametrize("argv,n", [
        (["rmatrix", "--n", "0", "--u", "0"], 0),
        (["rmatrix", "--n", "1", "--u", "1"], 1),
        (["rmatrix", "--n", "0", "--u", "0", "--convention", "shifted"], 0),
    ])
    def test_rmatrix_size_without_generators_is_usage_error(self, capsys, argv, n):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n = {n} has no generators: they need n >= 2\n"

    @pytest.mark.parametrize("text", ["１２", "١٢", "1 2", "1x2", "13"])
    def test_walk_text_other_than_ascii_1_2_is_usage_error(self, capsys, text):
        assert main(["walkword", "--a", text, "--b", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: a walk is written with the steps 1 and 2, got {text!r}\n"

    def test_empty_label_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "m": 2, "pairs": [["", "b1"], ["t2", "b2"]]}))
        assert main(["compose", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unexpected_exception_exit_2(self, capsys, monkeypatch):
        import tlblob.cli as cli

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "lattice", boom)
        assert main(["lattice", "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unexpected RuntimeError: boom\n")
        assert "Traceback" in err

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_rejected_before_the_command(
            self, capsys, monkeypatch, tmp_path, where):
        import tlblob.cli as cli

        ran = []
        monkeypatch.setitem(cli._COMMANDS, "verify-tl",
                            lambda args: ran.append(args) or ({}, True))
        out = tmp_path / "missing" / "x" if where == "missing directory" \
            else tmp_path
        assert main(["verify-tl", "--n", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert ran == []

    def test_empty_out_is_rejected_before_the_command(self, capsys,
                                                      monkeypatch):
        import tlblob.cli as cli

        assert main(["verify-tl", "--n", "2", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out needs a file name, got ''\n"
        ran = []
        monkeypatch.setitem(cli._COMMANDS, "verify-tl",
                            lambda args: ran.append(args) or ({}, True))
        assert main(["verify-tl", "--n", "2", "--out", ""]) == 2
        assert ran == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that fails every write")
    def test_failed_write_is_error_exit_2(self, capsys):
        assert main(["verify-tl", "--n", "2", "--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestFullParserFallback:
    """``main`` returns the full parser's exit code and output.

    Each command line here is one that ``_parse_fast`` declines, so
    ``main`` hands it to ``_build_parser()``: its exit code and printed
    bytes are argparse's, and a form only argparse reads (``--n=3``, an
    abbreviated option) gives what its spelled-out form gives.
    """

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["--version"],
        ["bogus"],
        ["verify-tl"],
        ["verify-tl", "--n", "x"],
        ["verify-tl", "--n", "3", "--bogus"],
        ["verify-tl", "--help"],
        ["certify-rho0", "--help"],
        ["rmatrix", "--n", "3", "--u", "1", "--convention", "x"],
        # Declined by the fast path, so argparse reports them.
        ["verify-tl", "--n", "3", "--m", "1"],
        ["certify-rho0", "--n", "3", "--jobs", "0"],
        ["certify-rho0", "--n", "3", "--out", "-h"],
    ])
    def test_matches_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        full = (exc.value.code or 0, capsys.readouterr())
        assert (main(argv), capsys.readouterr()) == full

    @pytest.mark.parametrize("argv,same", [
        (["verify-tl", "--n=3"], ["verify-tl", "--n", "3"]),
        (["verify-tl", "--n", "3", "--se", "7"],
         ["verify-tl", "--n", "3", "--seed", "7"]),
    ])
    def test_forms_only_argparse_reads(self, capsys, argv, same):
        assert _parse_fast(argv) is None
        assert run(capsys, *argv) == run(capsys, *same)


# Tokens for command lines the fast path must parse as argparse does, or
# decline: every subcommand's arguments, forms only argparse reads, and
# values that argparse and int() read in their own ways.
ARGUMENTS = sorted({*_COMMON, *(a for _, options in _SUBCOMMANDS.values()
                                for a in options)})
OTHER_TOKENS = ["-h", "--help", "--version", "--n=3", "--se", "--co", "--"]
VALUES = ["3", "-1", "-", "-x", "1_0", " 3", "\u0663", "\u00b2", "", "1.5",
          "0", "shifted"]


@st.composite
def command_lines(draw):
    """A first word, its required options and some of its others in any
    order, each with a value, then sometimes any tokens."""
    first = draw(st.sampled_from([*_SUBCOMMANDS, "bogus", *OTHER_TOKENS]))
    own = {**_COMMON, **_SUBCOMMANDS.get(first, ("", {}))[1]}
    value = st.sampled_from(VALUES) | st.just("2")
    pairs = [(a, draw(value)) for a, keywords in own.items() if keywords.get("required")]
    pairs += draw(st.lists(st.tuples(st.sampled_from(list(own)), value), max_size=3))
    other = st.lists(st.sampled_from(ARGUMENTS + OTHER_TOKENS + VALUES),
                     min_size=1, max_size=3)
    tail = draw(st.just([]) | other)
    return [first, *(t for p in draw(st.permutations(pairs)) for t in p), *tail]


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_fast_path_parses_as_argparse_or_declines(argv):
    fast = _parse_fast(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            full = vars(_build_parser().parse_args(argv))
    except SystemExit:
        assert fast is None
    else:
        assert fast is None or vars(fast) == full


@pytest.mark.parametrize("argv", [
    ["verify-tl", "--n", "5"],
    ["verify-blob", "--n", "3", "--m", "2", "--seed", "11", "--jobs", "2"],
    ["certify-rho0", "--n", "3", "--m", "-1", "--out", "cert.json"],
    ["enumerate", "--n", "3"],
    ["rmatrix", "--n", "2", "--u", "1", "--convention", "shifted"],
    ["walkword", "--b", "12", "--a", "12", "--a", "112"],
])
def test_fast_path_takes_well_formed_command_lines(argv):
    assert vars(_parse_fast(argv)) == vars(_build_parser().parse_args(argv))


class TestWitnessOutput:
    @pytest.mark.parametrize("argv,family", [
        (["verify-tl", "--n", "3"], "tl"),
        (["certify-rho0", "--n", "2", "--m", "2"], "rho0"),
    ])
    def test_emitted_witness_rechecks(self, capsys, argv, family):
        from tlblob.faithful import rep_word_matrix, tl_word_matrix
        from tlblob.rank import check_full_rank_witness
        from tlblob.tensorrep import Rho0Config, rho0
        from tlblob.walks import enumerate_pairs, pair_word
        from tlblob.words import blob_basis_words

        code, out = run(capsys, *argv, "--seed", "11")
        assert code == 0
        _, again = run(capsys, *argv, "--seed", "11")
        assert again == out
        cert = json.loads(out)["certificate"]
        assert cert["method"] == "modular-witness"
        if family == "tl":
            vectors = [tl_word_matrix(pair_word(p)).flatten() for p in enumerate_pairs(3)]
        else:
            images = rho0(Rho0Config(2, 2)).letter_images()
            vectors = [rep_word_matrix(w, images, 4, "cyclo").flatten()
                       for w in blob_basis_words(2).values()]
        assert check_full_rank_witness(vectors, cert["witness"])


def test_import_skips_slow_stdlib_modules():
    # dataclasses (with inspect, ast and dis) and fractions cost more to
    # import than a small certificate takes to compute; -S keeps site hooks
    # from importing them on their own.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    # argparse (with gettext) and json load only when a command needs them.
    code = "import sys, tlblob.cli; print(sorted({'dataclasses', 'inspect', " \
        "'fractions', 'argparse', 'gettext', 'json'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
