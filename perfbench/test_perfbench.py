"""Fast self-tests of the benchmark, at small sizes.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import CALIBRATE, TRACED, check_output, child_env, deterministic, verdict_fields
from traced import SPANS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = {
    "verify-tl": ["verify-tl", "--n", "3"],
    "certify-rho0": ["certify-rho0", "--n", "2", "--m", "1"],
    "verify-blob": ["verify-blob", "--n", "2", "--m", "2"],
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _traced(args, seed, tmp_path):
    spans = tmp_path / f"spans-{seed}.json"
    out = subprocess.run(
        [sys.executable, TRACED, "--spans", str(spans), "--", *args,
         "--seed", str(seed), "--jobs", "1"],
        capture_output=True, text=True, check=True, env=child_env(), timeout=120,
    ).stdout
    return json.loads(out)


def _untraced(args, seed):
    return subprocess.run(
        [sys.executable, "-m", "tlblob", *args, "--seed", str(seed), "--jobs", "1"],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )


@pytest.mark.parametrize("command", sorted(SMALL))
def test_counts_repeat_across_runs_and_seeds(command, tmp_path):
    first, again, other_seed = (_traced(SMALL[command], seed, tmp_path)
                                for seed in (7, 7, 11))
    assert deterministic(again) == deterministic(first)
    # The output echoes the seed, so only its byte count may follow the seed.
    counts, calls = deterministic(other_seed)
    first_counts, first_calls = deterministic(first)
    assert calls == first_calls
    assert counts.pop("cli.output_bytes") == first_counts.pop("cli.output_bytes") + 1
    assert counts == first_counts
    assert set(first["spans"]) == {name for name, _, _ in SPANS}


@pytest.mark.parametrize("command", sorted(SMALL))
def test_tracing_leaves_output_unchanged(command, tmp_path):
    traced = _traced(SMALL[command], 7, tmp_path)
    plain = _untraced(SMALL[command], 7)
    assert traced["exit"] == plain.returncode == 0
    assert traced["output"] == plain.stdout


def test_rank_spans_follow_the_workload(tmp_path):
    blob = _traced(SMALL["verify-blob"], 7, tmp_path)
    rho0 = _traced(SMALL["certify-rho0"], 7, tmp_path)
    assert blob["spans"]["rings.rank_exact"]["calls"] == 0
    assert blob["counts"]["rings.rank_exact.nnz_in"] == 0
    assert rho0["spans"]["rings.rank_exact"]["calls"] == 1
    assert rho0["counts"]["rings.rank_exact.nnz_in"] > 0
    # Patching only tlblob.rings would leave faithful's own binding untraced.
    assert rho0["spans"]["diagrams.compose_blob"]["calls"] > 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["faithful.certify_mirror", 0.0, 10.0, -1],
        ["faithful.rep_word_matrix", 1.0, 4.0, 0],
        ["tensorrep.SparseRepMatrix.mul", 1.5, 3.5, 1],
        ["rings.rank_exact", 5.0, 9.0, 0],
    ]
    summary = tracer.summary()
    assert summary["faithful.certify_mirror"] == {"total_s": 10.0, "self_s": 3.0, "calls": 1}
    assert summary["faithful.rep_word_matrix"]["self_s"] == 1.0
    assert summary["rings.rank_exact"]["self_s"] == 4.0
    assert summary["walks.pair_word"]["calls"] == 0


def test_verdict_check_ignores_new_fields_but_not_changed_ones():
    payload = {"seed": 7, "certificate": {
        "rank": 20, "basis_size": 20, "valid": True,
        "mask_checks": [{"name": "e", "ok": True}]}}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ref = {"seed": 7, "exit": 0, "output": text, "verdict": verdict_fields(payload)}
    assert ref["verdict"]["certificate.mask_checks.e.ok"] is True
    assert check_output(ref, 7, 0, text) == (True, True)

    payload["certificate"]["witness"] = {"ok": True, "p": 998244353}
    assert check_output(ref, 7, 0, json.dumps(payload)) == (True, False)
    payload["certificate"]["rank"] = 19
    assert check_output(ref, 7, 0, json.dumps(payload))[0] is False
    assert check_output(ref, 7, 1, text)[0] is False
    assert check_output(ref, 7, 0, "Traceback")[0] is False


def test_calibration_computes_its_checksum():
    proc = subprocess.run([sys.executable, CALIBRATE], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rho0-cert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
