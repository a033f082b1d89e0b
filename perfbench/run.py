"""Benchmark of tlblob's certificate commands, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload tl-sweep --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the workload's CLI command runs as a fresh
``python -m tlblob ... --jobs 1`` process, one at a time in a closed loop
from this single process, until ``--seconds`` have passed.  The
metrics are the median wall time per command, the median peak RSS of each
command's own process (from ``os.wait4``) and the median wall time of a
fresh ``import tlblob.cli``, which every command pays.  Times are scaled to
a reference host speed measured by ``calibrate.py`` around each command.

With ``--trace 1`` untraced commands alternate with traced ones
(``traced.py``: same command, same inputs, spans around each layer) for
``--seconds``; the metrics are the per-layer medians, deterministic counts,
ring micro-op timings on fixed operands, and the tracing overhead.

Every command's verdict fields are checked against ``reference.json``
(captured by ``capture_reference.py``).  A command fails when its exit code
or any reference verdict field differs; byte identity of the whole output is
recorded as information only.  The last line of stdout is the JSON result;
the line before it is a report with the run metadata, which is also written
to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")
TRACED = os.path.join(HERE, "traced.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")

# Workload name -> CLI arguments (cli_argv adds --seed and --jobs 1).  The
# sizes keep one command at about 3 s or less, so that each run holds enough
# commands for a steady median; README.md says why each workload was chosen.
WORKLOADS = {
    # Integer-Laurent path: composition sweep, Laurent rank, walk sweep.
    "tl-sweep": ["verify-tl", "--n", "5"],
    # Cyclotomic rank_exact dominates; word-matrix build and modular screen.
    "rho0-cert": ["certify-rho0", "--n", "3", "--m", "1"],
    # Cyclotomic products and equality tests, no rank function at all.
    "blob-structure": ["verify-blob", "--n", "3", "--m", "2"],
}

SETUP_PROBES = 9

# Verdict fields: keys anywhere in the output payload, plus each mask
# check's ``ok``.  Fields a later version adds are not compared.
VERDICT_KEYS = {"valid", "ok", "rank", "basis_size", "failures", "residuals",
                "relations_ok_after_sign_flip"}


def verdict_fields(payload, prefix=""):
    """Flatten the verdict fields of a CLI payload to {dotted path: value}."""
    out = {}
    for key, value in payload.items():
        path = prefix + key
        if key == "mask_checks":
            for check in value:
                out[f"{path}.{check['name']}.ok"] = check["ok"]
        elif isinstance(value, dict):
            out.update(verdict_fields(value, path + "."))
        elif key in VERDICT_KEYS:
            out[path] = value
    return out


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run one process to completion: (wall s, peak RSS MiB, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out.decode("utf-8")


def cli_argv(workload, seed):
    return [*WORKLOADS[workload], "--seed", str(seed), "--jobs", "1"]


def check_output(ref, seed, exit_code, text):
    """(verdict matches, output byte-identical to the reference)."""
    expected = ref["output"].replace(f'"seed":{ref["seed"]}', f'"seed":{seed}', 1)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return False, False
    got = verdict_fields(payload) if isinstance(payload, dict) else {}
    ok = exit_code == ref["exit"] and all(
        path in got and got[path] == value for path, value in ref["verdict"].items())
    return ok, text == expected


def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return {"percentile": round(100.0 * k / len(ordered), 1), "value": ordered[k - 1],
            "samples": len(ordered)}


def metadata(seed):
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "loadavg_1m_start": os.getloadavg()[0]}


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    """Commands attempted and failed, with per-command verdict bookkeeping."""

    def __init__(self, ref, seed):
        self.ref, self.seed = ref, seed
        self.attempted = self.failed = self.identical = 0

    def record(self, exit_code, text, extra_ok=True):
        ok, identical = check_output(self.ref, self.seed, exit_code, text)
        self.attempted += 1
        self.failed += not (ok and extra_ok)
        self.identical += identical


def calibration_time(python, env):
    wall, _, code, _ = run_child([python, CALIBRATE], env)
    if code != 0:
        raise RuntimeError("calibrate.py computed a wrong checksum")
    return wall


def run_untraced(args, python, env, tally):
    """Closed loop of commands; times are scaled to the reference host speed.

    The host flips between speed states within seconds, so every command and
    set-up probe sits between two runs of calibrate.py and is scaled by
    REFERENCE_S over their mean before the median is taken.
    """
    argv = [python, "-m", "tlblob", *cli_argv(args.workload, args.seed)]
    probe = [python, "-c", "import tlblob.cli"]
    run_child(probe, env)  # fill the bytecode cache
    raw_walls, raw_setup, walls, setup, rss = [], [], [], [], []
    calibration = [calibration_time(python, env)]
    start = time.perf_counter()
    deadline = start + args.seconds
    while not walls or time.perf_counter() < deadline or len(setup) < SETUP_PROBES:
        # Spread the set-up probes evenly over the run.
        elapsed = (time.perf_counter() - start) / args.seconds
        probe_wall = None
        if len(setup) < min(SETUP_PROBES, 1 + int(elapsed * SETUP_PROBES)):
            probe_wall = run_child(probe, env)[0]
        wall = None
        if not walls or time.perf_counter() < deadline:
            wall, peak, code, out = run_child(argv, env)
            tally.record(code, out)
        calibration.append(calibration_time(python, env))
        speed = 2 * REFERENCE_S / (calibration[-2] + calibration[-1])
        if probe_wall is not None:
            raw_setup.append(probe_wall)
            setup.append(probe_wall * speed)
        if wall is not None:
            raw_walls.append(wall)
            walls.append(wall * speed)
            rss.append(peak)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MiB"),
    }
    report = {"wall_s_samples": walls, "wall_s_tail": tail_percentile(walls),
              "raw_wall_s": statistics.median(raw_walls), "raw_wall_s_samples": raw_walls,
              "raw_setup_s": statistics.median(raw_setup), "raw_setup_s_samples": raw_setup,
              "calibration_s_samples": calibration, "peak_rss_mb_max": max(rss)}
    return metrics, report


def ring_micro_ops():
    """Median microseconds per ring operation on fixed operands."""
    sys.path.insert(0, os.path.abspath("src"))
    from tlblob.rings import CycloInt, CycloLaurent, quantum_integer

    q5, q4 = quantum_integer(5), quantum_integer(4)
    c5, c4 = CycloLaurent.from_laurent(q5), CycloLaurent.from_laurent(q4)
    mono_a = CycloLaurent({1: CycloInt.a_power(5)})
    mono_b = CycloLaurent({-3: CycloInt.a_power(3)})
    unit = CycloLaurent({2: CycloInt.a_power(3)})
    product = c5 * unit
    ops = {
        "rings.laurent_mul_us": (lambda: q5 * q4, 2000),
        "rings.cyclo_mul_us": (lambda: c5 * c4, 200),
        "rings.cyclo_monomial_mul_us": (lambda: mono_a * mono_b, 2000),
        "rings.cyclo_divexact_unit_us": (lambda: product.divexact(unit), 200),
    }
    if product.divexact(unit) != c5:
        raise RuntimeError("cyclo divexact micro-op gives a wrong quotient")
    out = {}
    for name, (fn, number) in ops.items():
        times = timeit.Timer(fn).repeat(repeat=7, number=number)
        out[name] = metric(statistics.median(times) / number * 1e6, "us")
    return out


def run_traced(args, python, env, tally):
    untraced_argv = [python, "-m", "tlblob", *cli_argv(args.workload, args.seed)]
    spans_file = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json")
    traced_argv = [python, TRACED, "--spans", spans_file, "--",
                   *cli_argv(args.workload, args.seed)]
    metrics = ring_micro_ops()
    untraced, traced, summaries = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        wall, _, code, out = run_child(untraced_argv, env)
        tally.record(code, out)
        untraced.append(wall)
        wall, _, code, out = run_child(traced_argv, env)
        traced.append(wall)
        try:
            summary = json.loads(out)
        except json.JSONDecodeError:
            tally.attempted += 1
            tally.failed += 1
            continue
        # Counts and calls must repeat exactly from one traced command to the next.
        same = not summaries or deterministic(summary) == deterministic(summaries[0])
        tally.record(summary["exit"], summary["output"], code == 0 and same)
        summaries.append(summary)
    if not summaries:
        raise RuntimeError("no traced command produced spans; see its stderr above")
    first = summaries[0]
    for name in first["spans"]:
        for field in ("total_s", "self_s"):
            values = [s["spans"][name][field] for s in summaries]
            metrics[f"{name}.{field}"] = metric(statistics.median(values), "s")
        metrics[f"{name}.calls"] = metric(first["spans"][name]["calls"], "count")
    for name, value in first["counts"].items():
        metrics[name] = metric(value, "bytes" if name == "cli.output_bytes" else "count")
    metrics["trace.wall_s"] = metric(statistics.median(traced), "s")
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced) - statistics.median(untraced), "s")
    report = {"traced_commands": len(traced), "untraced_commands": len(untraced),
              "traced_wall_s_samples": traced, "untraced_wall_s_samples": untraced,
              "spans_file": os.path.relpath(spans_file)}
    return metrics, report


def deterministic(summary):
    return summary["counts"], {k: v["calls"] for k, v in summary["spans"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="tlblob certificate benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "tlblob", "cli.py")):
        print("error: run from the repository root; src/tlblob is missing", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)[args.workload]
    if ref["argv"] != WORKLOADS[args.workload]:
        print(f"error: reference.json is stale for {args.workload}; "
              "re-run perfbench/capture_reference.py", file=sys.stderr)
        return 2

    meta = metadata(args.seed)
    python, env = sys.executable, child_env()
    tally = Tally(ref, args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    if args.trace:
        metrics, report = run_traced(args, python, env, tally)
    else:
        metrics, report = run_untraced(args, python, env, tally)
    meta["loadavg_1m_end"] = os.getloadavg()[0]

    report.update(workload=args.workload, command=["python", "-m", "tlblob",
                  *cli_argv(args.workload, args.seed)], seconds=args.seconds,
                  trace=args.trace, meta=meta, attempted=tally.attempted,
                  failed=tally.failed, failed_frac=tally.failed / max(tally.attempted, 1),
                  byte_identical=tally.identical)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
