"""Capture the reference verdict of every benchmark workload.

Usage, from the repository root:

    python3 perfbench/capture_reference.py

Runs each workload's command once with ``--seed 7`` and writes its exit
code, verdict fields and full output to ``perfbench/reference.json``.
Re-capture only when a workload's command changes; a verdict must never
change to make the benchmark pass.
"""

from __future__ import annotations

import json
import os
import sys

from run import REFERENCE, WORKLOADS, child_env, cli_argv, run_child, verdict_fields

SEED = 7


def main():
    env = child_env()
    ref = {}
    for workload, args in WORKLOADS.items():
        _, _, code, out = run_child([sys.executable, "-m", "tlblob",
                                     *cli_argv(workload, SEED)], env)
        ref[workload] = {"argv": args, "seed": SEED, "exit": code,
                         "verdict": verdict_fields(json.loads(out)), "output": out}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE)}")


if __name__ == "__main__":
    main()
