"""CLI stdout must stay byte-identical to the recorded golden outputs.

``tests/golden/cli_outputs.json`` maps each command line below to its exit
code and full stdout.  Refactors of the ring and kernel layers must not move
a single byte of it.  To record the file afresh from the current tree (only
when an output change is intended), run::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

from tlblob.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_outputs.json")
SEED = "11"

COMMANDS = (
    [f"verify-blob --n {n} --m {m}" for n in (1, 2, 3) for m in (1, 2, 3)]
    + [f"certify-rho0 --n {n} --m {m}" for n in (1, 2, 3) for m in (1, 2)]
    + [f"verify-tl --n {n}" for n in range(7)]
    + ["verify-blob --n 4 --m 1"]
    + ["rmatrix --n 3 --u 1", "rmatrix --n 4 --u 0 --convention shifted",
       "lattice --n 4"]
)


def run_cli(command):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(command.split() + ["--seed", SEED])
    return {"exit": code, "stdout": buf.getvalue()}


def load_golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_command():
    assert sorted(load_golden()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_is_byte_identical(command):
    assert run_cli(command) == load_golden()[command]


if __name__ == "__main__":
    outputs = {command: run_cli(command) for command in COMMANDS}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stderr.write(f"wrote {len(outputs)} outputs to {GOLDEN}\n")
