"""The process entry ``cli.run`` and the collector it turns off.

``python -m tlblob`` and the ``tlblob`` script run ``cli.run``, which runs
``main`` with the cyclic garbage collector off and freezes the heap before
exit.  That is sound only while a command leaves no cyclic garbage that
grows with its size, and only for the process entry: in-process callers of
``main`` keep their collector as it was.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

from tlblob.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_outputs.json")

# Runs one command in process with the collector off from the start, and
# prints the exit code and the count of cyclic garbage left behind.
LEFTOVER = """
import gc, os, sys
gc.disable()
from tlblob.cli import main
code = main(sys.argv[1:] + ["--out", os.devnull])
print(code, gc.collect())
"""


def python(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True)


def leftover(argv):
    proc = python("-c", LEFTOVER, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    code, garbage = proc.stdout.split()
    assert int(code) == 0
    return int(garbage)


@pytest.mark.parametrize("small,large", [
    ("verify-tl --n 3", "verify-tl --n 7"),
    ("verify-blob --n 2 --m 1", "verify-blob --n 6 --m 1"),
    ("certify-rho0 --n 2 --m 1", "certify-rho0 --n 4 --m 1"),
])
def test_cyclic_garbage_does_not_grow_with_n(small, large):
    assert leftover(small.split()) == leftover(large.split())


def test_main_in_process_keeps_the_collector(capsys):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert main(["verify-tl", "--n", "2"]) == 0
    capsys.readouterr()
    assert gc.isenabled() == enabled
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("command", [
    "verify-tl --n 4", "verify-blob --n 2 --m 1", "certify-rho0 --n 2 --m 1",
])
def test_python_m_prints_the_golden_bytes(command):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        want = json.load(fh)[command]
    proc = python("-m", "tlblob", *command.split(), "--seed", "11")
    assert proc.returncode == want["exit"]
    assert proc.stdout == want["stdout"].encode("utf-8")


def test_python_m_usage_error_exits_2():
    proc = python("-m", "tlblob", "verify-tl")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"--n" in proc.stderr
