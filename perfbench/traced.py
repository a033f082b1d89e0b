"""Run one tlblob CLI command in process with spans around each layer.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/traced.py --spans FILE -- verify-tl --n 5 --seed 7 --jobs 1

The tracer wraps public functions of the package from outside: ``src/`` is
not edited.  A wrapper replaces the function in its defining module and in
every other ``tlblob`` module that bound the same object by ``from .x import
y`` (``faithful`` imports ``rank_exact``, ``compose_tl``, ``r_matrix`` and
others directly, and ``words`` imports ``compose_blob``), since patching the
defining module alone would trace nothing.  Ring-element operators run
millions of times per command and are never wrapped; ``run.py`` times them
on fixed operands instead.

Spans (name, start, end, parent) stay in memory until the command returns;
then they are written to FILE and a summary line is printed: for every span
name its total time (outermost spans only), self time (duration minus the
time covered by its direct children) and call count, plus the deterministic
counts and the CLI's own exit code and output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import sys
import time

# (span name, defining module, attribute path).  The span name keeps the
# layer the call is made from: ``dumps_canonical`` lives in ``rings`` but the
# CLI commands reach it only from ``cli``.
SPANS = (
    ("rings.rank_exact", "tlblob.rings", "rank_exact"),
    ("rings.rank_modular", "tlblob.rings", "rank_modular"),
    ("tensorrep.SparseRepMatrix.mul", "tlblob.tensorrep", "SparseRepMatrix.mul"),
    ("tensorrep.r_matrix", "tlblob.tensorrep", "r_matrix"),
    ("tensorrep.place_local", "tlblob.tensorrep", "place_local"),
    ("tensorrep.rho0", "tlblob.tensorrep", "rho0"),
    ("faithful.rep_word_matrix", "tlblob.faithful", "rep_word_matrix"),
    ("faithful.triangularity_report", "tlblob.faithful", "triangularity_report"),
    ("faithful.verify_r_composition", "tlblob.faithful", "verify_r_composition"),
    ("faithful.verify_tl_faithful", "tlblob.faithful", "verify_tl_faithful"),
    ("faithful.certify_mirror", "tlblob.faithful", "certify_mirror"),
    ("faithful.verify_blob_representation", "tlblob.faithful",
     "verify_blob_representation"),
    ("diagrams.compose_tl", "tlblob.diagrams", "compose_tl"),
    ("diagrams.compose_blob", "tlblob.diagrams", "compose_blob"),
    ("words.blob_basis_words", "tlblob.words", "blob_basis_words"),
    ("words.verify_presentation", "tlblob.words", "verify_presentation"),
    ("walks.pair_word", "tlblob.walks", "pair_word"),
    ("walks.enumerate_pairs", "tlblob.walks", "enumerate_pairs"),
    ("cli.dumps_canonical", "tlblob.rings", "dumps_canonical"),
)


def _nnz_in(args, kwargs, result):
    vectors = args[0] if args else kwargs["vectors"]
    return sum(len(v) for v in vectors)


def _nnz_out(args, kwargs, result):
    return result.nnz()


# Deterministic counts taken at span boundaries: count name -> (span, fn).
COUNTS = {
    "rings.rank_exact.nnz_in": ("rings.rank_exact", _nnz_in),
    "tensorrep.SparseRepMatrix.mul.nnz_out": ("tensorrep.SparseRepMatrix.mul", _nnz_out),
}


class Tracer:
    """Collects spans and counts for one traced command."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)

    def wrap(self, name, fn):
        counters = [(c, f) for c, (span, f) in COUNTS.items() if span == name]
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = start, end
            for count, f in counters:
                counts[count] += f(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every binding of each traced function in the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tlblob" or name.startswith("tlblob."))]
        for name, module_name, attr in SPANS:
            owner = importlib.import_module(module_name)
            *outer, last = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            wrapper = self.wrap(name, original)
            setattr(owner, last, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self):
        """Total, self time and calls per span name, from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"total_s": 0.0, "self_s": 0.0, "calls": 0} for name, _, _ in SPANS}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            # A span nested in one of the same name is already in its total.
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                entry["total_s"] += end - start
        return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="write raw spans here")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import tlblob.cli

    tracer = Tracer()
    tracer.install()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exit_code = tlblob.cli.main(cli_args)
    output = buffer.getvalue()

    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    summary = {
        "exit": exit_code,
        "output": output,
        "spans": tracer.summary(),
        "counts": dict(tracer.counts,
                       **{"cli.output_bytes": len(output.encode("utf-8"))}),
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
