"""Command-line front end with JSON output.

Exit codes: 0 for success or a verified claim, 1 for a falsified claim or
invalid certificate, 2 for usage errors or malformed input.  Output is
canonical JSON (sorted keys), so identical flags and seed give identical
bytes; the seed is echoed in every payload that could involve randomness.

Each command handler imports the code it runs, so a command loads only its
own modules.  Beyond the modules every command loads, ``verify-tl`` adds
``faithful``, ``rank``, ``walks`` and ``tlcert``, ``certify-rho0`` only
``faithful`` and ``rank``, and ``verify-blob`` only ``blobrep``.  The
workbench subcommands' handlers live in ``reference``, which no
certificate command loads.  The functions ``perfbench/traced.py`` wraps
are called through their modules (``rings.dumps_canonical(...)``), looked
up when the call runs.
"""

import argparse
import json
import os
import sys

from . import DEFAULT_SEED, __version__


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser(argv):
    """The CLI parser, with options only for the subcommand ``argv`` names.

    Every subcommand is registered with its help, so usage, help and an
    invalid choice read the same; the command is the first word of ``argv``
    without a leading "-" (the top level has no option taking a value).
    Options go to that subcommand only, or to all when it is missing or
    unknown.
    """
    words = [w for w in argv if not w.startswith("-")]
    wanted = words[0] if words and words[0] in _COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="tlblob",
        description="Exact diagram-algebra workbench: enumeration, composition,"
                    " tensor matrices and faithfulness certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        if wanted not in (None, name):
            return None
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the modular rank witness (default %(default)s)")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="accepted for compatibility (N >= 1); every command"
                            " runs in one process, so it changes neither the"
                            " work nor the output")
        return p

    if p := command("enumerate", "list diagrams"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, help="southern node count (default n)")
        p.add_argument("--blob", action="store_true", help="blob diagrams on (n,n)")

    if p := command("compose", "compose two diagram JSON files"):
        p.add_argument("left")
        p.add_argument("right")

    if p := command("rmatrix", "tensor-space matrix of a diagram"):
        p.add_argument("--file", help="diagram JSON file")
        p.add_argument("--n", type=int, help="ambient size for --u")
        p.add_argument("--u", type=int, help="generator index instead of a file")
        p.add_argument("--convention", choices=("standard", "shifted"),
                       default="standard")

    if p := command("walkword", "generator word of a walk pair"):
        p.add_argument("--a", required=True, help="left walk, e.g. 112")
        p.add_argument("--b", required=True, help="right walk, e.g. 121")

    if p := command("lattice", "walk-pair order as JSON edges"):
        p.add_argument("--n", type=int, required=True)

    if p := command("verify-tl", "triangularity, composition identity and rank"):
        p.add_argument("--n", type=int, required=True)

    if p := command("verify-blob", "structure constants of the blob tensor rep"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, default=1, help="weight exponent (default 1)")

    if p := command("certify-rho0", "mirror-mask and rank certificate"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, default=1, help="weight exponent (default 1)")
    return parser


def _workbench(args):
    from .reference import WORKBENCH

    return WORKBENCH[args.command](args)


def _cmd_verify_tl(args):
    from .tlcert import verify_tl

    tri, comp_failures, cert = verify_tl(args.n, seed=args.seed)
    ok = tri.ok and not comp_failures and cert.valid
    payload = {
        "n": args.n,
        "seed": args.seed,
        "triangularity": {
            "ok": tri.ok,
            "failures": len(tri.failures),
            "nonwalk_entries": tri.nonwalk_entries,
        },
        "composition_identity": {
            "ok": not comp_failures,
            "failures": len(comp_failures),
        },
        "certificate": cert.to_json(),
    }
    return payload, ok


def _cmd_verify_blob(args):
    from .blobrep import verify_rho0

    report, flipped_ok = verify_rho0(args.n, args.m)
    payload = {
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "structure_constants": report.to_json(),
        "relations_ok_after_sign_flip": flipped_ok,
    }
    return payload, report.ok


def _cmd_certify_rho0(args):
    from .faithful import certify_rho0

    cert = certify_rho0(args.n, args.m, seed=args.seed)
    payload = {
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "certificate": cert.to_json(),
    }
    return payload, cert.valid


# The workbench handlers live in ``reference``, with the code they run.
_COMMANDS = {
    "enumerate": _workbench,
    "compose": _workbench,
    "rmatrix": _workbench,
    "walkword": _workbench,
    "lattice": _workbench,
    "verify-tl": _cmd_verify_tl,
    "verify-blob": _cmd_verify_blob,
    "certify-rho0": _cmd_certify_rho0,
}


def _check_out(path):
    """Reject an --out path that cannot be a file, before any work is done."""
    if not path:
        raise ValueError("--out needs a file name, got ''")
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path!r}: no directory {parent!r}")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else int(exc.code)
    try:
        if args.out is not None:
            _check_out(args.out)
        payload, ok = _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a falsified claim: never exit 1
        import traceback  # only on this path: it adds to every start-up

        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2
    from . import rings

    text = rings.dumps_canonical(payload)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def run():
    """Process entry of ``python -m tlblob`` and the ``tlblob`` script.

    Runs ``main()`` with the cyclic garbage collector off, then freezes the
    heap so that the collections run at interpreter shutdown skip it, and
    returns the exit code.  In a one-shot command the collector frees
    nothing useful: temporaries go by reference counting, the cyclic
    garbage a command leaves is a constant few hundred objects (mostly the
    argument parser) whatever its size, and each collection walks the
    long-lived basis tables again.  Nothing in tlblob relies on collection:
    it defines no ``__del__``, weakref callback or ``atexit`` handler, and
    ``with`` blocks close its files.  Callers inside a process (tests, the
    benchmark's tracer, library users) call ``main`` and keep their
    collector.
    """
    import gc

    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
