"""Command-line front end with JSON output.

Exit codes: 0 for success or a verified claim, 1 for a falsified claim or
invalid certificate, 2 for usage errors or malformed input.  Output is
canonical JSON (sorted keys), so identical flags and seed give identical
bytes; the seed is echoed in every payload that could involve randomness.

Each command handler imports the code it runs, so a command loads only its
own modules.  Beyond ``cli``, ``_json``, ``_record`` and ``words``, which
every certificate command loads, ``verify-tl`` adds ``tlcert``, ``walks``,
``codes`` and ``certificate``; ``certify-rho0`` ``faithful``, ``rank``,
``certificate``, ``codes``, ``tensorrep`` and ``rings``; and
``verify-blob`` ``blobrep``, ``tensorrep`` and ``rings``.  No certificate
command builds a diagram object, so ``diagrams`` loads only for the
workbench subcommands, whose handlers live in ``reference``, which no
certificate command loads.  No certificate command loads ``json`` either:
``_json.dumps_canonical`` writes the output.  ``_json`` loads with this
module, because ``perfbench/traced.py`` rewrites the bindings only of the
modules loaded when it installs; the writer is called through its module
(``_json.dumps_canonical(...)``), looked up when the call runs.

A well-formed command line, a subcommand followed by ``--option value``
pairs, is parsed by ``_parse_fast`` without argparse.  Any other (help,
``--version``, ``--n=3``, abbreviations, flags, positionals, a value that
its type rejects) goes to the argparse parser of ``_build_parser``, which
registers every subcommand with all its options and prints every usage,
help and error message.  Both read one declaration
table, ``_COMMON`` and ``_SUBCOMMANDS``, and only ``_build_parser`` and a
failing ``--jobs`` import argparse, so a certificate command never loads it.
"""

import os
import sys

from . import DEFAULT_SEED, __version__, _json


def _positive_int(text):
    value = int(text)
    if value < 1:
        from argparse import ArgumentTypeError  # only here: a usage error

        raise ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# The options every subcommand takes, then each subcommand's help and own
# arguments: flag (or positional name) -> its ``add_argument`` keywords.
# Both parsers read this table: ``_build_parser`` passes the keywords to
# argparse, ``_parse_fast`` reads type, choices, required and default
# (so a store_true flag spells out its default False).
_COMMON = {
    "--out": {"help": "write JSON here instead of stdout"},
    "--seed": {"type": int, "default": DEFAULT_SEED,
               "help": "seed for the modular rank witness (default %(default)s)"},
    "--jobs": {"type": _positive_int, "default": 1,
               "help": "accepted for compatibility (N >= 1); every command"
                       " runs in one process, so it changes neither the"
                       " work nor the output"},
}
_N = {"type": int, "required": True}
_M = {"type": int, "default": 1, "help": "weight exponent (default 1)"}
_SUBCOMMANDS = {
    "enumerate": ("list diagrams", {
        "--n": _N,
        "--m": {"type": int, "help": "southern node count (default n)"},
        "--blob": {"action": "store_true", "default": False,
                   "help": "blob diagrams on (n,n)"},
    }),
    "compose": ("compose two diagram JSON files", {"left": {}, "right": {}}),
    "rmatrix": ("tensor-space matrix of a diagram", {
        "--file": {"help": "diagram JSON file"},
        "--n": {"type": int, "help": "ambient size for --u"},
        "--u": {"type": int, "help": "generator index instead of a file"},
        "--convention": {"choices": ("standard", "shifted"), "default": "standard"},
    }),
    "walkword": ("generator word of a walk pair", {
        "--a": {"required": True, "help": "left walk, e.g. 112"},
        "--b": {"required": True, "help": "right walk, e.g. 121"},
    }),
    "lattice": ("walk-pair order as JSON edges", {"--n": _N}),
    "verify-tl": ("triangularity, composition identity and rank", {"--n": _N}),
    "verify-blob": ("structure constants of the blob tensor rep",
                    {"--n": _N, "--m": _M}),
    "certify-rho0": ("mirror-mask and rank certificate", {"--n": _N, "--m": _M}),
}


def _build_parser():
    """The argparse parser: every subcommand with its help and options."""
    import argparse  # only here: a well-formed command line never needs it

    parser = argparse.ArgumentParser(
        prog="tlblob",
        description="Exact diagram-algebra workbench: enumeration, composition,"
                    " tensor matrices and faithfulness certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help)
        for flag, keywords in {**_COMMON, **options}.items():
            p.add_argument(flag, **keywords)
    return parser


class _Args:
    """The parsed command line: one attribute per option, as argparse's."""

    def __init__(self, **values):
        self.__dict__.update(values)


def _parse_fast(argv):
    """argv's arguments as ``_build_parser().parse_args(argv)`` gives
    them, or None when argv needs argparse.

    Taken here: a subcommand followed only by ``--option value`` pairs,
    each option an exact long option of that subcommand that stores one
    value, each value without a leading "-" unless it is "-" and ASCII
    digits (argparse reads both as values), converted by the option's type
    and within its choices, and every required option given.  Everything
    else (help, --version, --n=3, abbreviations, flags, positionals, a
    value its type rejects) goes to argparse, which prints every usage,
    help and error message.
    """
    if len(argv) % 2 == 0 or argv[0] not in _SUBCOMMANDS:
        return None
    options = {**_COMMON, **_SUBCOMMANDS[argv[0]][1]}
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        keywords = options.get(flag)
        if keywords is None or not flag.startswith("--") or "action" in keywords:
            return None
        if text.startswith("-") and not (text[1:].isascii() and text[1:].isdigit()):
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # argparse reports it, or raises it again
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    values = {"command": argv[0]}
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required", not flag.startswith("-")):
            return None  # a positional is required too
        values[flag[2:]] = given.get(flag, keywords.get("default"))
    return _Args(**values)


def _workbench(args):
    from .reference import WORKBENCH

    return WORKBENCH[args.command](args)


def _cmd_verify_tl(args):
    from .tlcert import verify_tl

    tri, cert = verify_tl(args.n, seed=args.seed)
    ok = tri.ok and cert.valid
    payload = {
        "n": args.n,
        "seed": args.seed,
        "triangularity": {
            "ok": tri.ok,
            "failures": len(tri.failures),
            "nonwalk_entries": tri.nonwalk_entries,
        },
        # proved by verify_tl's pass, which raises if a check refuses
        "composition_identity": {"ok": True, "failures": 0},
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
    args = _parse_fast(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if not exc.code else int(exc.code)
    try:
        if args.out is not None:
            _check_out(args.out)
        payload, ok = _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:  # JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a falsified claim: never exit 1
        import traceback  # only on this path: it adds to every start-up

        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2
    text = _json.dumps_canonical(payload)
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
    nothing useful: temporaries go by reference counting, a command leaves
    cyclic garbage only when argparse parsed it (a constant few hundred
    objects, the parser's, whatever its size), and each collection walks
    the long-lived basis tables again.  Nothing in tlblob relies on collection:
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
