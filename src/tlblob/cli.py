"""Command-line front end with JSON output.

Exit codes: 0 for success or a verified claim, 1 for a falsified claim or
invalid certificate, 2 for usage errors or malformed input.  Output is
canonical JSON (sorted keys), so identical flags and seed give identical
bytes; the seed is echoed in every payload that could involve randomness.

Each command handler imports the code it runs, so a command loads only its
own modules: ``verify-blob`` loads neither ``faithful``, ``walks`` nor
``rank``, and ``certify-rho0`` does not load ``walks``.  The functions
``perfbench/traced.py`` wraps are called through their modules
(``rings.dumps_canonical(...)``), looked up when the call runs.
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


def _load_diagram(path):
    from .reference import diagram_from_json

    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    # accept the output of `compose` directly
    if isinstance(obj, dict) and "pairs" not in obj and "diagram" in obj:
        obj = obj["diagram"]
    try:
        return diagram_from_json(obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} does not hold a diagram: {exc}") from exc


def _cmd_enumerate(args):
    from .reference import diagram_to_json, enumerate_blob, enumerate_tl

    if args.blob:
        if args.m is not None and args.m != args.n:
            raise ValueError("blob diagrams need m = n")
        diagrams = enumerate_blob(args.n)
    else:
        diagrams = enumerate_tl(args.n, args.n if args.m is None else args.m)
    payload = {
        "count": len(diagrams),
        "diagrams": [diagram_to_json(d) for d in diagrams],
    }
    return payload, True


def _cmd_compose(args):
    from . import diagrams
    from .reference import diagram_to_json

    left = _load_diagram(args.left)
    right = _load_diagram(args.right)
    if hasattr(left, "blobbed") or hasattr(right, "blobbed"):
        res, _ = diagrams.compose_blob(left, right)
    else:
        res = diagrams.compose_tl(left, right)
    payload = {
        "diagram": diagram_to_json(res.diagram),
        "plain_loops": res.plain_loops,
        "blob_loops": res.blob_loops,
        "blob_merges": res.blob_merges,
    }
    return payload, True


def _cmd_rmatrix(args):
    from . import tensorrep
    from .diagrams import generator_u
    from .reference import matrix_to_json

    if args.file:
        diagram = _load_diagram(args.file)
    elif args.u is not None and args.n is not None:
        diagram = generator_u(args.u, args.n, args.convention)
    else:
        raise ValueError("rmatrix needs --file or both --n and --u")
    if hasattr(diagram, "blobbed"):
        raise ValueError("rmatrix takes a plain diagram; this one has blobs")
    return {"matrix": matrix_to_json(tensorrep.r_matrix(diagram))}, True


def _cmd_walkword(args):
    from . import walks
    from .reference import diagram_to_json, format_word, walk_from_string
    from .words import eval_word

    pair = walks.WalkPair(walk_from_string(args.a), walk_from_string(args.b))
    word = walks.pair_word(pair)
    ev = eval_word(word)
    payload = {
        "word": format_word(word),
        "diagram": diagram_to_json(ev.tl_diagram),
        "loop_free": ev.loop_free,
    }
    return payload, True


def _cmd_lattice(args):
    from . import walks
    from .reference import hasse_edges, linear_extension

    pairs = linear_extension(walks.enumerate_pairs(args.n))
    index = {p: i for i, p in enumerate(pairs)}
    edges = sorted((index[p], index[q]) for p, q in hasse_edges(pairs))
    payload = {
        "pairs": [f"{p.a!r}|{p.b!r}" for p in pairs],
        "edges": [list(e) for e in edges],
    }
    return payload, True


def _cmd_verify_tl(args):
    from .faithful import verify_tl

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


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "compose": _cmd_compose,
    "rmatrix": _cmd_rmatrix,
    "walkword": _cmd_walkword,
    "lattice": _cmd_lattice,
    "verify-tl": _cmd_verify_tl,
    "verify-blob": _cmd_verify_blob,
    "certify-rho0": _cmd_certify_rho0,
}


def _check_out(path):
    """Reject an --out path that cannot be a file, before any work is done."""
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
        if args.out:
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
    if args.out:
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
