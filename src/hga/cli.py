"""Command line interface: build, check, enumerate, reduce, verify.

Exit codes: 0 success, 1 negative verdict, 2 input error, 3 scale cap,
4 internal error: any other exception a command lets out, a fault of hga,
not of its input; no failure exits 1.
All reports are JSON with sorted keys so identical invocations produce
byte-identical output; exact values are emitted as strings where they are
not integers.
"""

import argparse
import functools
import json
import os
import sys

from . import reduction, reps
from .algebras import build_algebra
from .axioms import is_d_gentle_certificate
from .cluster import SummandCollection, cluster_endo_algebra
from .errors import (
    HgaError,
    InternalError,
    InvalidPresentation,
    NoCommutativeSquare,
    NotReducible,
    ScaleExceeded,
)
from .presentations import (
    Idempotent,
    presentation_from_dict,
    presentation_to_dict,
    presentation_to_dot,
)
from .reduction import gentle_sg_invariant, reduce_to_gentle, verify_sg_example
from .typea import (
    build_typeA_auslander,
    canonical_cluster_tilting,
    maximal_nonintertwining,
    tuple_set,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_SCALE = 3
EXIT_INTERNAL = 4


def _dump(data, out):
    _write(json.dumps(data, indent=2, sort_keys=True) + "\n", out)


def _write(text, out):
    """text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_presentation(path):
    """The presentation in a file: a presentation dict, or a report that
    carries one as its `presentation` member (such as `hga auslander`'s)."""
    data = _load(path)
    if isinstance(data, dict) and "presentation" in data:
        data = data["presentation"]
    try:
        return presentation_from_dict(data)
    except (TypeError, AttributeError) as exc:
        raise InvalidPresentation(f"{path}: not a presentation: {exc}")


def _load_algebra(path):
    return build_algebra(_load_presentation(path))


def _cap(default):
    raw = os.environ.get("HGA_CAP")
    if raw is None:
        return default
    return int(raw)


def cmd_auslander(args):
    a = build_typeA_auslander(args.n, args.d)
    p = a.presentation
    report = {
        "n": args.n,
        "d": args.d,
        "vertices": len(p.quiver.vertices),
        "arrows": len(p.quiver.arrows),
        "dim": a.dim,
        "presentation": presentation_to_dict(p),
    }
    _dump(report, args.out)
    return EXIT_OK


def _load_idempotent(path):
    """The idempotent in a file: a JSON list of vertex names."""
    data = _load(path)
    if not isinstance(data, list) or not all(
            isinstance(v, str) for v in data):
        raise ValueError(f"{path}: not a JSON list of vertex names")
    return Idempotent.of(data)


def cmd_check_gentle(args):
    cover = _load_algebra(args.cover)
    e = _load_idempotent(args.e)
    cert = is_d_gentle_certificate(cover, e, args.d)
    _dump(cert.to_dict(), args.out)
    return EXIT_OK if cert.verdict == "pass" else EXIT_NEGATIVE


def cmd_tuples(args):
    ts = tuple_set(args.d, args.m, cyclic=args.cyclic)
    report = {
        "d": args.d,
        "m": args.m,
        "cyclic": args.cyclic,
        "count": len(ts),
        "tuples": [list(t.entries) for t in ts],
    }
    _dump(report, args.out)
    return EXIT_OK


def cmd_collections(args):
    cols = maximal_nonintertwining(
        args.d, args.m, cyclic=args.cyclic, scale_cap=_cap(60))
    report = {
        "d": args.d,
        "m": args.m,
        "cyclic": args.cyclic,
        "count": len(cols),
        "collections": [[list(t.entries) for t in c.tuples] for c in cols],
    }
    _dump(report, args.out)
    return EXIT_OK


def _load_collection(path):
    """The tuples in a file: a JSON list of integer lists, or
    {"tuples": <that>}."""
    data = _load(path)
    if isinstance(data, dict):
        data = data.get("tuples")
    if not isinstance(data, list) or not all(
            isinstance(t, list) and all(type(i) is int for i in t)
            for t in data):
        raise ValueError(f"{path}: not a JSON list of integer lists")
    return [tuple(t) for t in data]


def cmd_endo(args):
    fam = canonical_cluster_tilting(build_typeA_auslander(args.n, args.d))
    c = SummandCollection(fam, _load_collection(args.collection))
    res = cluster_endo_algebra(c)
    report = {
        "endDim": res.end_dim,
        "extDim": res.ext_dim,
        "extSquareZero": res.ext_square_zero,
        "summands": list(res.summand_labels),
        "presentation": presentation_to_dict(res.algebra.presentation),
    }
    _dump(report, args.out)
    return EXIT_OK


def cmd_reduce(args):
    a = _load_algebra(args.algebra)
    try:
        trace = reduce_to_gentle(a, seed=args.seed)
    except (NotReducible, NoCommutativeSquare) as exc:
        _dump({"reduced": False, "error": str(exc)}, args.out)
        return EXIT_NEGATIVE
    report = trace.to_dict()
    report["terminalPresentation"] = presentation_to_dict(
        trace.terminal.presentation)
    report["sgInvariant"] = gentle_sg_invariant(trace.terminal).to_dict()
    _dump(report, args.out)
    if args.terminal_out:
        _dump(presentation_to_dict(trace.terminal.presentation),
              args.terminal_out)
    return EXIT_OK


def cmd_homdims(args):
    a = _load_algebra(args.algebra)
    rec = reps.homological_dims(a, cap=_cap(None))
    shown = reduction._shown
    report = {
        "projDims": {v: shown(x) for v, x in rec["projDims"].items()},
        "globalDim": shown(rec["globalDim"]),
        "dominantDim": shown(rec["dominantDim"]),
        "injDimOfA": shown(rec["injDimOfA"]),
        "projDimOfDA": shown(rec["projDimOfDA"]),
    }
    _dump(report, args.out)
    return EXIT_OK


def _load_modules(a, path):
    """The modules in a file: a JSON list of {"dims": ..., "maps": ...}."""
    data = _load(path)
    try:
        return [reps.representation_from_dict(a, d) for d in data]
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a list of modules: {exc}")


def cmd_verify_example(args):
    a = _load_algebra(args.algebra)
    rep = verify_sg_example(a, _load_modules(a, args.modules))
    _dump(rep, args.out)
    return EXIT_OK if rep["pass"] else EXIT_NEGATIVE


def cmd_export_dot(args):
    _write(presentation_to_dot(_load_presentation(args.algebra)), args.out)
    return EXIT_OK


def build_parser():
    """The parser of every subcommand; `main` runs subcommand x-y as the
    function cmd_x_y of this module."""
    parser = argparse.ArgumentParser(
        prog="hga", description="Workbench for higher gentle algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("auslander", help="build a higher Auslander algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("check-gentle", help="run the d-gentle certificate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--out")

    p = sub.add_parser("tuples", help="enumerate separated index tuples")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser(
        "collections", help="enumerate maximal non-intertwining collections")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser(
        "endo", help="endomorphism algebra of a summand collection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--collection", required=True)
    p.add_argument("--out")

    p = sub.add_parser("reduce", help="reduce to a gentle algebra")
    p.add_argument("algebra")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--terminal-out")

    p = sub.add_parser("homdims", help="homological dimension report")
    p.add_argument("algebra")
    p.add_argument("--out")

    p = sub.add_parser(
        "verify-example", help="verify a proposed syzygy orbit")
    p.add_argument("--algebra", required=True)
    p.add_argument("--modules", required=True)
    p.add_argument("--out")

    p = sub.add_parser("export-dot", help="emit a DOT figure")
    p.add_argument("algebra")
    p.add_argument("--out")
    return parser


@functools.cache
def _parser():
    """The parser, built on first use: parse_args keeps no state."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ScaleExceeded as exc:
        sys.stderr.write(f"scale cap: {exc}\n")
        return EXIT_SCALE
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except (OSError, json.JSONDecodeError, KeyError, ValueError,
            HgaError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
