"""Command line interface: every pipeline stage as a subcommand.

Results go to stdout, machine-readable diagnostics to stderr.  Exit codes:
0 success, 1 validation failure, 2 usage or parse errors or a file that
cannot be read or written, 3 a broken internal invariant (a bug in
surfops, reported with its stage).  All
commands are deterministic for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import delaney, io, operations, topology
from .operations import (
    CATALOG_NAMES,
    InternalInvariant,
    InvalidLopsp,
    InvalidLsp,
    LspOperation,
    UnknownOperation,
)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc), 2)


def _load_graphs(path):
    """All graphs of the input: one rot graph or a planar_code stream."""
    if path == "-":
        stream = getattr(sys.stdin, "buffer", None)
        data = stream.read() if stream is not None else sys.stdin.read().encode("ascii")
    else:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise CliError("cannot read %s: %s" % (path, exc), 2)
    try:
        if data.startswith(io.PLANAR_CODE_HEADER):
            graphs = io.parse_planar_code(data)
            if not graphs:
                raise CliError("empty planar_code stream", 2)
            return graphs
        return [io.parse_rot(data.decode("ascii"))]
    except (io.ParseError, io.FormatViolation, ValueError) as exc:
        raise CliError("parse %s: %s" % (path, exc), 2)


def _load_graph(path):
    graphs = _load_graphs(path)
    if len(graphs) != 1:
        raise CliError("expected one graph, stream holds %d" % len(graphs), 2)
    return graphs[0]


def _load_op(name_or_path):
    if name_or_path in CATALOG_NAMES:
        return operations.catalog(name_or_path)
    try:
        return io.parse_op(_read_text(name_or_path))
    except (io.ParseError, io.FormatViolation, ValueError) as exc:
        raise CliError("parse %s: %s" % (name_or_path, exc), 2)


def _require_valid(op):
    diag = op.validate()
    if diag:
        for d in diag:
            print("error: invalid-operation %s" % d, file=sys.stderr)
        raise CliError("operation is not valid", 1)
    return op


def _symbol(op):
    if isinstance(op, LspOperation):
        return delaney.dd_from_lsp(op)
    return delaney.dd_from_lopsp(op)


def _cmd_validate(args):
    op = _load_op(args.operation)
    diag = op.validate()
    if diag:
        for d in diag:
            print("error: %s" % d, file=sys.stderr)
        return 1
    kind = "lsp" if isinstance(op, LspOperation) else "lopsp"
    print("valid %s-operation, inflation factor %d" % (kind, operations.inflation_factor(op)))
    return 0


def _cmd_classify(args):
    op = _require_valid(_load_op(args.operation))
    report = operations.classify_ck(op)
    print(report.k)
    if report.k < 3:
        wit = report.witness
        for key in ("two_cycle", "four_cycle"):
            if key in wit:
                print("witness %s darts %s" % (key, " ".join(map(str, wit[key]))))
        if report.localization:
            print(
                "witness cells single=%s two-adjacent=%s"
                % (
                    report.localization.get("single_cell"),
                    report.localization.get("within_two_adjacent"),
                )
            )
    return 0


def _cmd_apply(args):
    op = _require_valid(_load_op(args.operation))
    cut_path = None
    if args.cut_path == "random":
        cut_path = operations.find_cut_path(op, "seeded-random", seed=args.seed)
    text = "".join(io.write_rot(operations.apply(op, g, cut_path=cut_path).result)
                   for g in _load_graphs(args.graph))
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError("cannot write %s: %s" % (args.output, exc), 2)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_facewidth(args):
    for g in _load_graphs(args.graph):
        fw = topology.face_width(g)
        print("inf" if fw == math.inf else fw)
    return 0


def _cmd_ckcheck(args):
    for g in _load_graphs(args.graph):
        if args.method == "direct":
            rep = topology.is_ck_embedded(g, args.k)
        else:
            if args.k == 1:
                raise CliError("the cycle characterisation covers k=2 and k=3", 2)
            rep = topology.ck_via_cycles(g, args.k)
        fw = "-" if rep.face_width is None else (
            "inf" if rep.face_width == math.inf else str(rep.face_width)
        )
        print(
            "c%d=%s k_max=%d min_degree=%d min_face=%d face_width=%s"
            % (args.k, "yes" if rep.passed else "no", rep.k_max, rep.min_degree,
               rep.min_face_size, fw)
        )
    return 0


def _cmd_ddsymbol(args):
    op = _require_valid(_load_op(args.operation))
    sys.stdout.write(delaney.write_dd(_symbol(op)))
    return 0


def _cmd_curvature(args):
    op = _require_valid(_load_op(args.operation))
    print(delaney.curvature(_symbol(op)))
    return 0


def _cmd_convert(args):
    op = _load_op(args.operation)
    if not isinstance(op, LspOperation):
        raise CliError("convert expects an lsp-operation", 2)
    _require_valid(op)
    sys.stdout.write(io.write_op(operations.lsp_to_lopsp(op)))
    return 0


def _cmd_canon(args):
    for g in _load_graphs(args.graph):
        print(" ".join(map(str, g.canonical_code(allow_reflection=args.reflect))))
    return 0


def _cmd_iso(args):
    a = _load_graph(args.first)
    b = _load_graph(args.second)
    print("isomorphic" if a.iso(b, allow_reflection=args.reflect) else "not-isomorphic")
    return 0


def _cmd_catalog(args):
    if not args.name:
        for name in CATALOG_NAMES:
            print(name)
        return 0
    op = operations.catalog(args.name)
    sys.stdout.write(io.write_op(op))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="surfops",
        description="local symmetry-preserving operations on embedded graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an operation file")
    p.add_argument("operation")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="largest k with ck preserved")
    p.add_argument("operation")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("apply", help="apply an operation to a graph")
    p.add_argument("operation", help="catalog name or operation file")
    p.add_argument("graph", help="rot or planar_code file, - for stdin")
    p.add_argument("--cut-path", choices=("minimal", "random"), default="minimal",
                   help="cut-path of the operation, or of the double of an "
                        "lsp-operation; the output does not depend on it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("facewidth", help="face-width of a graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_facewidth)

    p = sub.add_parser("ckcheck", help="ck-embeddedness of a graph")
    p.add_argument("graph")
    p.add_argument("-k", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--method", choices=("direct", "cycles"), default="direct")
    p.set_defaults(func=_cmd_ckcheck)

    p = sub.add_parser("ddsymbol", help="Delaney-Dress symbol of an operation")
    p.add_argument("operation")
    p.set_defaults(func=_cmd_ddsymbol)

    p = sub.add_parser("curvature", help="exact curvature of the symbol")
    p.add_argument("operation")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("convert", help="double an lsp-operation to a lopsp-operation")
    p.add_argument("operation")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("canon", help="canonical code of a graph")
    p.add_argument("graph")
    p.add_argument("--reflect", action="store_true")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("iso", help="isomorphism of two graphs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--reflect", action="store_true")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("catalog", help="list catalog operations or print one")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (InvalidLsp, InvalidLopsp) as exc:
        print("error: invalid-operation %s" % exc, file=sys.stderr)
        return 1
    except UnknownOperation as exc:
        print("error: unknown-operation %s" % exc, file=sys.stderr)
        return 2
    except InternalInvariant as exc:
        print("error: internal-invariant %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
