"""Command-line front end.

Exit codes: 0 = success, 1 = negative domain answer (not a recognisable
graph, invalid sequence), 2 = usage or format error, or output that cannot
be written.  Machine-readable outputs are JSON on stdout and carry
"format_version": 1; progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

from ._util import is_int
from .buildtree import _tree_text, canonical_colouring, chi_omega, replay
from .colouring import Colouring, Palette, colouring_from_json, colouring_to_json
from .errors import ColouringError, GraphFormatError, OatGraphError, SizeBudgetError
from .generators import (
    CLASSIC_FAMILIES,
    FIXTURE_NAMES,
    classic,
    fixture,
    p4_sparse_third_op,
    random_oat,
)
from .graph import Graph, _check_dense_budget, format_graph, parse_graph
from .oracle import _check_node_budget, build_reconfig, reconfig_stats
from .recognition import recognize
from .recolouring import RecolouringSequence, find_path, sequence_from_json, verify_sequence

# Steps per write when a sequence goes to stdout: enough to keep the writes
# few, few enough that the text held at once stays small.
_STEPS_PER_WRITE = 4096


def _path(path: str) -> Path:
    if not path:  # Path("") would be the current directory
        raise FileNotFoundError("the path is empty")
    return Path(path)


def _read_text(path: str, newline: str | None = None) -> str:
    try:
        with _path(path).open(newline=newline) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}")


def _write_text(path: str, text: str) -> None:
    try:
        _path(path).write_text(text)
    except OSError as exc:
        raise OatGraphError(f"cannot write {path}: {exc}")


def _read_graph(path: str) -> Graph:
    # Line ends as written: parse_graph reads \r\n itself, and universal
    # newlines would copy a CRLF text once more to make them \n.
    return parse_graph(_read_text(path, newline=""))


def _read_json(path: str) -> Any:
    """A JSON document as this CLI writes it, its format_version (1, or
    absent) taken off."""
    text = _read_text(path)
    try:
        loaded = json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    if isinstance(loaded, dict):
        version = loaded.pop("format_version", 1)
        if not is_int(version) or version != 1:  # JSON true and 1.0 are not 1
            raise ValueError(f"unsupported format version {version!r}")
    return loaded


def _read_colouring(path: str, palette: Palette) -> Colouring:
    loaded = colouring_from_json(_read_json(path))
    # rebind onto the command's working palette; off-palette colours fail here
    return Colouring(loaded.assignment, palette)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps({"format_version": 1, **doc}) + "\n")


def _emit_sequence(seq: RecolouringSequence) -> None:
    """_emit(sequence_to_json(seq)), byte for byte, with the steps written
    from the sequence's int columns a slice at a time: no dict is made per
    step, and the text of one slice is the most held at once."""
    write = sys.stdout.write
    head = json.dumps({"format_version": 1, "initial": colouring_to_json(seq.initial)})
    write(head[:-1] + ', "steps": [')  # the head without its closing brace
    step = '{{"v": {}, "c": {}}}'.format
    vs, cs = seq._vs, seq._cs
    for lo in range(0, len(vs), _STEPS_PER_WRITE):
        hi = lo + _STEPS_PER_WRITE
        write((", " if lo else "") + ", ".join(map(step, vs[lo:hi], cs[lo:hi])))
    write("]}\n")


def cmd_recognize(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    out = recognize(g)
    if not out.is_oat:
        stuck = out.stuck
        verts = out.stuck_vertices
        if args.json:
            _emit(
                {
                    "oat": False,
                    "stuck_vertices": list(verts),
                    "stuck_edges": [[verts[u], verts[v]] for u, v in stuck.edges()],
                }
            )
        else:
            print(f"not recognised; stuck subgraph on vertices {' '.join(map(str, verts))}")
            for u, v in stuck.edges():
                print(f"{verts[u]} {verts[v]}")
        return 1
    chi, omega = chi_omega(out.tree)
    if args.json or args.tree_out is not None:
        tree = _tree_text(out.tree)
    if args.tree_out is not None:
        _write_text(args.tree_out, tree + "\n")
    if args.json:
        # _emit of the report with the tree last, the tree's text spliced in
        head = json.dumps({"format_version": 1, "oat": True, "chi": chi, "omega": omega})
        sys.stdout.write(head[:-1] + ', "tree": ' + tree + "}\n")
    else:
        print(f"recognised: {g.n} vertices, chi = omega = {chi}")
        if args.tree_out is not None:
            print(f"build tree written to {args.tree_out}")
    return 0


def cmd_recolor(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    out = recognize(g)
    if not out.is_oat:
        print("graph not recognised; cannot recolour", file=sys.stderr)
        return 1
    chi, _ = chi_omega(out.tree)
    k = args.k if args.k is not None else chi
    if k < chi:
        raise ValueError(f"k = {k} is below the chromatic number {chi}")
    try:
        _check_dense_budget(k + 1)  # no palette longer than the largest graph accepted
    except SizeBudgetError:
        raise SizeBudgetError(
            f"k = {k} asks for more colours than any graph this machine can hold"
        ) from None
    palette = Palette.default(k + 1)
    alpha = _read_colouring(args.from_file, palette)
    beta = _read_colouring(args.to_file, palette)
    for name, col in (("--from", alpha), ("--to", beta)):
        if col.n != g.n:
            raise ColouringError(f"{name} colours {col.n} vertices, graph has {g.n}")
        if not col.is_proper(g):
            raise ColouringError(f"{name} colouring is not proper")
    seq = find_path(out.tree, alpha, beta, palette)
    _emit_sequence(seq)
    print(f"length {len(seq)} within budget {4 * g.n * g.n} for n = {g.n}", file=sys.stderr)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    _check_node_budget(g.n, args.k)  # before a k-colour palette is built
    r = build_reconfig(g, Palette.default(args.k))
    if args.frozen:  # no BFS, so no census budget
        frozen = r.frozen
        _emit({"frozen_count": len(frozen), "frozen": [list(a) for a in frozen]})
    else:
        _emit(reconfig_stats(r).to_json())
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    if args.tree_out is not None and family != "random_oat":
        raise ValueError(f"--tree-out is for random_oat only; {family} has no build tree")
    if args.seed is not None and family != "random_oat":
        raise ValueError(f"--seed is for random_oat only; {family} takes no seed")
    if args.r_file is not None and family != "p4_sparse":
        raise ValueError(f"--r-file is for p4_sparse only; {family} has no joined part")
    if args.case is not None and family != "p4_sparse":
        raise ValueError(f"--case is for p4_sparse only; {family} has no cases")
    if family in FIXTURE_NAMES:
        if args.param is not None:
            raise ValueError(f"{family} is a fixture and takes no size parameter")
        g = fixture(family).graph
    elif family in CLASSIC_FAMILIES:
        if args.param is None:
            raise ValueError(f"{family} needs a size parameter")
        g = classic(family, args.param)
    elif family == "random_oat":
        if args.param is None:
            raise ValueError("random_oat needs a vertex count")
        tree = random_oat(args.param, args.seed or 0)
        if args.tree_out is not None:
            _write_text(args.tree_out, _tree_text(tree) + "\n")
        g = replay(tree)
    elif family == "p4_sparse":
        if args.param is None:
            raise ValueError("p4_sparse needs the size of the edgeless part")
        r = _read_graph(args.r_file) if args.r_file is not None else None
        g = p4_sparse_third_op(args.param, r, args.case or "pendant")
    else:
        known = ", ".join(CLASSIC_FAMILIES + FIXTURE_NAMES + ("random_oat", "p4_sparse"))
        raise ValueError(f"unknown family {family!r}; choose from {known}")
    sys.stdout.write(format_graph(g))
    return 0


def cmd_canonical(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    out = recognize(g)
    if not out.is_oat:
        print("graph not recognised; no canonical colouring", file=sys.stderr)
        return 1
    chi, _ = chi_omega(out.tree)
    col = canonical_colouring(out.tree, Palette.default(chi))
    _emit(colouring_to_json(col))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    seq = sequence_from_json(_read_json(args.sequence))
    report = verify_sequence(g, seq)
    doc = {
        "valid": report.valid,
        "length": report.length,
        "max_recolourings": report.max_recolourings,
    }
    if not report.valid:
        doc["first_invalid_step"] = report.first_invalid_step
        doc["reason"] = report.reason
    _emit(doc)
    return 0 if report.valid else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so main reports them like every other refusal;
    subparsers are made of the same class."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oatgraph")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decompose a graph, print its build tree")
    p.add_argument("graph", help="graph file in the 'n m' edge-list format")
    p.add_argument("--tree-out", help="write the build-tree JSON to this file")
    p.add_argument("--json", action="store_true", help="JSON report on stdout")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("recolor", help="find a recolouring sequence between two colourings")
    p.add_argument("graph")
    p.add_argument("--from", dest="from_file", required=True, help="starting colouring JSON")
    p.add_argument("--to", dest="to_file", required=True, help="target colouring JSON")
    p.add_argument("--k", type=int, help="palette is 1..k+1 (default: k = chi)")
    p.set_defaults(func=cmd_recolor)

    p = sub.add_parser("oracle", help="census of the full reconfiguration graph")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True, help="palette is 1..k")
    p.add_argument("--frozen", action="store_true", help="list frozen colourings, not stats")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit a generated graph in the edge-list format")
    p.add_argument("family", help="path/cycle/complete/complete_bipartite_minus_matching, a fixture name, random_oat, or p4_sparse")
    p.add_argument("param", type=int, nargs="?", help="size parameter where the family needs one")
    p.add_argument("--seed", type=int, help="seed for random_oat (default 0)")
    p.add_argument("--case", choices=("pendant", "anti"), help="p4_sparse flavour (default pendant)")
    p.add_argument("--r-file", help="graph file for the joined part of p4_sparse")
    p.add_argument("--tree-out", help="for random_oat: also write the build tree JSON")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("canonical", help="canonical chi-colouring of a recognised graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("verify", help="check a recolouring sequence against a graph")
    p.add_argument("graph")
    p.add_argument("sequence", help="sequence JSON file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # One BLAS thread, unless the caller chose a count: OpenBLAS reads this
    # when numpy is first imported, which in a command comes after this
    # line, and its idle workers otherwise spin on after the A@A product,
    # using CPU time the rest of the command does not get back.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except (OatGraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout is gone, as after `| head`.  What is still
        # buffered goes to devnull, so that the flush at exit raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: cannot write to stdout: its reader closed it", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
