"""Command-line front end.

Reads edge-list files, runs group computations or theorem verifications, and
emits line-delimited JSON (default) or aligned tables.  Output is
deterministic: stable key order, stable array order.  Every number that can
outgrow 2**53 (group orders, invariant factors, characteristic polynomial
coefficients, both sides of the order formulas) is a decimal string, so
consumers that read JSON numbers as doubles never truncate it; vertex, edge
and generator counts stay JSON ints.

`cone FILE N`, `group FILE --cone N` and `join FILE... --cone N` never
build the cone: its group comes from a (k+1)-square presentation and its
characteristic polynomial from the base's, so no matrix grows with N.  The
join of l N-cones is the (l N)-cone over the join of the files' graphs.

Exit codes: 0 success / all checks hold, 1 a verification check failed,
2 input error, 3 precondition error (for example a disconnected graph, or
running out of memory).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import reduce
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence

from .errors import InputError, NotConnectedError, SizeError
from .graphs import Graph, _check_cone_size, _check_vertex_count, cone, join, read_edge_list
from .intlinalg import _decimal, _poly_str
from .sandpile import _cone_char_poly, _cone_groups, critical_group
from .theorems import (
    ConeSequenceReport,
    JoinOrderReport,
    TreeBoundReport,
    random_connected_graph,
    random_tree,
    verify_cone_theorem,
    verify_eigenvectors,
    verify_join_theorem,
    verify_tree_bound,
)

__all__ = ["main", "entry", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["json", "table"],
        default="json",
        help="output format (default: json, one object per line)",
    )
    common.add_argument(
        "--cone",
        type=int,
        default=None,
        metavar="N",
        help="replace each input graph by its nth cone before computing",
    )

    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Chip-firing groups of graphs via exact integer linear algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser(
        "group", parents=[common], help="critical group of a graph file"
    )
    p_group.add_argument("file")

    p_cone = sub.add_parser(
        "cone", parents=[common], help="critical group of the nth cone over a graph file"
    )
    p_cone.add_argument("file")
    p_cone.add_argument("n", type=int)

    p_join = sub.add_parser(
        "join", parents=[common], help="critical group of the join of several graph files"
    )
    p_join.add_argument("files", nargs="+")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="mechanically check one of the structure theorems"
    )
    p_verify.add_argument("which", choices=["cone", "tree", "join", "eigen"])
    p_verify.add_argument("files", nargs="*")
    p_verify.add_argument(
        "-n",
        dest="n",
        type=int,
        default=1,
        help="cone size used by the verification (default 1)",
    )
    p_verify.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="COUNT",
        help="verify COUNT random instances instead of files",
    )
    p_verify.add_argument(
        "--seed", type=int, default=0, help="seed for --sample instance generation"
    )
    return parser


# parse_args leaves a parser unchanged, so one grammar serves every call
_PARSER = build_parser()


def _apply_cone(g: Graph, cone_size: Optional[int]) -> Graph:
    return g if cone_size is None else cone(g, cone_size)


def _checked_join(factors: Iterable[Graph], cone_size: Optional[int]) -> list:
    """The factors as a list, once the cone of each by ``--cone`` and the
    join of those cones pass the size rules, before anything is coned or
    joined.  Each factor's cone size is checked as the factor arrives,
    then the running vertex count of the join."""
    checked = []
    for g in factors:
        if cone_size is not None:
            _check_cone_size(g.vertex_count, cone_size)
        checked.append(g)
    n = 0 if cone_size is None else cone_size
    for size in accumulate(g.vertex_count + n for g in checked):
        _check_vertex_count(size)
    return checked


def _count(n: int, noun: str, plural: str) -> str:
    return f"{n} {noun if n == 1 else plural}"


def _summarize(g: Graph) -> str:
    vertices = _count(g.vertex_count, "vertex", "vertices")
    return f"{vertices}, {_count(g.edge_count, 'edge', 'edges')}"


def _load(path: str, cone_size: Optional[int]) -> tuple:
    raw = read_edge_list(path)
    return _apply_cone(raw, cone_size), f"{path}: {_summarize(raw)}"


def _decimals(values: Iterable[int]) -> list:
    return [_decimal(x) for x in values]


def _cone_result(g: Graph, n: int) -> dict:
    """The group result of cone(g, n), which is not built: it has k + n
    vertices and |E| + kn + n(n - 1)/2 edges; n = 0 means g itself."""
    k = g.vertex_count
    # critical_group checks that g is connected, so P needs no second check
    group = _cone_groups(g, n)[0] if n else critical_group(g)
    poly = _cone_char_poly(g, n)
    coefficients = _decimals(poly.coefficients)
    return {
        "vertices": k + n,
        "edges": g.edge_count + k * n + n * (n - 1) // 2,
        "invariant_factors": _decimals(group.invariant_factors),
        "group": str(group),
        "order": _decimal(group.order),
        "spanning_trees": _decimal(abs(poly.coefficients[0]) // (k + n)),  # |P(0)| = (k + n) * tau
        "char_poly": coefficients,
        "char_poly_str": _poly_str(coefficients),
    }


def _record(command: str, input_summary: str, result: dict) -> dict:
    return {"command": command, "input_summary": input_summary, "result": result}


def _cone_report_result(report: ConeSequenceReport) -> dict:
    return {
        "base_vertices": report.base_vertices,
        "cone_size": report.cone_size,
        "pic0_factors": _decimals(report.pic0.invariant_factors),
        "pic0_order": _decimal(report.pic0.order),
        "subgroup_factors": _decimals(report.subgroup.invariant_factors),
        "quotient_factors": _decimals(report.quotient_h.invariant_factors),
        "quotient_order": _decimal(report.quotient_h.order),
        "p_at_minus_n": _decimal(report.p_at_minus_n),
        "order_formula_holds": report.order_formula_holds,
        "subgroup_is_expected": report.subgroup_is_expected,
        "splits": report.splits,
        "h_generator_count": report.h_generator_count,
        "holds": report.holds,
    }


def _join_report_result(report: JoinOrderReport) -> dict:
    return {
        "factor_vertex_counts": list(report.factor_vertex_counts),
        "total_vertices": report.total_vertices,
        "lhs": _decimal(report.lhs),
        "rhs": _decimal(report.rhs),
        "holds": report.holds,
    }


def _tree_report_result(n: int, report: TreeBoundReport) -> dict:
    return {
        "cone_size": n,
        "leaf_count": report.leaf_count,
        "h_generators": report.h_generators,
        "holds": report.holds,
    }


def _sample_graphs(args) -> Iterable[tuple]:
    """Seeded random instances, each coned by ``--cone`` and summarised
    before coning; a ``join`` instance is a list of factors."""
    rng = random.Random(args.seed)
    for index in range(args.sample):
        if args.which == "tree":
            g = random_tree(rng, rng.randint(2, 7))
        elif args.which == "join":
            factors = _checked_join(
                [random_connected_graph(rng, rng.randint(1, 5)) for _ in range(rng.randint(2, 3))],
                args.cone,
            )
            yield [_apply_cone(g, args.cone) for g in factors], f"sample {index} (seed={args.seed})"
            continue
        else:
            g = random_connected_graph(rng, rng.randint(2, 6))
        yield _apply_cone(g, args.cone), f"sample {index} (seed={args.seed}): {_summarize(g)}"


def _run_verify(args) -> tuple:
    if args.sample is not None and args.files:
        raise InputError("give input files or --sample, not both")
    if args.sample is None and not args.files:
        raise InputError("verify needs input files or --sample COUNT")
    if args.sample is not None and args.sample < 1:
        raise InputError(f"--sample COUNT must be at least 1, got {args.sample}")

    if args.sample is not None:
        instances = _sample_graphs(args)
    elif args.which == "join":
        if len(args.files) < 2:
            raise InputError("verify join needs at least two graph files")
        # every file is parsed before any cone size is checked
        factors = _checked_join([read_edge_list(path) for path in args.files], args.cone)
        instances = [([_apply_cone(g, args.cone) for g in factors], " + ".join(args.files))]
    else:
        # every file is parsed and coned before any check runs
        instances = [_load(path, args.cone) for path in args.files]

    records: List[dict] = []
    all_hold = True
    for g, summary in instances:
        if args.which == "join":
            report = verify_join_theorem(g)
            holds, result = report.holds, _join_report_result(report)
        elif args.which == "cone":
            report = verify_cone_theorem(g, args.n)
            holds, result = report.holds, _cone_report_result(report)
        elif args.which == "tree":
            report = verify_tree_bound(g, args.n)
            holds, result = report.holds, _tree_report_result(args.n, report)
        else:
            holds = verify_eigenvectors(g, args.n)
            result = {"cone_size": args.n, "holds": holds}
        records.append(_record(f"verify {args.which}", summary, result))
        all_hold = all_hold and holds
    return records, all_hold


def _render_table(record: dict) -> str:
    rows = [("command", record["command"]), ("input", record["input_summary"])]
    for key, value in record["result"].items():
        if isinstance(value, list):
            text = " ".join(str(x) for x in value) if value else "-"
        else:
            text = str(value)
        rows.append((key, text))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


def _emit(records: Sequence[dict], fmt: str, out) -> None:
    for record in records:
        if fmt == "json":
            out.write(json.dumps(record) + "\n")
        else:
            out.write(_render_table(record) + "\n")


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "verify":
            records, all_hold = _run_verify(args)
            exit_code = EXIT_OK if all_hold else EXIT_VERIFY_FAILED
        else:
            if args.command == "join":
                # each cone vertex is adjacent to every other vertex, so the
                # join of the n-cones is the (l n)-cone over the join of the
                # l factors; it is refused wherever the join of the cones is
                factors = _checked_join(map(read_edge_list, args.files), args.cone)
                g, summary = reduce(join, factors), " + ".join(args.files)
                n = 0 if args.cone is None else args.cone * len(factors)
            else:
                g, summary = _load(args.file, None)
                # the N-cone over the M-cone over g is the (M + N)-cone over g
                sizes = [] if args.cone is None else [args.cone]
                if args.command == "cone":
                    sizes.append(args.n)
                n = 0
                for size in sizes:
                    _check_cone_size(g.vertex_count + n, size)
                    n += size
            records = [_record(args.command, summary, _cone_result(g, n))]
            exit_code = EXIT_OK
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (NotConnectedError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(records, args.format, out)
    return exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
