"""Command-line front end: solve, oracle, verify, gen, bench.

Exit codes: 0 success, 1 usage/parse/precondition error, 2 verification
failure, 3 negative-circle detection.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path as FilePath

from .engines import (
    NegativeCircleError,
    RunStats,
    eda,
    embfa,
    format_tree,
    sta,
)
from .graphs import GENERATOR_MODES, max_degree, generate_random, parse_graph, serialize_graph
from .paths import (
    NO_NEGATIVE_CIRCLES,
    NO_NONPOSITIVE_CIRCLES,
    WISP,
    PathSystem,
    anti_risk,
    blocked_cost,
    classic_distance,
    expected_cost,
    format_path,
)
from . import verify as verify_mod

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_NEGATIVE_CIRCLE = 3

FUNCTIONS = ("classic", "antirisk", "blocked-cost", "expected-cost")
PROPERTY_CHECKS = tuple(
    name.lower() for name in (*verify_mod.DEF1_PROPERTIES, WISP, NO_NEGATIVE_CIRCLES, NO_NONPOSITIVE_CIRCLES)
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _weights(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected LO:HI")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected LO:HI with numeric bounds") from None


def _seed_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        seeds = range(int(lo), int(hi)) if sep else range(int(text), int(text) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer seed or LO:HI") from None
    if not seeds:
        raise argparse.ArgumentTypeError("expected LO:HI with HI > LO")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_graph_args(p):
        p.add_argument("--graph", required=True, help="graph file path")
        p.add_argument("--source", type=int, required=True, help="source vertex id")

    def add_function_args(p):
        p.add_argument("--function", choices=FUNCTIONS, default="classic")
        p.add_argument("--p", type=float, default=None, help="blockage probability in (0,1)")
        p.add_argument("--system", choices=("simple", "all"), default="simple")

    def add_generator_args(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--weights", type=_weights, default=(0.0, 10.0), metavar="LO:HI")
        p.add_argument("--mode", choices=GENERATOR_MODES, default="directed")

    solve = sub.add_parser("solve", help="run one solver and print the tree")
    add_graph_args(solve)
    solve.add_argument("--algorithm", choices=("eda", "embfa", "sta"), default="eda")
    add_function_args(solve)

    oracle = sub.add_parser("oracle", help="print brute-force per-vertex minima")
    add_graph_args(oracle)
    add_function_args(oracle)

    verify = sub.add_parser("verify", help="check a solver and/or declared properties")
    add_graph_args(verify)
    verify.add_argument("--algorithm", choices=("eda", "embfa"), default="eda")
    add_function_args(verify)
    verify.add_argument("--against", choices=("oracle",), default=None)
    verify.add_argument("--property", action="append", choices=PROPERTY_CHECKS, default=None)
    verify.add_argument("--max-roads", type=int, default=None)
    verify.add_argument("--tolerance", type=float, default=1e-9)

    gen = sub.add_parser("gen", help="write a random graph file to stdout")
    add_generator_args(gen)
    gen.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="time solves over a seed range and report budgets")
    add_generator_args(bench)
    bench.add_argument("--seed", type=_seed_range, default=range(0, 1), metavar="SEED|LO:HI")
    bench.add_argument("--source", type=int, default=0)
    bench.add_argument("--algorithm", choices=("eda", "embfa"), default="eda")
    add_function_args(bench)

    return parser


def _load_graph(path: str):
    return parse_graph(FilePath(path).read_text(encoding="utf-8"))


def _build_function(graph, name: str, p: float | None):
    if name in ("blocked-cost", "expected-cost"):
        if p is None:
            raise ValueError(f"--p is required with --function {name}")
    elif p is not None:
        raise ValueError(f"--p is only valid with blocked-cost or expected-cost, not {name}")
    if name == "classic":
        return classic_distance(graph)
    if name == "antirisk":
        return anti_risk(graph)
    if name == "blocked-cost":
        return blocked_cost(graph, p)
    return expected_cost(graph, p)


def _solve(graph, source, algorithm, system, func):
    if algorithm == "sta":
        tree = sta(graph, source)
        return tree, RunStats(rounds=len(tree.paths) - 1)
    if algorithm == "eda":
        return eda(graph, source, system, func)
    return embfa(graph, source, system, func)


def _cmd_solve(args) -> int:
    graph = _load_graph(args.graph)
    system = PathSystem(args.system, args.source)
    func = _build_function(graph, args.function, args.p)
    tree, stats = _solve(graph, args.source, args.algorithm, system, func)
    sys.stdout.write(format_tree(tree, stats))
    if not tree.exact:
        print(f"warning: tree not certified exact ({stats.vetoed} vetoed improvements)", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    graph = _load_graph(args.graph)
    system = PathSystem(args.system, args.source)
    func = _build_function(graph, args.function, args.p)
    result = verify_mod.oracle_min(graph, args.source, system, func)
    for v in sorted(result.minimum):
        sys.stdout.write(
            f"{v} value={result.minimum[v]!r} path={format_path(result.witness[v])}\n"
        )
    sys.stdout.write(f"# enumerated_paths={result.enumerated_count}\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.against is None and not args.property:
        raise ValueError("nothing to verify: pass --against oracle and/or --property NAME")
    verify_mod._require_tolerance(args.tolerance)  # before any loading or solving
    graph = _load_graph(args.graph)
    system = PathSystem(args.system, args.source)
    func = _build_function(graph, args.function, args.p)
    reports = []
    if args.against == "oracle":
        tree, _ = _solve(graph, args.source, args.algorithm, system, func)
        oracle = verify_mod.oracle_min(graph, args.source, system, func)
        reports.append(verify_mod.compare_tree_to_oracle(tree, oracle, args.tolerance))
    for name in args.property or ():
        if name == WISP.lower():
            reports.append(verify_mod.check_wisp(graph, args.source, system, func, args.tolerance))
        elif name in (NO_NEGATIVE_CIRCLES, NO_NONPOSITIVE_CIRCLES):
            reports.append(
                verify_mod.check_no_negative_circles(
                    graph, args.source, func,
                    max_roads=args.max_roads,
                    strict=(name == NO_NONPOSITIVE_CIRCLES),
                    tol=args.tolerance,
                )
            )
        else:
            reports.append(
                verify_mod.check_property(
                    graph, args.source, system, func, name.upper(),
                    max_roads=args.max_roads, tol=args.tolerance,
                )
            )
    for report in reports:
        sys.stdout.write(report.format() + "\n")
    if any(r.violated for r in reports):
        sys.stdout.write("fail\n")
        return EXIT_VIOLATION
    sys.stdout.write("pass\n")
    return EXIT_OK


def _cmd_gen(args) -> int:
    lo, hi = args.weights
    graph = generate_random(args.n, args.m, lo, hi, args.mode, args.seed)
    sys.stdout.write(serialize_graph(graph))
    return EXIT_OK


def _cmd_bench(args) -> int:
    lo, hi = args.weights
    for seed in args.seed:
        graph = generate_random(args.n, args.m, lo, hi, args.mode, seed)
        system = PathSystem(args.system, args.source)
        func = _build_function(graph, args.function, args.p)
        start = time.perf_counter()
        _, stats = _solve(graph, args.source, args.algorithm, system, func)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        delta = max_degree(graph)
        if args.algorithm == "eda":
            base = delta * graph.n * graph.n
        else:
            base = graph.n * graph.m
        budget = 2 * base
        ratio = stats.extend_calls / base if base else 0.0
        sys.stdout.write(
            f"seed={seed} n={graph.n} m={graph.m} delta={delta} "
            f"extend_calls={stats.extend_calls} budget={budget} "
            f"ratio={ratio:.6f} time_ms={elapsed_ms:.3f}\n"
        )
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NegativeCircleError as exc:
        print(f"negative circle detected: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE_CIRCLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
