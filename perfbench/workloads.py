"""The benchmark's workloads: input generation, set-up, one job, and its checks.

Each job gets its own generated input (graph texts and a source) and its
own set-up: the parsed graphs, a DetourTable per graph and the cost
functions that share it, as the CLI builds them. Everything before the
first solver call is set-up. The job is what one user then does with the
input: the solver calls and `format_tree`, plus the verification calls on
`verify-small`.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field

from minpath import (
    DetourTable,
    Graph,
    Path,
    PathSystem,
    Road,
    RunStats,
    anti_risk,
    blocked_cost,
    check_property,
    check_wisp,
    classic_distance,
    compare_tree_to_oracle,
    dijkstra_classic,
    eda,
    embfa,
    expected_cost,
    format_tree,
    generate_random,
    max_degree,
    oracle_min,
    parse_graph,
    serialize_graph,
    sta,
)
from minpath.verify import DEF1_PROPERTIES

# Jobs look solvers up here, so the tests can substitute a faulty one.
SOLVERS = {"eda": eda, "embfa": embfa, "sta": sta}

WEIGHTS = (0.0, 10.0)


@dataclass(frozen=True)
class Inputs:
    """Graph texts (the job's graphs, then the sta graph if any) and the source."""

    texts: tuple[str, ...]
    source: int


@dataclass
class Setup:
    graphs: list[Graph]
    funcs: dict  # (graph, function, p) -> PathFunction, as built; the checks use these
    job_funcs: dict  # the same functions as the jobs call them (wrapped when traced)


@dataclass
class Solved:
    graph: int
    algorithm: str
    function: str | None
    p: float | None
    tree: object
    stats: RunStats
    text: str
    compare: object = None
    properties: list = field(default_factory=list)
    wisp: object = None
    enumerated: int = 0


@dataclass
class JobOutput:
    solves: list[Solved] = field(default_factory=list)
    dist: dict[int, tuple[float, ...]] = field(default_factory=dict)  # graph -> dijkstra_classic


@dataclass(frozen=True)
class Workload:
    """One input family and the calls each job makes on it.

    ``solves`` lists ``(algorithm, function, p)`` solver calls, named as on
    the `minpath solve` command line, made on each of the job's ``batch``
    graphs. ``sta_n`` > 0 adds an `sta` call on a separate ring graph of
    that size, and ``ring`` adds a ring to the job's graphs so every vertex
    is reachable.
    """

    name: str
    n: tuple[int, int]
    m_per_n: tuple[int, int]
    solves: tuple[tuple[str, str, float | None], ...]
    batch: int = 1
    ring: bool = False
    sta_n: int = 0
    dijkstra: bool = False
    verify: bool = False

    def make_inputs(self, seed: int, index: int) -> Inputs:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        lo, hi = self.m_per_n
        sizes = [rng.randint(*self.n) for _ in range(self.batch)]
        texts = [_graph_text(rng, n, rng.randint(lo * n, hi * n), self.ring) for n in sizes]
        if self.sta_n:
            texts.append(_graph_text(rng, self.sta_n, 4 * self.sta_n, True))
        return Inputs(tuple(texts), rng.randrange(min(sizes)))

    def setup(self, inputs: Inputs, tracer) -> Setup:
        with tracer.span("graphs.parse"):
            graphs = [parse_graph(text) for text in inputs.texts]
        with tracer.span("paths.build"):
            funcs = {}
            for b, graph in enumerate(graphs[: self.batch]):
                table = tracer.detour_table(graph)
                funcs.update({(b, f, p): build_function(graph, table, f, p) for _, f, p in self.solves})
            job_funcs = {key: tracer.traced(func) for key, func in funcs.items()}
        return Setup(graphs, funcs, job_funcs)

    def run_job(self, setup: Setup, source: int, tracer) -> JobOutput:
        system = PathSystem.simple(source)
        out = JobOutput()
        for b, graph in enumerate(setup.graphs[: self.batch]):
            for algorithm, function, p in self.solves:
                out.solves.append(self._solve(graph, b, source, system, setup.job_funcs[(b, function, p)], algorithm, function, p, tracer))
            if self.dijkstra:
                with tracer.span("engines.dijkstra_classic"):
                    out.dist[b] = dijkstra_classic(graph, source)
        if self.sta_n:
            with tracer.span("engines.sta"):
                tree = SOLVERS["sta"](setup.graphs[self.batch], 0)
            # sta returns no RunStats; its round count is the one the CLI prints.
            stats = RunStats(rounds=len(tree.order) - 1)
            with tracer.span("engines.format"):
                text = format_tree(tree, stats)
            out.solves.append(Solved(self.batch, "sta", None, None, tree, stats, text))
        return out

    def _solve(self, graph, b, source, system, func, algorithm, function, p, tracer) -> Solved:
        with tracer.span(f"engines.{algorithm}"):
            tree, stats = SOLVERS[algorithm](graph, source, system, func)
        with tracer.span("engines.format"):
            text = format_tree(tree, stats)
        solved = Solved(b, algorithm, function, p, tree, stats, text)
        if self.verify:
            with tracer.span("verify.oracle"):
                oracle = oracle_min(graph, source, system, func)
            with tracer.span("verify.compare"):
                solved.compare = compare_tree_to_oracle(tree, oracle)
            with tracer.span("verify.check_property"):
                solved.properties = [
                    check_property(graph, source, system, func, prop)
                    for prop in DEF1_PROPERTIES
                    if prop in func.declared_properties
                ]
            with tracer.span("verify.check_wisp"):
                solved.wisp = check_wisp(graph, source, system, func)
            solved.enumerated = oracle.enumerated_count
        return solved

    @property
    def outputs(self) -> int:
        """Solver outputs (trees) each job produces and the checks examine."""
        return self.batch * len(self.solves) + bool(self.sta_n)

    def check(self, setup: Setup, source: int, out: JobOutput) -> tuple[list[str], list[str], int]:
        """Return (problems, known misses, failed outputs) for one job.

        A known miss is an embfa tree that misses the oracle on an instance
        whose minima are not weakly inherited (acceptance criterion 3's
        documented obstruction). Every other failed check is a problem. An
        output fails when it has either.
        """
        problems: list[str] = []
        known: list[str] = []
        failed = 0
        for s in out.solves:
            label = s.algorithm if s.function is None else f"{s.algorithm}/{s.function}"
            issues, misses = self._check_solved(setup, source, s, out.dist.get(s.graph))
            problems += [f"{label}: {msg}" for msg in issues]
            known += [f"{label}: {msg}" for msg in misses]
            failed += bool(issues or misses)
        return problems, known, failed

    def _check_solved(self, setup: Setup, source: int, s: Solved, dist) -> tuple[list[str], list[str]]:
        graph = setup.graphs[s.graph]
        root = 0 if s.algorithm == "sta" else source
        order, problems = arborescence(s.tree, graph, root)
        if s.tree.covered != reachable(graph, root):
            problems.append("covered set differs from the reachable set")
        if problems or s.function is None:
            return problems, []
        func = setup.funcs[(s.graph, s.function, s.p)]
        problems += fold_mismatches(s.tree, graph, func, order)
        if dist is not None:
            problems += classic_disagreement(s.tree, dist)
        if not self.verify:
            return problems, []
        problems += [f"declared {r.property} violated: {r.witness}" for r in s.properties if r.violated]
        if s.wisp.violated and "WISP" in func.declared_properties:
            problems.append(f"declared WISP violated: {s.wisp.witness}")
        if s.compare.violated:
            message = f"tree misses the oracle: {s.compare.witness}"
            if s.algorithm == "embfa" and s.wisp.violated:
                return problems, [message]
            problems.append(message)
        return problems, []

    def counts(self, setup: Setup, out: JobOutput) -> dict:
        """The job's exact counts, which must repeat for the same inputs."""
        solves = []
        for s in out.solves:
            graph = setup.graphs[s.graph]
            base = {"eda": max_degree(graph) * graph.n * graph.n, "embfa": graph.n * graph.m}.get(s.algorithm, 0)
            digest = hashlib.sha256(s.text.encode()).hexdigest()
            solves.append([s.graph, s.algorithm, s.function, s.p, s.stats.extend_calls, s.stats.relaxations, s.stats.rounds, base, digest])
        return {
            "solves": solves,
            "enumerated_paths": sum(s.enumerated for s in out.solves),
            "oracle_mismatches": sum(1 for s in out.solves if s.compare is not None and s.compare.violated),
            "format_bytes": sum(len(s.text.encode()) for s in out.solves),
            "dist": hashlib.sha256(repr(sorted(out.dist.items())).encode()).hexdigest(),
        }

    def cli_cases(self, source: int, out: JobOutput) -> list[tuple[int, list[str], str]]:
        """`minpath solve` arguments (minus --graph) for each of a job's solves.

        Each case is (graph index, arguments, expected stdout).
        """
        cases = []
        for s in out.solves:
            if s.algorithm == "sta":
                cases.append((s.graph, ["--source", "0", "--algorithm", "sta"], s.text))
                continue
            args = ["--source", str(source), "--algorithm", s.algorithm, "--function", s.function]
            if s.p is not None:
                args += ["--p", repr(s.p)]
            cases.append((s.graph, args, s.text))
        return cases


def _graph_text(rng: random.Random, n: int, m: int, ring: bool) -> str:
    graph = generate_random(n, m, *WEIGHTS, "directed", rng.getrandbits(32))
    if ring:
        # Shuffled in among the other roads: a ring in ascending key order
        # would let one embfa scan chain paths of length n around it.
        ends = [(r.tail, r.head, r.weight) for r in graph.roads]
        ends += [(i, (i + 1) % n, rng.uniform(*WEIGHTS)) for i in range(n)]
        rng.shuffle(ends)
        graph = Graph(graph.vertices, [Road(key, *end) for key, end in enumerate(ends)])
    return serialize_graph(graph)


def build_function(graph: Graph, table: DetourTable, name: str, p: float | None):
    """The cost function named as on the command line, sharing ``table``."""
    if name == "classic":
        return classic_distance(graph)
    if name == "antirisk":
        return anti_risk(graph, table)
    if name == "blocked-cost":
        return blocked_cost(graph, p, table)
    return expected_cost(graph, p, table)


def reachable(graph: Graph, source: int) -> set[int]:
    """Vertices reachable from ``source``, by a BFS over the road list."""
    out: dict[int, list[int]] = {}
    for road in graph.roads:
        out.setdefault(road.tail, []).append(road.head)
    seen = {source}
    queue = deque([source])
    while queue:
        for v in out.get(queue.popleft(), ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def arborescence(tree, graph: Graph, source: int) -> tuple[list[int], list[str]]:
    """Check that the parent links form an arborescence rooted at ``source``.

    Returns the covered vertices in BFS order from the source along the
    parent links, and the problems found.
    """
    covered = tree.covered
    if tree.source != source or source not in covered:
        return [], ["source is not the covered root"]
    if set(tree.parent) != covered - {source}:
        return [], ["parent links do not match the covered set"]
    children: dict[int, list[int]] = {}
    for v, (u, key) in tree.parent.items():
        if not graph.has_road(key):
            return [], [f"vertex {v}: unknown road {key}"]
        road = graph.road(key)
        if road.tail != u or road.head != v:
            return [], [f"vertex {v}: road {key} does not run {u}->{v}"]
        children.setdefault(u, []).append(v)
    order = [source]
    for u in order:
        order.extend(children.get(u, ()))
    if len(order) != len(covered):
        return [], ["parent links contain a cycle"]
    if tree.order is not None and (tree.order[0] != source or sorted(tree.order) != sorted(covered)):
        return [], ["discovery order does not list the covered set"]
    return order, []


def fold_mismatches(tree, graph: Graph, func, order: list[int]) -> list[str]:
    """Vertices whose value differs from ``path_value(func, tree.path_to(v))``.

    Walks the tree from the root, so each vertex costs one ``extend`` on
    its parent's tree path; by induction this equals the full fold.
    """
    source = order[0]
    if tree.value.get(source) != func.base:
        return [f"vertex {source}: value {tree.value.get(source)!r} != base {func.base!r}"]
    paths = {source: Path(graph, source)}
    for v in order[1:]:
        u, key = tree.parent[v]
        expected = func.extend(tree.value[u], paths[u], graph.road(key))
        if tree.value.get(v) != expected:
            return [f"vertex {v}: value {tree.value.get(v)!r} != fold {expected!r}"]
        paths[v] = paths[u].extended(key)
    return []


def classic_disagreement(tree, dist: tuple[float, ...]) -> list[str]:
    """A classic tree's values must equal dijkstra_classic's exactly."""
    for v, d in enumerate(dist):
        if tree.value.get(v, float("inf")) != d:
            return [f"vertex {v}: value {tree.value.get(v)!r} != dijkstra {d!r}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="detour-source",
            n=(150, 150),
            m_per_n=(4, 4),
            solves=(("eda", "antirisk", None),),
        ),
        Workload(
            name="label-large",
            n=(1500, 1500),
            m_per_n=(4, 4),
            solves=(("eda", "classic", None), ("embfa", "classic", None)),
            ring=True,
            sta_n=500,
            dijkstra=True,
        ),
        Workload(
            name="verify-small",
            n=(7, 10),
            m_per_n=(1, 3),
            solves=(("eda", "antirisk", None), ("eda", "blocked-cost", 0.3), ("embfa", "expected-cost", 0.7)),
            batch=25,
            verify=True,
        ),
    )
}
