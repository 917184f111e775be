"""Solvers: generalized label-setting, generalized relaxation, spanning tree.

All three procedures are deterministic over immutable inputs. Tie-breaks
are fixed (smallest new vertex id, then smallest tail id, then smallest
road key) so identical inputs give identical trees, orders, and stats.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph
from .paths import (
    INF,
    NDSP,
    NO_NEGATIVE_CIRCLES,
    OP,
    SOPSP,
    WISP,
    ZERO_COST,
    Path,
    PathFunction,
    PathSystem,
    format_path,
    implied_properties,
)

__all__ = [
    "RunStats",
    "ShortestPathTree",
    "PropertyRefusalError",
    "NegativeCircleError",
    "UnreachableVertexError",
    "sta",
    "eda",
    "embfa",
    "format_tree",
]


class PropertyRefusalError(ValueError):
    """The path function does not declare the properties a solver needs."""


class NegativeCircleError(RuntimeError):
    """Relaxation kept improving past the simple-path horizon."""


class UnreachableVertexError(ValueError):
    """Spanning-tree construction found a vertex the source cannot reach."""


@dataclass
class RunStats:
    """Exact, deterministic operation counts for one solver run.

    ``vetoed`` counts the roads out of embfa's returned tree whose
    extension of the tail's tree path falls below the head's tree value,
    each road once (see `embfa`); it is not part of the text form.
    """

    extend_calls: int = 0
    relaxations: int = 0
    rounds: int = 0
    vetoed: int = 0

    def format(self) -> str:
        return f"# extend_calls={self.extend_calls} relaxations={self.relaxations} rounds={self.rounds}"


@dataclass
class ShortestPathTree:
    """Arborescence rooted at the source, with per-vertex value and path.

    ``source`` is the root; its tree path is the trivial path. ``paths``
    holds the tree path of every covered vertex, as the solver built it;
    each path carries its graph. Three views of ``paths`` are derived once,
    on first access: ``parent`` maps every covered vertex except the source
    to its tree predecessor ``(vertex, road key)``, ``covered`` is the set
    of covered vertices, and ``order`` lists them as the solver added them
    (discovery order for `sta`/`eda`, breadth-first from the source for
    `embfa`). ``value`` is empty for trees built by `sta`, which is
    structural only. ``exact`` is False when `embfa` cannot certify that
    every value is the system minimum.
    """

    source: int
    paths: dict[int, Path]
    value: dict[int, float]
    exact: bool = True

    @cached_property
    def parent(self) -> dict[int, tuple[int, int]]:
        return {v: (path.vertices[-2], path.roads[-1]) for v, path in self.paths.items() if v != self.source}

    @cached_property
    def covered(self) -> set[int]:
        return set(self.paths)

    @cached_property
    def order(self) -> list[int]:
        return list(self.paths)

    def path_to(self, vertex: int) -> Path:
        """The tree path to a covered vertex."""
        if vertex not in self.paths:
            raise ValueError(f"vertex {vertex} is not covered by the tree")
        return self.paths[vertex]


def _check_source(graph: Graph, source: int, system: PathSystem) -> None:
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range")
    if system.source != source:
        raise ValueError(f"path system source {system.source} does not match solve source {source}")


def _require_properties(func: PathFunction, system: PathSystem, needed: set[str], solver: str) -> None:
    missing = needed - implied_properties(func.declared_properties, system)
    if missing:
        raise PropertyRefusalError(
            f"path function {func.name!r} does not declare or imply "
            f"{', '.join(sorted(missing))}, required by {solver} "
            "(declare the flags in declared_properties if the function has them)"
        )


def sta(graph: Graph, source: int) -> ShortestPathTree:
    """Spanning arborescence rooted at ``source`` covering every vertex.

    `eda` over all paths with the zero cost: every candidate ties, so each
    round takes the frontier road with the smallest head, then the smallest
    tail, then the smallest key. The source must reach every vertex;
    otherwise one unreachable vertex is named in the error. Values are not
    populated.
    """
    tree, _ = eda(graph, source, PathSystem.all_paths(source), ZERO_COST)
    if len(tree.paths) < graph.n:
        missing = min(v for v in range(graph.n) if v not in tree.paths)
        raise UnreachableVertexError(f"vertex {missing} unreachable from source")
    return ShortestPathTree(source, tree.paths, {})


def eda(
    graph: Graph,
    source: int,
    system: PathSystem,
    func: PathFunction,
) -> tuple[ShortestPathTree, RunStats]:
    """Generalized label setting: grow the tree by the cheapest frontier pair.

    Each round selects, over pairs (u covered, v uncovered) whose tree-path
    extension belongs to the system, a pair minimizing the extended value,
    and fixes v with u as parent. Candidate values are evaluated once, when
    their tail joins the tree: a tree path never changes after that, so the
    cached per-vertex best label equals the full frontier minimum. Each
    improved label is pushed on a heap keyed (value, vertex, tail, key);
    entries of covered vertices are skipped when popped, so a round costs
    O(log m) and picks the smallest value, then the smallest vertex.

    Requires a function declaring (or implying) SOPSP, WISP and NDSP; the
    flags are trusted, not re-proven. Vertices unreachable within the system
    are absent from the tree.
    """
    _check_source(graph, source, system)
    _require_properties(func, system, {SOPSP, WISP, NDSP}, "eda")
    stats = RunStats()
    value: dict[int, float] = {source: func.base}
    paths: dict[int, Path] = {source: Path(graph, source)}  # the tree path of each covered vertex
    labels: dict[int, tuple[float, int, int]] = {}  # best (value, tail, key) per frontier vertex
    frontier: list[tuple[float, int, int, int]] = []  # (value, vertex, tail, key), lazily deleted

    def scan(u: int) -> None:
        path_u = paths[u]
        value_u = value[u]
        for road in graph.out_roads(u):
            v = road.head
            if v in paths:
                continue
            # u's tree path holds only covered vertices, so it admits an uncovered v
            candidate = func.apply(value_u, path_u, road)
            stats.extend_calls += 1
            label = (candidate, u, road.key)
            if v not in labels or label < labels[v]:
                labels[v] = label
                heapq.heappush(frontier, (candidate, v, u, road.key))
                stats.relaxations += 1

    scan(source)
    while frontier:
        candidate, v, u, key = heapq.heappop(frontier)
        if v in paths:
            continue  # stale entry: v was fixed by a smaller label
        paths[v] = paths[u].extended(key)
        value[v] = candidate
        stats.rounds += 1
        scan(v)
    return ShortestPathTree(source, paths, value), stats


def embfa(
    graph: Graph,
    source: int,
    system: PathSystem,
    func: PathFunction,
) -> tuple[ShortestPathTree, RunStats]:
    """Generalized relaxation in Moore's passes, with an exactness certificate.

    Pass 1 scans the source. Each later pass scans, in ascending id order,
    the tails whose value changed in the previous pass; a tail's roads are
    scanned in `out_roads` (key) order, extending the tail's stored path and
    value. A tail that still holds the path it was last scanned with (it
    relaxed in the previous pass ahead of its own scan there) is skipped:
    every candidate would repeat, so no relaxation is lost. A road (u, v)
    relaxes when the extension stays inside the system and the extended
    value improves on v's current value; v then adopts the whole extended
    path. A reachable vertex whose every route costs ``inf`` adopts the
    first infinite candidate so the covered set still matches the system's
    reachable set. Uncovered vertices (the initial "no path yet" state) are
    never scanned. Scans skip roads the system vetoes.

    A road relaxed in pass k extends a stored path of at least k-1 roads,
    and simple-path minima need at most n-1 roads, so any relaxation that
    still succeeds in pass n certifies a negative circle and raises. A pass
    with no relaxation ends the loop; ``stats.rounds`` is the number of
    passes executed.

    The returned tree is assembled from the recorded relaxation roads: a
    link is recorded only when it keeps the link map acyclic and does not
    enter the source. Values are then folded down the links from the
    trivial source path, so every tree path is simple and its value is its
    fold: the output is always a sound arborescence.

    A final certificate pass reads only that tree. It extends every tree
    path by each road out of its vertex once, whether or not the system
    admits the extension, and counts each candidate below its head's tree
    value in ``stats.vetoed``; these calls count in ``extend_calls``.
    ``tree.exact`` is True only when no road is counted. The tree values
    are then a fixed point of relaxation over all walks, so by induction
    on walk length order preservation bounds each value by every walk to
    its vertex, and so by every member path, while the tree path attains
    it: every value is the system minimum. This needs order preservation
    on walks, which holds for all four built-in functions. With a counted
    road the tree may miss a minimum that is not weakly inherited (no
    member path to it has only minimum prefixes), so ``exact`` is False;
    the values may still be minima.

    Requires a function declaring (or implying) order preservation and
    absence of negative circles. The gate does not ask for weak inheritance
    on simple systems: ``exact`` is sound without it, and an instance
    without it is reported through ``exact`` rather than refused.
    """
    _check_source(graph, source, system)
    _require_properties(func, system, {OP, NO_NEGATIVE_CIRCLES}, "embfa")
    stats = RunStats()
    n = graph.n
    paths: dict[int, Path] = {source: Path(graph, source)}
    value: dict[int, float] = {source: func.base}
    parent: dict[int, tuple[int, int]] = {}

    def link_would_cycle(tail: int, head: int) -> bool:
        at = tail
        while at != head:
            if at == source:
                return False
            at = parent[at][0]
        return True

    active = [source]
    scanned: dict[int, Path] = {}  # the stored path each tail was last scanned with
    for rnd in range(1, n + 1):
        stats.rounds = rnd
        relaxed: set[int] = set()
        for u in active:
            path_u, value_u = paths[u], value[u]
            if scanned.get(u) is path_u:
                continue  # unchanged since its last scan, so every candidate would repeat
            scanned[u] = path_u
            for road in graph.out_roads(u):
                v = road.head
                if not system.admits_extension(path_u, v):
                    continue
                candidate = func.apply(value_u, path_u, road)
                stats.extend_calls += 1
                if candidate < value.get(v, INF) or (v not in paths and candidate == INF):
                    if rnd == n:
                        raise NegativeCircleError(
                            f"relaxation still improves vertex {v} via road {road.key} in round {n}; "
                            "the path function has a negative circle on this input"
                        )
                    paths[v] = path_u.extended(road.key)
                    value[v] = candidate
                    if not link_would_cycle(u, v):
                        parent[v] = (u, road.key)
                    stats.relaxations += 1
                    relaxed.add(v)
                    if v == u:  # a self-loop replaced the tail's own path
                        path_u, value_u = paths[u], value[u]
        if not relaxed:
            break
        active = sorted(relaxed)

    # Fold values down the link tree from the trivial source path, one
    # extension per covered vertex, breadth-first over the children lists.
    children: dict[int, list[tuple[int, int]]] = {}
    for v, (u, key) in parent.items():
        children.setdefault(u, []).append((v, key))
    chain_paths: dict[int, Path] = {source: Path(graph, source)}
    chain_values: dict[int, float] = {source: func.base}
    queue = [source]
    for u in queue:
        for v, key in children.get(u, ()):
            chain_values[v] = func.apply(chain_values[u], chain_paths[u], graph.road(key))
            stats.extend_calls += 1
            chain_paths[v] = chain_paths[u].extended(key)
            queue.append(v)

    # Certificate: one extension per road out of a tree vertex, member or
    # not. A candidate below its head's tree value is a vetoed improvement.
    for u in sorted(chain_paths):
        path_u, value_u = chain_paths[u], chain_values[u]
        for road in graph.out_roads(u):
            candidate = func.apply(value_u, path_u, road)
            stats.extend_calls += 1
            if candidate < chain_values.get(road.head, INF):
                stats.vetoed += 1
    return ShortestPathTree(source, chain_paths, chain_values, stats.vetoed == 0), stats


def format_tree(tree: ShortestPathTree, stats: RunStats) -> str:
    """Text form: one line per covered vertex in id order, plus a stats line.

    ``<v> value=<f-value or inf> path=<serialized path>``; trees without
    values (from `sta`) print ``value=-``.
    """
    lines = []
    for v in sorted(tree.covered):
        val = repr(tree.value[v]) if v in tree.value else "-"
        lines.append(f"{v} value={val} path={format_path(tree.path_to(v))}")
    lines.append(stats.format())
    return "\n".join(lines) + "\n"
