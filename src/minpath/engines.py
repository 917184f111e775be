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
    SIMPLE,
    SOPSP,
    WISP,
    ZERO_COST,
    Path,
    PathFunction,
    PathSystem,
    _require_properties,
    _require_source,
    format_path,
)

__all__ = [
    "RunStats",
    "ShortestPathTree",
    "NegativeCircleError",
    "UnreachableVertexError",
    "sta",
    "eda",
    "embfa",
    "format_tree",
]


class NegativeCircleError(RuntimeError):
    """A relaxation found a circle that lowers a value (see `embfa`)."""


class UnreachableVertexError(ValueError):
    """Spanning-tree construction found a vertex the source cannot reach."""


@dataclass
class RunStats:
    """Exact, deterministic operation counts for one solver run.

    For eda, ``rounds`` is the number of vertices it covered besides the
    source. For embfa, ``extend_calls`` counts the relaxation scans and the
    certificate pass, and ``rounds`` the passes, at most n. ``vetoed``
    counts the roads out of embfa's returned tree whose extension of the
    tail's tree path falls below the head's tree value, each road once
    (see `embfa`); it is not part of the text form.
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
        return {v: (path._road.tail, path._road.key) for v, path in self.paths.items() if v != self.source}

    @cached_property
    def covered(self) -> set[int]:
        return set(self.paths)

    @cached_property
    def order(self) -> list[int]:
        return list(self.paths)


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
    improved label is pushed on a heap keyed (value, vertex, tail, key),
    with the road after the key for growing v's path; entries of covered
    vertices are skipped when popped, so a round costs O(log m) and picks
    the smallest value, then the smallest vertex. The heap starts with the
    source's entry, whose road is None, and each pop of an uncovered vertex
    builds its tree path, fixes its value and scans its roads, so
    ``stats.rounds`` counts the covered vertices besides the source. Each
    result of ``extend`` that is not a plain non-NaN float goes through
    `PathFunction.checked`; the counts are kept in locals until the end.

    Requires a function declaring (or implying) SOPSP, WISP and NDSP; the
    flags are trusted, not re-proven. Vertices unreachable within the system
    are absent from the tree.
    """
    _require_source(graph, source, system)
    _require_properties(func, system, {SOPSP, WISP, NDSP}, "eda")
    extend, checked, out = func.extend, func.checked, graph._out
    extend_calls = relaxations = 0
    value: dict[int, float] = {}
    paths: dict[int, Path] = {}  # the tree path of each covered vertex
    labels: dict[int, tuple] = {}  # best frontier entry per uncovered vertex
    frontier: list[tuple] = [(func.base, source, -1, -1, None)]  # (value, vertex, tail, key, road), lazily deleted
    while frontier:
        value_u, u, tail, _, road = heapq.heappop(frontier)
        if u in paths:
            continue  # stale entry: u was fixed by a smaller label
        paths[u] = path_u = Path(graph, source) if road is None else paths[tail]._grown(road)
        value[u] = value_u
        for road in out[u]:
            v = road.head
            if v in paths:
                continue
            # u's tree path holds only covered vertices, so it admits an uncovered v
            candidate = extend(value_u, path_u, road)
            if type(candidate) is not float or candidate != candidate:
                candidate = checked(candidate, road)
            extend_calls += 1
            label = (candidate, v, u, road.key, road)  # keys are unique, so comparison stops before the road
            best = labels.get(v)
            if best is None or label < best:
                labels[v] = label
                heapq.heappush(frontier, label)
                relaxations += 1
    return ShortestPathTree(source, paths, value), RunStats(extend_calls, relaxations, len(paths) - 1)


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
    path. An uncovered vertex adopts even an infinite candidate, so the
    covered set still matches the system's reachable set. Uncovered
    vertices (the initial "no path yet" state) are never scanned. Scans
    skip roads the system vetoes. A covered head v can lie on the tail's
    tree path only at depth ``len(paths[v])``, since every prefix of a tree
    path is its terminal's stored path, and an uncovered head lies on no
    tree path. So a scan collects its tail's tree path into a set, from the
    tail toward the root, and stops at the depth of the shallowest covered
    head it meets: each road tests in O(1), a scan that meets no covered
    head costs O(out-degree) whatever the depth (a ring), and one whose
    covered heads are the tail's parent or children walks at most one road
    (an undirected line). Results of ``extend`` are checked and counted as in
    `eda`.

    The stored paths form one tree: every covered vertex's stored path is
    its parent's plus one road, and its stored value is that path's fold.
    When v relaxes, its old subtree is disassembled (Tarjan's subtree
    disassembly): v's descendants lose their paths and values, are skipped
    if a pass reaches them, and are re-adopted by later scans. Each vertex's
    children are an insertion-ordered dict, so detaching v from its parent
    is O(1) whatever the parent's child count, and a disassembly costs the
    size of v's old subtree. A relaxation whose head already lies on the
    tail's tree path (the source included) closes a circle that lowers the
    head's value, so it raises `NegativeCircleError`; only an all-paths
    system admits one. Tree paths are therefore simple, and pass k only
    builds paths of at least k roads, so some pass among the first n
    relaxes nothing and ends the loop; ``stats.rounds`` is the number of
    passes executed. The returned tree lists its vertices breadth-first
    from the source.

    A final certificate pass reads only that tree, on the breadth-first walk
    that lists it. It extends every tree path by each road out of its vertex
    once, whether or not the system admits the extension, and counts each
    candidate below its head's tree value in ``stats.vetoed``; these calls
    count in ``extend_calls``.
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
    _require_source(graph, source, system)
    _require_properties(func, system, {OP, NO_NEGATIVE_CIRCLES}, "embfa")
    paths: dict[int, Path] = {source: Path(graph, source)}  # the tree path of each covered vertex
    value: dict[int, float] = {source: func.base}
    children: dict[int, dict[int, None]] = {}  # tree children of each covered vertex, in adoption order

    extend, checked, out, simple = func.extend, func.checked, graph._out, system.kind == SIMPLE
    extend_calls = relaxations = rounds = vetoed = 0
    active = [source]
    scanned: dict[int, Path] = {}  # the stored path each tail was last scanned with
    while True:
        rounds += 1
        relaxed: set[int] = set()
        for u in active:
            path_u = paths.get(u)
            if path_u is None or scanned.get(u) is path_u:
                continue  # detached with an ancestor's subtree, or unchanged since its last scan
            scanned[u] = path_u
            value_u = value[u]
            on_path, link = {u}, path_u  # the vertices of u's tree path from link's terminal to u
            for road in out[u]:
                v = road.head
                value_v = value.get(v)  # None for an uncovered head, which lies on no tree path
                if value_v is not None:
                    depth = paths[v]._length  # u's tree path can hold v only at v's own depth
                    while link._length > depth:
                        link = link._prefix
                        on_path.add(link.terminal)
                    if simple and v in on_path:
                        continue  # the simple system admits no revisit
                candidate = extend(value_u, path_u, road)
                if type(candidate) is not float or candidate != candidate:
                    candidate = checked(candidate, road)
                extend_calls += 1
                if value_v is None or candidate < value_v:
                    if value_v is not None:
                        if v in on_path:
                            raise NegativeCircleError(
                                f"road {road.key} from vertex {u} lowers vertex {v}, which lies on {u}'s tree path; "
                                "the path function has a negative circle on this input"
                            )
                        # Subtree disassembly: v's descendants lose their paths
                        # until later scans re-adopt them.
                        del children[paths[v]._prefix.terminal][v]
                        detached = list(children.pop(v, ()))
                        for w in detached:
                            del paths[w], value[w]
                            detached.extend(children.pop(w, ()))
                    paths[v] = path_u._grown(road)
                    value[v] = candidate
                    children.setdefault(u, {})[v] = None
                    relaxations += 1
                    relaxed.add(v)
        if not relaxed:
            break
        active = sorted(relaxed)

    # Certificate, on the breadth-first walk that lists the tree: one
    # extension per road out of a tree vertex, member or not. A candidate
    # below its head's tree value is a vetoed improvement.
    order = [source]
    for u in order:
        path_u, value_u = paths[u], value[u]
        for road in out[u]:
            candidate = extend(value_u, path_u, road)
            if type(candidate) is not float or candidate != candidate:
                candidate = checked(candidate, road)
            extend_calls += 1
            if candidate < value.get(road.head, INF):
                vetoed += 1
        order.extend(children.get(u, ()))
    stats = RunStats(extend_calls, relaxations, rounds, vetoed)
    return ShortestPathTree(source, {v: paths[v] for v in order}, value, vetoed == 0), stats


def format_tree(tree: ShortestPathTree, stats: RunStats) -> str:
    """Text form: one line per covered vertex in id order, plus a stats line.

    ``<v> value=<f-value or inf> path=<serialized path>``; trees without
    values (from `sta`) print ``value=-``. Each path's text is its parent
    vertex's text plus one road, so ``tree.paths`` is read parents-first, the
    order every solver builds it in. A path whose parent vertex comes later
    in ``tree.paths``, or holds another object than this path's one-road
    prefix (an equal path built apart, as in a hand-built tree), is
    serialized whole by `format_path`; the text is the same either way.
    """
    paths, value = tree.paths, tree.value
    text: dict[int, str] = {}
    for v, path in paths.items():
        prefix = path._prefix
        if prefix is not None:
            u = prefix.terminal
            if u in text and paths[u] is prefix:
                text[v] = f"{text[u]} -> {path.terminal}[k{path._road.key}]"
                continue
        text[v] = format_path(path)
    lines = [f"{v} value={repr(value[v]) if v in value else '-'} path={text[v]}" for v in sorted(paths)]
    lines.append(stats.format())
    return "\n".join(lines) + "\n"
