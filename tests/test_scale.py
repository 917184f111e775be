"""Exact references at n = 200-300, where the oracle's enumeration cannot go.

Two references give the minima of the detour functions without listing
paths, and each takes its detours from `dijkstra_classic` on the graph
without the road, never from a `DetourTable`, so that a table fault shows:

- Blocked-cost's extension is ``p*d + w + value`` with ``d`` fixed per
  road, so its minima are classic distances on the weights ``p*d + w``,
  dropping the roads whose ``d`` is infinite. Float addition commutes, so
  the two folds are the same floats.
- Anti-risk's ``max(d, w + x)`` and classic's ``x + w`` are nondecreasing
  in ``x`` and never below it, so no circle lowers a value, and their
  minima over simple paths are the fixed point of label-correcting
  relaxation over walks.

A road u->v is tight from an origin when ``base[u] + w == base[v]`` there.
Only a tight road can lie on a shortest path from the origin, so only its
deletion needs a search; every other deletion leaves the base row as it is.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from minpath import (
    INF,
    Graph,
    PathSystem,
    Road,
    Vertex,
    anti_risk,
    blocked_cost,
    classic_distance,
    dijkstra_classic,
    eda,
    embfa,
    generate_random,
    remove_road,
)


def ring_with_chords(n: int, seed: int) -> Graph:
    """Roads v -> v+1 of weight 1 around a ring, plus 2n random chords of weight 1-10."""
    rng = random.Random(seed)
    roads = [Road(v, v, (v + 1) % n, 1.0) for v in range(n)]
    for key in range(n, 3 * n):
        tail = rng.randrange(n)
        head = (tail + rng.randrange(1, n)) % n
        roads.append(Road(key, tail, head, rng.uniform(1.0, 10.0)))
    return Graph([Vertex(v) for v in range(n)], roads)


# Each graph with a source from which a quarter or more of every function's
# values are finite; the fewest are blocked-cost's 82 of 250 on directed-250,
# whose vertex 0 has no road out.
GRAPHS = {
    "ring-200": (lambda: ring_with_chords(200, 1), 0),
    "ring-300": (lambda: ring_with_chords(300, 2), 0),
    "directed-250": (lambda: generate_random(250, 500, 0.0, 10.0, "directed", 3), 9),
    "directed-300": (lambda: generate_random(300, 900, 0.0, 10.0, "directed", 4), 0),
    "undirected-200": (lambda: generate_random(200, 300, 0.0, 10.0, "undirected", 5), 0),
    "undirected-300": (lambda: generate_random(300, 450, 0.0, 10.0, "undirected", 6), 0),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def case(request):
    build, source = GRAPHS[request.param]
    return build(), source


class Detours:
    """``d(road, origin)``: the distance from origin to the road's head without the road."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.rows: dict[int, tuple[float, ...]] = {}
        self.cut: dict[tuple[int, int], float] = {}

    def __call__(self, road: Road, origin: int) -> float:
        base = self.rows.get(origin)
        if base is None:
            base = self.rows[origin] = dijkstra_classic(self.graph, origin)
        if base[road.tail] + road.weight != base[road.head]:
            return base[road.head]  # not tight: no shortest path from origin uses it
        key = (road.key, origin)
        if key not in self.cut:
            self.cut[key] = dijkstra_classic(remove_road(self.graph, road.key), origin)[road.head]
        return self.cut[key]


@pytest.fixture(scope="module")
def detour(case):
    """One `Detours` per graph, so both solvers share its searches."""
    return Detours(case[0])


def walk_relaxation(graph: Graph, source: int, step) -> list[float]:
    """Fixed point of FIFO relaxation over walks, per vertex; a first reach
    adopts even ``inf``, and a vertex never reached reads ``inf``."""
    value = {source: 0.0}
    queue, queued = deque([source]), {source}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        for road in graph.out_roads(u):
            candidate = step(value[u], road)
            v = road.head
            if v not in value or candidate < value[v]:
                value[v] = candidate
                if v not in queued:
                    queue.append(v)
                    queued.add(v)
    return [value.get(v, INF) for v in range(graph.n)]


def values(tree, n: int) -> list[float]:
    return [tree.value.get(v, INF) for v in range(n)]


def check_solver(graph, source, func, solver, reference):
    """The solver's values equal the reference, bit for bit, over a certified
    tree, and a quarter or more of them are finite."""
    tree, _ = solver(graph, source, PathSystem.simple(source), func)
    assert values(tree, graph.n) == list(reference)
    assert tree.exact
    assert 4 * sum(value < INF for value in reference) >= graph.n


def check_blocked_cost(case, detour, solver):
    graph, source = case
    p = 0.3
    derived = []
    for road in graph.roads:
        d = detour(road, road.tail)
        if d < INF:
            derived.append(Road(road.key, road.tail, road.head, p * d + road.weight))
    reference = dijkstra_classic(Graph(graph.vertices, derived), source)
    check_solver(graph, source, blocked_cost(graph, p), solver, reference)


def test_blocked_cost_is_classic_on_derived_weights(case, detour):
    check_blocked_cost(case, detour, eda)


def test_blocked_cost_is_classic_on_derived_weights_embfa(case, detour):
    check_blocked_cost(case, detour, embfa)


def check_anti_risk(case, detour, solver):
    graph, source = case
    reference = walk_relaxation(graph, source, lambda x, road: max(detour(road, source), road.weight + x))
    check_solver(graph, source, anti_risk(graph), solver, reference)


def test_anti_risk_is_a_relaxation_over_walks(case, detour):
    check_anti_risk(case, detour, eda)


def test_anti_risk_is_a_relaxation_over_walks_embfa(case, detour):
    check_anti_risk(case, detour, embfa)


@pytest.mark.parametrize("solver", [eda, embfa])
def test_classic_is_a_relaxation_over_walks(case, solver):
    graph, source = case
    reference = walk_relaxation(graph, source, lambda x, road: x + road.weight)
    check_solver(graph, source, classic_distance(graph), solver, reference)
