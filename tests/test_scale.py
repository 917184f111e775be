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
    """Roads v -> v+1 of weight 1 around a ring, plus n/2 random chords of weight 1-10."""
    rng = random.Random(seed)
    roads = [Road(v, v, (v + 1) % n, 1.0) for v in range(n)]
    for key in range(n, n + n // 2):
        tail = rng.randrange(n)
        head = (tail + rng.randrange(1, n)) % n
        roads.append(Road(key, tail, head, rng.uniform(1.0, 10.0)))
    return Graph([Vertex(v) for v in range(n)], roads)


GRAPHS = {
    "ring-200": lambda: ring_with_chords(200, 1),
    "ring-300": lambda: ring_with_chords(300, 2),
    "directed-250": lambda: generate_random(250, 500, 0.0, 10.0, "directed", 3),
    "directed-300": lambda: generate_random(300, 900, 0.0, 10.0, "directed", 4),
    "undirected-200": lambda: generate_random(200, 300, 0.0, 10.0, "undirected", 5),
    "undirected-300": lambda: generate_random(300, 450, 0.0, 10.0, "undirected", 6),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


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
def detour(graph):
    """One `Detours` per graph, so both solvers share its searches."""
    return Detours(graph)


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


def check_blocked_cost(graph, detour, solver):
    p = 0.3
    derived = []
    for road in graph.roads:
        d = detour(road, road.tail)
        if d < INF:
            derived.append(Road(road.key, road.tail, road.head, p * d + road.weight))
    reference = dijkstra_classic(Graph(graph.vertices, derived), 0)
    tree, _ = solver(graph, 0, PathSystem.simple(0), blocked_cost(graph, p))
    assert values(tree, graph.n) == list(reference)
    assert tree.exact


def test_blocked_cost_is_classic_on_derived_weights(graph, detour):
    check_blocked_cost(graph, detour, eda)


def test_blocked_cost_is_classic_on_derived_weights_embfa(graph, detour):
    check_blocked_cost(graph, detour, embfa)


def check_anti_risk(graph, detour, solver):
    reference = walk_relaxation(graph, 0, lambda x, road: max(detour(road, 0), road.weight + x))
    tree, _ = solver(graph, 0, PathSystem.simple(0), anti_risk(graph))
    assert values(tree, graph.n) == reference
    assert tree.exact


def test_anti_risk_is_a_relaxation_over_walks(graph, detour):
    check_anti_risk(graph, detour, eda)


def test_anti_risk_is_a_relaxation_over_walks_embfa(graph, detour):
    check_anti_risk(graph, detour, embfa)


@pytest.mark.parametrize("solver", [eda, embfa])
def test_classic_is_a_relaxation_over_walks(graph, solver):
    reference = walk_relaxation(graph, 0, lambda x, road: x + road.weight)
    tree, _ = solver(graph, 0, PathSystem.simple(0), classic_distance(graph))
    assert values(tree, graph.n) == reference
