"""Shared fixtures and independent brute-force helpers for the test suite."""

from __future__ import annotations

import math
import random

import pytest

from minpath import PathFunction, PathSystem, generate_random, parse_graph, path_value

# Four-vertex network used throughout: s=0, a=1, b=2, t=3. All edges are
# undirected, so each one stores two opposite roads (keys 0..9).
DIAMOND_TEXT = """\
g 4 5
v 0 s
v 1 a
v 2 b
v 3 t
edge 0 1 1.0
edge 0 2 2.0
edge 1 2 1.0
edge 1 3 1.0
edge 2 3 2.0
"""


@pytest.fixture
def diamond():
    return parse_graph(DIAMOND_TEXT)


def random_instances(count, n_range, seed_base=0, mode="directed", weights=(0.0, 10.0)):
    """Deterministic instance stream: n drawn from ``n_range``, m from [n, 3n]."""
    lo, hi = weights
    for i in range(count):
        seed = seed_base + i
        rng = random.Random(seed)
        n = rng.randint(*n_range)
        m = rng.randint(n, 3 * n)
        yield seed, generate_random(n, m, lo, hi, mode, seed)


def brute_simple_paths(graph, source):
    """Independent enumerator of simple paths as (vertex tuple, key tuple).

    Deliberately separate from minpath.verify so it can serve as its oracle.
    """
    outgoing = {}
    for road in graph.roads:
        outgoing.setdefault(road.tail, []).append(road)
    for roads in outgoing.values():
        roads.sort(key=lambda r: r.key)
    found = []

    def rec(vertices, keys):
        found.append((tuple(vertices), tuple(keys)))
        for road in outgoing.get(vertices[-1], ()):
            if road.head not in vertices:
                rec(vertices + [road.head], keys + [road.key])

    rec([source], [])
    return found


def brute_min_distance(graph, source, target):
    """Minimum weight sum over simple paths, inf when unreachable."""
    best = float("inf")
    for vertices, keys in brute_simple_paths(graph, source):
        if vertices[-1] == target:
            total = sum(graph.road(k).weight for k in keys)
            if total < best:
                best = total
    return best


def assert_tree_invariants(tree, system=None, func=None, stats=None, extend_budget=None):
    """Structural checks every returned tree must satisfy.

    Arborescence in-degrees, prefix closure (each tree path is its parent's
    tree path plus the parent road), membership of every tree path, exact
    fold consistency of values, and optionally the extension budget.
    """
    assert tree.source in tree.covered
    assert set(tree.parent) == tree.covered - {tree.source}
    assert tree.order[0] == tree.source
    assert set(tree.order) == tree.covered
    assert len(tree.order) == len(tree.covered)
    for v in sorted(tree.covered):
        path = tree.paths[v]
        assert path.source == tree.source
        assert path.terminal == v
        assert set(path.vertices) <= tree.covered
        if system is not None:
            assert system.source == path.source
            if system == PathSystem.simple(path.source):
                assert len(set(path.vertices)) == len(path.vertices)
        if v != tree.source:
            u, key = tree.parent[v]
            assert tree.paths[u].extended(key) == path
        if func is not None:
            assert path_value(func, path) == tree.value[v]
    if stats is not None and extend_budget is not None:
        assert stats.extend_calls <= extend_budget


def simple_system(source=0):
    return PathSystem.simple(source)


def parity_length(graph):
    """Deliberately ill-behaved probe: parity of the floored path length.

    Declares nothing and violates the monotone properties on most inputs;
    used to confirm that the checkers can actually find violations. The
    extension rule re-sums the parent path, exercising history-dependent
    functions.
    """

    def extend(value, parent, road):
        total = road.weight
        for key in parent.roads:
            total += graph.road(key).weight
        return float(math.floor(total) % 2)

    return PathFunction("parity", 0.0, extend, frozenset())
