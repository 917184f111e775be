"""Soundness sweep: embfa's certificate, coverage and negative-circle
detection, and eda's agreement with embfa, on many small random graphs.

Every instance is ``generate_random`` with n = 3 + seed mod 8 and
m = n + (7·seed mod 3n), solved from source 0 on both path systems. Each
family prints one line of counts; run with ``-s`` to see them.
"""

from __future__ import annotations

import time

import pytest

from minpath import (
    INF,
    DetourTable,
    NegativeCircleError,
    PathSystem,
    PropertyRefusalError,
    anti_risk,
    blocked_cost,
    classic_distance,
    compare_tree_to_oracle,
    eda,
    embfa,
    expected_cost,
    generate_random,
    oracle_min,
)

TOL = 1e-9
SEEDS = range(400)


def _instance(seed, mode, low=0.0, high=10.0):
    n = 3 + seed % 8
    return generate_random(n, n + 7 * seed % (3 * n), low, high, mode, seed)


def _functions(g):
    """Classic, and on nonnegative weights the detour functions, sharing one table."""
    funcs = [classic_distance(g)]
    if all(r.weight >= 0 for r in g.roads):
        table = DetourTable(g)
        funcs += [
            anti_risk(g, table),
            blocked_cost(g, 0.3, table),
            expected_cost(g, 0.3, table),
            expected_cost(g, 0.7, table),
        ]
    return funcs


def _reachable(g, source):
    seen = {source}
    stack = [source]
    while stack:
        for r in g.out_roads(stack.pop()):
            if r.head not in seen:
                seen.add(r.head)
                stack.append(r.head)
    return seen


def _bellman_ford_finds_negative_circle(g, source):
    """Whether a negative circle is reachable from ``source``: after n - 1
    rounds of relaxing every road, some road still lowers its head."""
    dist = [INF] * g.n
    dist[source] = 0.0
    for _ in range(g.n - 1):
        for r in g.roads:
            if dist[r.tail] + r.weight < dist[r.head]:
                dist[r.head] = dist[r.tail] + r.weight
    return any(dist[r.tail] + r.weight < dist[r.head] for r in g.roads)


@pytest.mark.parametrize("mode", ["directed", "undirected", "conservative"])
def test_certified_trees_equal_the_oracle(mode):
    """embfa covers the reachable set, every certified tree equals the
    oracle, and eda agrees with every certified tree whose function it
    accepts."""
    started = time.perf_counter()
    trees = certified = misses = agreed = 0
    for seed in SEEDS:
        g = _instance(seed, mode)
        reach = _reachable(g, 0)
        for func in _functions(g):
            for system in (PathSystem.simple(0), PathSystem.all_paths(0)):  # one oracle census serves both
                try:
                    tree, _ = embfa(g, 0, system, func)
                except PropertyRefusalError:
                    continue  # expected-cost declares no circle flag for all paths
                trees += 1
                assert tree.covered == reach, (seed, system.kind, func.name)
                report = compare_tree_to_oracle(tree, oracle_min(g, 0, system, func), TOL)
                if tree.exact:
                    certified += 1
                    assert not report.violated, (seed, system.kind, func.name, report.witness)
                else:
                    misses += report.violated
                    continue
                try:
                    eda_tree, _ = eda(g, 0, system, func)
                except PropertyRefusalError:
                    continue
                assert eda_tree.value == tree.value, (seed, system.kind, func.name)
                agreed += 1
    elapsed = time.perf_counter() - started
    print(
        f"\n{mode}: {trees} trees, {certified} certified, {trees - certified} flagged "
        f"({misses} misses), eda agreed on {agreed}, {elapsed:.2f}s"
    )


def test_negative_circles_match_bellman_ford():
    """All-paths classic embfa raises exactly when a negative circle is
    reachable from the source."""
    started = time.perf_counter()
    raised = 0
    for seed in range(600):
        g = _instance(seed, "directed", -4.0, 10.0)
        try:
            embfa(g, 0, PathSystem.all_paths(0), classic_distance(g))
            found = False
        except NegativeCircleError:
            found = True
        assert found == _bellman_ford_finds_negative_circle(g, 0), seed
        raised += found
    elapsed = time.perf_counter() - started
    print(f"\nnegative weights: 600 graphs, {raised} raised, all as Bellman-Ford finds, {elapsed:.2f}s")
