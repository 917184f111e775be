"""Solver behavior: tree shapes, values, refusal gates, detection, stats."""

from __future__ import annotations

import random
import re
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minpath import (
    INF,
    DetourTable,
    Graph,
    NegativeCircleError,
    Path,
    PathFunction,
    PathSystem,
    PropertyRefusalError,
    Road,
    RunStats,
    ShortestPathTree,
    UnreachableVertexError,
    Vertex,
    anti_risk,
    blocked_cost,
    check_no_negative_circles,
    check_wisp,
    classic_distance,
    compare_tree_to_oracle,
    dijkstra_classic,
    eda,
    embfa,
    expected_cost,
    format_path,
    format_tree,
    generate_random,
    max_degree,
    oracle_min,
    parse_graph,
    path_value,
    remove_road,
    sta,
)

from conftest import (
    assert_tree_invariants,
    brute_min_distance,
    brute_simple_paths,
    parity_length,
    random_instances,
)

from minpath.paths import NDSP, NO_NEGATIVE_CIRCLES, OP, SOPSP, WISP

from test_acceptance import _negative_cycle_graph
from test_paths import direct_risk


def single_road():
    return parse_graph("g 2 1\nv 0\nv 1\narc 0 1 5.0\n")


class TestSta:
    def test_single_road(self):
        tree = sta(single_road(), 0)
        assert tree.parent == {1: (0, 0)}
        assert tree.order == [0, 1]
        assert tree.value == {}
        assert_tree_invariants(tree)

    def test_triangle_structure(self):
        g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 1.0\narc 0 2 1.0\narc 1 2 1.0\n")
        tree = sta(g, 0)
        assert len(tree.parent) == 2
        assert tree.covered == {0, 1, 2}
        # smallest new vertex first, then smallest tail, then smallest key
        assert tree.parent == {1: (0, 0), 2: (0, 1)}
        assert_tree_invariants(tree)

    def test_unreachable_vertex_named(self):
        g = Graph([Vertex(0), Vertex(1), Vertex(2)], [Road(0, 0, 1, 1.0)])
        with pytest.raises(UnreachableVertexError, match="vertex 2 unreachable from source"):
            sta(g, 0)

    def test_bad_source(self, diamond):
        with pytest.raises(ValueError, match="source 9 out of range"):
            sta(diamond, 9)

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    def test_matches_frontier_rescan(self, mode):
        # Reference: each round takes the smallest (head, tail, key) over all
        # roads from a covered tail to an uncovered head.
        def rescan(graph, source):
            covered, order, parent = {source}, [source], {}
            while len(covered) < graph.n:
                frontier = [(r.head, r.tail, r.key) for r in graph.roads if r.tail in covered and r.head not in covered]
                if not frontier:
                    return parent, order, min(v for v in range(graph.n) if v not in covered)
                v, u, key = min(frontier)
                parent[v] = (u, key)
                covered.add(v)
                order.append(v)
            return parent, order, None

        for seed, g in random_instances(40, (3, 20), seed_base=1700, mode=mode):
            if seed % 2:  # a ring through every vertex makes every source reach all
                g = Graph(g.vertices, list(g.roads) + [Road(g.m + v, v, (v + 1) % g.n, 1.0) for v in range(g.n)])
            for source in random.Random(seed).sample(range(g.n), 3):
                parent, order, missing = rescan(g, source)
                if missing is None:
                    tree = sta(g, source)
                    assert (tree.parent, tree.order, tree.value) == (parent, order, {})
                else:
                    with pytest.raises(UnreachableVertexError, match=f"^vertex {missing} unreachable from source$"):
                        sta(g, source)


class TestEda:
    def test_diamond_classic_values(self, diamond):
        system = PathSystem.simple(0)
        func = classic_distance(diamond)
        tree, stats = eda(diamond, 0, system, func)
        assert tree.value == {0: 0.0, 1: 1.0, 2: 2.0, 3: 2.0}
        assert tree.order == [0, 1, 2, 3]
        assert_tree_invariants(tree, system, func, stats, 2 * max_degree(diamond) * diamond.n**2)

    def test_diamond_antirisk_matches_independent_minimum(self, diamond):
        system = PathSystem.simple(0)
        tree, _ = eda(diamond, 0, system, anti_risk(diamond))

        def detour(key, target):
            return brute_min_distance(remove_road(diamond, key), 0, target)

        best = INF
        for vertices, keys in brute_simple_paths(diamond, 0):
            if vertices[-1] == 3:
                best = min(best, direct_risk(diamond, Path(diamond, 0, keys), detour))
        assert best == 4.0
        assert tree.value[3] == pytest.approx(best, abs=1e-9)

    def test_source_without_roads(self):
        g = Graph([Vertex(0), Vertex(1)], [Road(0, 1, 0, 1.0)])
        system = PathSystem.simple(0)
        tree, stats = eda(g, 0, system, classic_distance(g))
        assert tree.covered == {0}
        assert tree.value == {0: 0.0}
        assert stats.extend_calls == 0
        assert 1 not in tree.paths

    def test_monotone_values_along_tree_paths(self):
        for _, g in random_instances(10, (4, 8), seed_base=600):
            system = PathSystem.simple(0)
            tree, _ = eda(g, 0, system, classic_distance(g))
            for v in tree.covered:
                if v != 0:
                    u, _key = tree.parent[v]
                    assert tree.value[u] <= tree.value[v]

    def test_refuses_undeclared_function(self, diamond):
        bare = PathFunction("bare", 0.0, lambda value, parent, road: value)
        with pytest.raises(PropertyRefusalError, match="bare"):
            eda(diamond, 0, PathSystem.simple(0), bare)
        vouched = PathFunction("bare", 0.0, bare.extend, frozenset({SOPSP, WISP, NDSP}))
        tree, _ = eda(diamond, 0, PathSystem.simple(0), vouched)
        assert tree.covered == {0, 1, 2, 3}

    def test_refuses_expected_cost(self, diamond):
        # not nondecreasing, so the label-setting contract does not hold
        with pytest.raises(PropertyRefusalError):
            eda(diamond, 0, PathSystem.simple(0), expected_cost(diamond, 0.5))

    def test_system_source_mismatch(self, diamond):
        with pytest.raises(ValueError, match="does not match"):
            eda(diamond, 0, PathSystem.simple(1), classic_distance(diamond))

    @pytest.mark.parametrize("solver", [eda, embfa])
    def test_source_rule_matches_verify_wording(self, diamond, solver):
        # the solvers and verify's walk share one source rule and its wording
        func = classic_distance(diamond)
        with pytest.raises(ValueError, match="^path system source 1 does not match 0$"):
            solver(diamond, 0, PathSystem.simple(1), func)
        with pytest.raises(ValueError, match="^source 9 out of range$"):
            solver(diamond, 9, PathSystem.simple(9), func)

    def test_infinite_values_are_covered(self):
        g = single_road()
        system = PathSystem.simple(0)
        func = blocked_cost(g, 0.5)
        tree, stats = eda(g, 0, system, func)
        assert tree.covered == {0, 1}
        assert tree.value[1] == INF
        assert_tree_invariants(tree, system, func, stats)
        oracle = oracle_min(g, 0, system, func)
        assert set(oracle.minimum) == tree.covered

    def test_deterministic(self, diamond):
        system = PathSystem.simple(0)
        runs = [eda(diamond, 0, system, anti_risk(diamond)) for _ in range(2)]
        (t1, s1), (t2, s2) = runs
        assert (t1.parent, t1.value, t1.order) == (t2.parent, t2.value, t2.order)
        assert s1 == s2

    def test_memory_stays_linear_on_a_deep_ring(self):
        # each tree path is its parent's plus one road: 4,000 paths of depth
        # up to 3,999 took 123 MiB when every path copied its prefix's roads
        n = 4000
        g = Graph([Vertex(v) for v in range(n)], [Road(v, v, (v + 1) % n, 1.0) for v in range(n)])
        func = classic_distance(g)
        tracemalloc.start()
        try:
            tree, _ = eda(g, 0, PathSystem.simple(0), func)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree.value[n - 1] == n - 1
        assert len(tree.paths[n - 1]) == n - 1
        assert peak < 8 * 2**20


class TestEmbfa:
    def test_stays_linear_on_a_deep_ring(self):
        # a scan walks its tail's tree path only down to a covered head it
        # meets, and a ring's scans meet one, the source, once: walking the
        # whole path per scan made the ring quadratic, about 38 times eda's
        # time at this size
        n = 4000
        g = Graph([Vertex(v) for v in range(n)], [Road(v, v, (v + 1) % n, 1.0) for v in range(n)])
        func, system = classic_distance(g), PathSystem.simple(0)

        def best_of_three(solver):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                tree, _ = solver(g, 0, system, func)
                times.append(time.perf_counter() - start)
            return min(times), tree

        eda_s, eda_tree = best_of_three(eda)
        embfa_s, embfa_tree = best_of_three(embfa)
        assert embfa_tree.value == eda_tree.value
        assert embfa_s < 5 * eda_s

    def test_star_with_a_hub_matches_eda(self):
        # the hub h = n-1 takes every other vertex from the source in
        # descending id: removing each from a list of the source's children
        # scanned most of it, quadratic in n
        n = 300
        h = n - 1
        roads = [Road(v - 1, 0, v, 10.0) for v in range(1, h)] + [Road(h - 1, 0, h, 1.0)]
        roads += [Road(h + i, h, v, 1.0) for i, v in enumerate(range(h - 1, 0, -1))]
        g = Graph([Vertex(v) for v in range(n)], roads)
        func, system = classic_distance(g), PathSystem.simple(0)
        tree, stats = embfa(g, 0, system, func)
        eda_tree, _ = eda(g, 0, system, func)
        assert tree.value == eda_tree.value
        assert all(tree.parent[v][0] == h for v in range(1, h))
        assert tree.order == [0, h, *range(h - 1, 0, -1)]
        assert (stats.relaxations, stats.rounds, stats.vetoed, tree.exact) == (2 * n - 3, 3, 0, True)

    def test_undirected_line_walks_one_road_per_scan(self):
        # every scan meets its tail's parent, a covered head one road up:
        # walking the whole tree path there made the line quadratic
        n = 300
        roads = []
        for v in range(n - 1):
            roads += [Road(2 * v, v, v + 1, 1.0), Road(2 * v + 1, v + 1, v, 1.0)]
        g = Graph([Vertex(v) for v in range(n)], roads)
        func, system = classic_distance(g), PathSystem.simple(0)
        tree, stats = embfa(g, 0, system, func)
        assert tree.value == eda(g, 0, system, func)[0].value
        assert all(tree.parent[v][0] == v - 1 for v in range(1, n))
        assert tree.order == list(range(n))
        counts = (stats.extend_calls, stats.relaxations, stats.rounds, stats.vetoed, tree.exact)
        assert counts == (3 * n - 3, n - 1, n, 0, True)

    def test_covered_heads_at_mixed_depths(self):
        # Tail 4, on the tree path 0-1-2-3-4, meets covered heads in key
        # order: its parent 3, then 1 (shallower), then 5 (deeper, off the
        # path), then 2, an ancestor the walk down to 1 already passed.
        ends = [(0, 1, 1.0), (1, 2, 1.0), (1, 5, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
        ends += [(4, 3, 1.0), (4, 1, 1.0), (4, 5, 1.0), (4, 2, -10.0)]
        g = Graph([Vertex(v) for v in range(6)], [Road(key, *end) for key, end in enumerate(ends)])
        func = classic_distance(g)  # declares conservative flags, wrongly
        tree, stats = embfa(g, 0, PathSystem.simple(0), func)
        assert tree.parent == {1: (0, 0), 2: (1, 1), 5: (1, 2), 3: (2, 3), 4: (3, 4)}
        assert tree.order == [0, 1, 2, 5, 3, 4]
        assert tree.value == {0: 0.0, 1: 1.0, 2: 2.0, 5: 2.0, 3: 3.0, 4: 4.0}
        # the pass over 4 extends by road 7 alone; the certificate vetoes road 8
        assert (stats.extend_calls, stats.relaxations, stats.rounds, stats.vetoed, tree.exact) == (15, 5, 5, 1, False)
        message = "road 8 from vertex 4 lowers vertex 2, which lies on 4's tree path; "
        with pytest.raises(NegativeCircleError, match=f"^{re.escape(message)}"):
            embfa(g, 0, PathSystem.all_paths(0), func)

    def test_conservative_weights(self):
        g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 2.0\narc 0 2 5.0\narc 1 2 -1.0\n")
        system = PathSystem.simple(0)
        func = classic_distance(g)
        tree, stats = embfa(g, 0, system, func)
        assert tree.value == {0: 0.0, 1: 2.0, 2: 1.0}
        assert tree.exact is True
        assert stats.vetoed == 0
        assert_tree_invariants(tree, system, func, stats, 2 * g.n * g.m)

    def test_expected_cost_matches_oracle(self, diamond):
        system = PathSystem.simple(0)
        func = expected_cost(diamond, 0.5)
        tree, stats = embfa(diamond, 0, system, func)
        oracle = oracle_min(diamond, 0, system, func)
        assert set(tree.covered) == set(oracle.minimum)
        for v, m in oracle.minimum.items():
            assert tree.value[v] == pytest.approx(m, abs=1e-9)
        assert tree.exact is True
        assert_tree_invariants(tree, system, func, stats)

    def test_source_without_roads(self):
        g = Graph([Vertex(0), Vertex(1)], [Road(0, 1, 0, 1.0)])
        tree, stats = embfa(g, 0, PathSystem.simple(0), classic_distance(g))
        assert tree.covered == {0}
        assert stats.relaxations == 0
        assert stats.rounds == 1

    def test_refuses_non_op_function(self, diamond):
        with pytest.raises(PropertyRefusalError):
            embfa(diamond, 0, PathSystem.simple(0), parity_length(diamond))

    def test_negative_circle_detected_on_all_paths(self):
        g = Graph(
            [Vertex(i) for i in range(4)],
            [
                Road(0, 0, 1, 1.0),
                Road(1, 1, 2, 1.0),
                Road(2, 2, 3, 1.0),
                Road(3, 3, 1, -5.0),
            ],
        )
        func = classic_distance(g)  # declares conservative flags, wrongly
        with pytest.raises(NegativeCircleError):
            embfa(g, 0, PathSystem.all_paths(0), func)

    def test_negative_circle_harmless_on_simple_system(self):
        g = Graph(
            [Vertex(i) for i in range(4)],
            [
                Road(0, 0, 1, 1.0),
                Road(1, 1, 2, 1.0),
                Road(2, 2, 3, 1.0),
                Road(3, 3, 1, -5.0),
            ],
        )
        system = PathSystem.simple(0)
        func = classic_distance(g)
        tree, _ = embfa(g, 0, system, func)
        oracle = oracle_min(g, 0, system, func)
        assert tree.value == oracle.minimum

    def test_infinite_minimum_is_covered(self):
        g = single_road()
        system = PathSystem.simple(0)
        func = expected_cost(g, 0.5)
        tree, stats = embfa(g, 0, system, func)
        assert tree.covered == {0, 1}
        assert tree.value[1] == INF
        assert_tree_invariants(tree, system, func, stats)

    def test_deterministic(self, diamond):
        system = PathSystem.simple(0)
        runs = [embfa(diamond, 0, system, expected_cost(diamond, 0.3)) for _ in range(2)]
        (t1, s1), (t2, s2) = runs
        assert (t1.parent, t1.value) == (t2.parent, t2.value)
        assert s1 == s2

    def test_reverse_keyed_chain_scans_each_road_once(self):
        # A full scan in key order moves one hop per round down this chain;
        # Moore's passes scan each tail once after it relaxes.
        n = 50
        g = Graph([Vertex(i) for i in range(n)], [Road(n - 2 - i, i, i + 1, 1.0) for i in range(n - 1)])
        system = PathSystem.simple(0)
        func = classic_distance(g)
        tree, stats = embfa(g, 0, system, func)
        assert tree.value == {v: float(v) for v in range(n)}
        assert tree.exact is True
        assert stats.extend_calls <= 3 * g.m
        assert_tree_invariants(tree, system, func, stats)

    def test_skips_a_tail_scanned_with_its_final_path(self):
        # Pass 1 scans 0 (2 calls). Pass 2 scans 1, which relaxes 2 ahead of
        # 2's own scan, then 2 with that path (2 calls). Pass 3 would scan 2
        # again with the same path; only 3 is scanned (no roads). Certificate:
        # 4 calls. Rescanning 2 would make it 9.
        g = parse_graph("g 4 4\nv 0\nv 1\nv 2\nv 3\narc 0 1 1.0\narc 0 2 5.0\narc 1 2 1.0\narc 2 3 1.0\n")
        tree, stats = embfa(g, 0, PathSystem.simple(0), classic_distance(g))
        assert tree.value == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        assert tree.exact is True
        assert (stats.extend_calls, stats.relaxations, stats.rounds) == (8, 4, 3)

    def test_source_relaxation_keeps_the_trivial_root(self):
        # The function lies about negative circles: the first return to the
        # source costs -1, so the circle 0 -> 1 -> 0 lowers the source. The
        # source stays the trivial root: a relaxation into a vertex on the
        # tail's own tree path is a concrete negative circle, and it raises.
        g = Graph([Vertex(i) for i in range(3)], [Road(0, 0, 1, 1.0), Road(1, 1, 0, 1.0), Road(2, 1, 2, 1.0)])

        def extend(value, parent, road):
            if road.head == 0 and parent.vertices.count(0) == 1:
                return -1.0
            return len(parent.roads) + 1.0

        func = PathFunction("first-return", 0.0, extend, frozenset({OP, NO_NEGATIVE_CIRCLES}))
        with pytest.raises(NegativeCircleError, match="road 1 from vertex 1 lowers vertex 0"):
            embfa(g, 0, PathSystem.all_paths(0), func)

    def test_negative_self_loop_on_all_paths(self):
        g = Graph(
            [Vertex(i) for i in range(4)],
            [Road(0, 0, 1, 1.0), Road(1, 1, 1, -1.0), Road(2, 1, 2, 1.0), Road(3, 2, 3, 1.0)],
        )
        func = classic_distance(g)  # declares conservative flags, wrongly
        with pytest.raises(NegativeCircleError):
            embfa(g, 0, PathSystem.all_paths(0), func)

    @pytest.mark.parametrize("weight", [0.0, 2.0])
    def test_nonnegative_self_loop(self, weight):
        g = Graph(
            [Vertex(i) for i in range(3)],
            [Road(0, 0, 1, 1.0), Road(1, 1, 1, weight), Road(2, 1, 2, 1.0), Road(3, 2, 2, weight)],
        )
        func = classic_distance(g)
        # the simple system vetoes each loop; over all paths a loop never improves
        for system in (PathSystem.simple(0), PathSystem.all_paths(0)):
            tree, stats = embfa(g, 0, system, func)
            assert tree.value == {0: 0.0, 1: 1.0, 2: 2.0}
            assert tree.exact is True
            assert_tree_invariants(tree, system, func, stats, 2 * g.n * g.m)

    def test_non_inherited_minima_are_out_of_reach(self):
        # Pins a known obstruction: with a strong enough future discount,
        # expected-cost can have two vertices whose only minimum paths run
        # through each other. Such minima are not weakly inherited, and a
        # relaxation that extends one stored member path per vertex cannot
        # produce both. The solver must still return a sound, fold-consistent
        # tree; it just cannot reach the oracle value at one vertex, and it
        # must say so: an improving extension was vetoed, so the tree is not
        # certified exact.
        rng = random.Random(2002)
        n = rng.randint(4, 8)
        m = rng.randint(n, 3 * n)
        g = generate_random(n, m, 0.0, 10.0, "directed", 2002)
        system = PathSystem.simple(0)
        func = expected_cost(g, 0.7)

        wisp = check_wisp(g, 0, system, func)
        assert wisp.violated
        non_inherited = wisp.details["missing"]

        oracle = oracle_min(g, 0, system, func)
        tree, stats = embfa(g, 0, system, func)
        report = compare_tree_to_oracle(tree, oracle)
        assert report.violated
        blocked_vertex = report.details["vertex"]
        assert blocked_vertex in non_inherited
        assert tree.value[blocked_vertex] > oracle.minimum[blocked_vertex] + 1e-9
        assert tree.exact is False
        assert stats.vetoed > 0
        assert_tree_invariants(tree, system, func, stats, 2 * g.n * g.m)

        # the obstruction: every simple path attaining the minimum at the
        # blocked vertex has a non-minimal prefix
        for vertices, keys in brute_simple_paths(g, 0):
            if vertices[-1] != blocked_vertex:
                continue
            path = Path(g, 0, keys)
            if abs(path_value(func, path) - oracle.minimum[blocked_vertex]) <= 1e-9:
                prefix_minimal = all(
                    abs(path_value(func, path.prefix(i)) - oracle.minimum[vertices[i]]) <= 1e-9
                    for i in range(1, len(keys) + 1)
                )
                assert not prefix_minimal


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_embfa_certificate_reads_the_returned_tree(mode):
    # Undirected seed 3034 with expected-cost 0.7 counts 27 roads below the
    # tree's values but 15 below the relaxation's values, so a certificate
    # that read the relaxation state would fail here.
    for seed, g in random_instances(40, (3, 12), seed_base=3000, mode=mode):
        funcs = [classic_distance(g), anti_risk(g), expected_cost(g, 0.3), expected_cost(g, 0.7)]
        for system in (PathSystem.simple(0), PathSystem.all_paths(0)):
            for func in funcs:
                try:
                    tree, stats = embfa(g, 0, system, func)
                except PropertyRefusalError:
                    continue
                count = sum(
                    func.extend(tree.value[u], tree.paths[u], road) < tree.value.get(road.head, INF)
                    for u in tree.covered
                    for road in g.out_roads(u)
                )
                assert stats.vetoed == count, (seed, system.kind, func.name)
                assert tree.exact == (count == 0)


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_embfa_answers_anti_risk_and_blocked_cost_exactly(mode):
    # both declare OP and no negative circles, so embfa takes them and certifies its tree
    system = PathSystem.simple(0)
    for seed, g in random_instances(100, (3, 9), seed_base=4100, mode=mode):
        table = DetourTable(g)
        for func in (anti_risk(g, table), blocked_cost(g, 0.3, table)):
            tree, stats = embfa(g, 0, system, func)
            assert tree.exact, (seed, func.name)
            assert tree.value == eda(g, 0, system, func)[0].value, (seed, func.name)
            assert tree.value == oracle_min(g, 0, system, func).minimum, (seed, func.name)
            assert_tree_invariants(tree, system, func, stats, 2 * g.n * g.m)


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_order_lists_the_paths_from_the_source(mode):
    # eda and sta list vertices in discovery order (for eda, by value),
    # embfa breadth-first down its tree; a ring through every vertex lets
    # sta cover them all
    for _, g in random_instances(20, (3, 10), seed_base=3000, mode=mode):
        g = Graph(g.vertices, list(g.roads) + [Road(g.m + v, v, (v + 1) % g.n, 1.0) for v in range(g.n)])
        system, func = PathSystem.simple(0), classic_distance(g)
        eda_tree, _ = eda(g, 0, system, func)
        embfa_tree, _ = embfa(g, 0, system, func)
        for tree in (eda_tree, embfa_tree, sta(g, 0)):
            assert tree.order == list(tree.paths)
            assert tree.order[0] == 0
        values = [eda_tree.value[v] for v in eda_tree.order]
        depths = [len(embfa_tree.paths[v]) for v in embfa_tree.order]
        assert values == sorted(values) and depths == sorted(depths)


def _over_declared(g):
    # functions that claim order preservation and no negative circles, wrongly
    flags = frozenset({OP, NO_NEGATIVE_CIRCLES})
    funcs = [parity_length(g)] + [expected_cost(g, p) for p in (0.5, 0.7, 0.9)]
    return [replace(func, declared_properties=flags) for func in funcs]


def test_every_negative_circle_error_is_a_real_circle():
    cases = [(g, classic_distance(g)) for g in map(_negative_cycle_graph, range(8000, 8020))]
    for mode in ("directed", "undirected"):
        for _, g in random_instances(200, (3, 6), seed_base=7000, mode=mode):
            cases += [(g, func) for func in _over_declared(g)]
    raised = 0
    for g, func in cases:
        try:
            embfa(g, 0, PathSystem.all_paths(0), func)
        except NegativeCircleError:
            raised += 1
            assert check_no_negative_circles(g, 0, func).violated, func.name
    assert raised >= 20


def test_circle_under_a_fixed_point_raises():
    # Expected-cost at p=0.5 over all paths, declared free of negative
    # circles: the circle 4 -> 3 -> 4 lowers a value by 4.47. Dropping the
    # relaxations that would close a cycle in the tree ends here on a tree
    # the certificate accepts. Relaxing road 21 into vertex 2, already on
    # vertex 1's tree path, is itself a lowering circle, so embfa raises.
    ((_, g),) = random_instances(1, (3, 10), seed_base=7333, mode="undirected")
    assert (g.n, g.m) == (8, 22)
    func = replace(expected_cost(g, 0.5), declared_properties=frozenset({OP, NO_NEGATIVE_CIRCLES}))
    with pytest.raises(NegativeCircleError, match="road 21 from vertex 1 lowers vertex 2"):
        embfa(g, 0, PathSystem.all_paths(0), func)
    report = check_no_negative_circles(g, 0, func)
    assert report.violated
    prefix_value, full_value = report.details["values"]
    assert full_value - prefix_value == pytest.approx(-4.469, abs=1e-3)


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_embfa_ends_within_n_passes(mode):
    # no pass cap: tree paths stay simple and pass k builds paths of at
    # least k roads, whatever the function
    for _, g in random_instances(200, (3, 6), seed_base=7000, mode=mode):
        for func in _over_declared(g):
            for system in (PathSystem.simple(0), PathSystem.all_paths(0)):
                try:
                    tree, stats = embfa(g, 0, system, func)
                except NegativeCircleError:
                    continue
                assert stats.rounds <= g.n
                assert_tree_invariants(tree, system, func, stats)


class TestDijkstraClassic:
    def test_diamond(self, diamond):
        assert dijkstra_classic(diamond, 0) == (0.0, 1.0, 2.0, 2.0)

    def test_unreachable_is_infinite(self):
        g = Graph([Vertex(0), Vertex(1)], [Road(0, 1, 0, 1.0)])
        assert dijkstra_classic(g, 0) == (0.0, INF)

    def test_two_vertices(self):
        g = parse_graph("g 2 1\nv 0\nv 1\narc 0 1 7.0\n")
        assert dijkstra_classic(g, 0) == (0.0, 7.0)

    def test_negative_weight_rejected(self):
        g = parse_graph("g 2 1\nv 0\nv 1\narc 0 1 -1.0\n")
        with pytest.raises(ValueError, match="negative weight"):
            dijkstra_classic(g, 0)

    @pytest.mark.parametrize("source", [-1, 4])
    def test_source_out_of_range(self, diamond, source):
        with pytest.raises(ValueError, match=f"source {source} out of range"):
            dijkstra_classic(diamond, source)

    def test_reduction_spot_check(self):
        for _, g in random_instances(10, (4, 9), seed_base=0):
            tree, _ = eda(g, 0, PathSystem.simple(0), classic_distance(g))
            dist = dijkstra_classic(g, 0)
            for v in range(g.n):
                if v in tree.covered:
                    assert tree.value[v] == dist[v]
                else:
                    assert dist[v] == INF


class TestFormatTree:
    def test_diamond_classic_golden(self, diamond):
        tree, stats = eda(diamond, 0, PathSystem.simple(0), classic_distance(diamond))
        assert format_tree(tree, stats) == (
            "0 value=0.0 path=s=0\n"
            "1 value=1.0 path=s=0 -> 1[k0]\n"
            "2 value=2.0 path=s=0 -> 2[k2]\n"
            "3 value=2.0 path=s=0 -> 1[k0] -> 3[k6]\n"
            "# extend_calls=5 relaxations=3 rounds=3\n"
        )

    def test_sta_tree_has_no_values(self):
        tree = sta(single_road(), 0)
        assert format_tree(tree, RunStats(rounds=1)) == (
            "0 value=- path=s=0\n1 value=- path=s=0 -> 1[k0]\n# extend_calls=0 relaxations=0 rounds=1\n"
        )

    @pytest.mark.parametrize("listed", [
        [(0, ()), (3, (0, 6)), (1, (0,)), (2, (2,))],  # 3 comes before its parent 1
        [(0, ()), (1, (0,)), (2, (0, 4)), (3, (2, 8))],  # 3's prefix s -> 2 is not 2's path
    ], ids=["not-parents-first", "not-prefix-closed"])
    def test_hand_built_trees_format_whole_paths(self, diamond, listed):
        tree = ShortestPathTree(0, {v: Path(diamond, 0, roads) for v, roads in listed}, {})
        expected = "".join(f"{v} value=- path={format_path(tree.paths[v])}\n" for v in range(4))
        assert format_tree(tree, RunStats()) == expected + "# extend_calls=0 relaxations=0 rounds=0\n"


def per_vertex_format(tree, stats):
    """`format_tree`'s text with every path serialized whole by `format_path`."""
    lines = [
        f"{v} value={repr(tree.value[v]) if v in tree.value else '-'} path={format_path(tree.paths[v])}"
        for v in sorted(tree.covered)
    ]
    return "\n".join(lines + [stats.format()]) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 12),
    data=st.data(),
    mode=st.sampled_from(["directed", "undirected"]),
    seed=st.integers(0, 10_000),
)
def test_format_tree_matches_whole_path_text(n, data, mode, seed):
    g = generate_random(n, data.draw(st.integers(0, 3 * n)), 0.0, 10.0, mode, seed)
    # a ring through every vertex, so sta covers them all and its trees run deep
    g = Graph(g.vertices, list(g.roads) + [Road(g.m + v, v, (v + 1) % g.n, 1.0) for v in range(g.n)])
    system = PathSystem.simple(0)
    func = classic_distance(g)
    trees = [eda(g, 0, system, func), embfa(g, 0, system, func), embfa(g, 0, PathSystem.all_paths(0), func)]
    trees.append(embfa(g, 0, system, expected_cost(g, 0.7)))
    trees.append((sta(g, 0), RunStats(rounds=g.n - 1)))
    for tree, stats in trees:
        assert format_tree(tree, stats) == per_vertex_format(tree, stats)
        # the same paths in an order that need not be parents-first
        order = data.draw(st.permutations(sorted(tree.paths)))
        shuffled = ShortestPathTree(0, {v: tree.paths[v] for v in order}, tree.value)
        assert format_tree(shuffled, stats) == per_vertex_format(tree, stats)
    # expected-cost minima need not be weakly inherited, so a witness's prefix
    # may differ from the witness of its last-but-one vertex
    oracle = oracle_min(g, 0, system, expected_cost(g, 0.7))
    witnesses = ShortestPathTree(0, oracle.witness, oracle.minimum)
    assert format_tree(witnesses, RunStats()) == per_vertex_format(witnesses, RunStats())


def test_nan_from_extend_is_rejected():
    g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 1.0\narc 0 2 1.0\narc 1 2 1.0\n")

    def extend(value, parent, road):
        return float("nan") if road.key == 0 else value + road.weight

    func = PathFunction("nan-on-k0", 0.0, extend, frozenset({NDSP, OP, WISP, NO_NEGATIVE_CIRCLES}))
    system = PathSystem.simple(0)
    message = "path function 'nan-on-k0' returned NaN extending by road 0"
    for solve in (eda, embfa, oracle_min):
        with pytest.raises(ValueError, match=message):
            solve(g, 0, system, func)


@pytest.mark.parametrize("result", [None, "1.0", 1j])
def test_non_numeric_extend_is_rejected(result):
    g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 1.0\narc 0 2 1.0\narc 1 2 1.0\n")

    def extend(value, parent, road):
        return result if road.key == 0 else value + road.weight

    func = PathFunction("odd-on-k0", 0.0, extend, frozenset({NDSP, OP, WISP, NO_NEGATIVE_CIRCLES}))
    system = PathSystem.simple(0)
    message = f"path function 'odd-on-k0' returned non-numeric {result!r} extending by road 0"
    for solve in (eda, embfa, oracle_min):
        with pytest.raises(ValueError, match=re.escape(message)):
            solve(g, 0, system, func)


def test_integer_extend_is_accepted():
    g = parse_graph("g 2 1\nv 0\nv 1\narc 0 1 1.0\n")
    func = PathFunction("hops", 0.0, lambda value, parent, road: len(parent) + 1, frozenset({NDSP, OP, WISP}))
    tree, _ = eda(g, 0, PathSystem.simple(0), func)
    assert tree.value == {0: 0.0, 1: 1}


@pytest.mark.parametrize("number", [int, Fraction])
def test_exact_numbers_are_accepted(number):
    # results that are not floats take the checked path in every loop
    g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 1.0\narc 0 2 3.0\narc 1 2 1.0\n")

    def extend(value, parent, road):
        return value + number(int(road.weight))

    func = PathFunction("exact", number(0), extend, frozenset({NDSP, OP, WISP, NO_NEGATIVE_CIRCLES}))
    system = PathSystem.simple(0)
    for solve in (eda, embfa):
        tree, _ = solve(g, 0, system, func)
        assert tree.value == {0: 0, 1: 1, 2: 2}
        assert {type(value) for value in tree.value.values()} == {number}
    assert oracle_min(g, 0, system, func).minimum == {0: 0, 1: 1, 2: 2}


@pytest.mark.parametrize("kind", ["simple", "all"])
def test_every_extend_call_is_counted(kind):
    # one call per counted extension, whether the result is a float (which
    # skips the check) or an int (which takes it); the counts agree
    g = generate_random(12, 40, 0.0, 10.0, "undirected", 3)
    system = PathSystem(kind, 0)
    runs = {}
    for number in (float, int):
        calls = []

        def extend(value, parent, road):
            calls.append(road.key)
            return value + number(round(road.weight))

        func = PathFunction("rounded", number(0), extend, frozenset({NDSP, OP, WISP, NO_NEGATIVE_CIRCLES}))
        for solve in (eda, embfa):
            del calls[:]
            tree, stats = solve(g, 0, system, func)
            assert len(calls) == stats.extend_calls > 0
            runs.setdefault(solve.__name__, []).append((stats, tree.value))
    for float_run, int_run in runs.values():
        assert float_run == int_run


def test_nan_from_a_vetoed_road_is_rejected_by_the_certificate():
    # the simple system vetoes road 1 (1 -> 0, back to the source) in every
    # scan, so only embfa's certificate extends it
    g = parse_graph("g 2 2\nv 0\nv 1\narc 0 1 1.0\narc 1 0 1.0\n")

    def extend(value, parent, road):
        return float("nan") if road.key == 1 else value + road.weight

    func = PathFunction("nan-on-k1", 0.0, extend, frozenset({NDSP, OP, WISP, NO_NEGATIVE_CIRCLES}))
    system = PathSystem.simple(0)
    tree, stats = eda(g, 0, system, func)
    assert tree.value == {0: 0.0, 1: 1.0} and stats.extend_calls == 1
    with pytest.raises(ValueError, match="path function 'nan-on-k1' returned NaN extending by road 1"):
        embfa(g, 0, system, func)


def _bfs_reachable(graph, source):
    seen = {source}
    queue = [source]
    for u in queue:
        for road in graph.roads:
            if road.tail == u and road.head not in seen:
                seen.add(road.head)
                queue.append(road.head)
    return seen


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    data=st.data(),
    mode=st.sampled_from(["directed", "undirected"]),
    high=st.sampled_from([10.0, 0.0]),
    p=st.sampled_from([0.3, 0.7]),
    seed=st.integers(0, 10_000),
)
def test_solvers_cover_the_reachable_set(n, data, mode, high, p, seed):
    g = generate_random(n, data.draw(st.integers(0, 3 * n)), 0.0, high, mode, seed)
    reachable = _bfs_reachable(g, 0)
    system = PathSystem.simple(0)
    funcs = [classic_distance(g), anti_risk(g), blocked_cost(g, p), expected_cost(g, p)]
    for func in funcs:
        assert set(oracle_min(g, 0, system, func).minimum) == reachable, func.name
        for solve in (eda, embfa):
            try:
                tree, _ = solve(g, 0, system, func)
            except PropertyRefusalError:
                continue
            assert tree.covered == reachable, (solve.__name__, func.name)
    if len(reachable) < n:
        with pytest.raises(UnreachableVertexError):
            sta(g, 0)
    else:
        assert sta(g, 0).covered == reachable


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 10),
    data=st.data(),
    mode=st.sampled_from(["directed", "undirected"]),
    high=st.sampled_from([10.0, 2.0, 0.0]),
    twins=st.booleans(),
    kind=st.sampled_from(["simple", "all"]),
    seed=st.integers(0, 10_000),
)
def test_classic_embfa_equals_dijkstra(n, data, mode, high, twins, kind, seed):
    g = generate_random(n, data.draw(st.integers(0, 3 * n)), 0.0, high, mode, seed)
    if twins:  # a parallel twin of every other road, so equal candidates tie
        g = Graph(g.vertices, list(g.roads) + [Road(g.m + r.key, r.tail, r.head, r.weight) for r in g.roads[::2]])
    system = PathSystem.simple(0) if kind == "simple" else PathSystem.all_paths(0)
    func = classic_distance(g)
    tree, stats = embfa(g, 0, system, func)
    dist = dijkstra_classic(g, 0)
    assert tree.value == {v: d for v, d in enumerate(dist) if d < INF}
    assert tree.exact is True
    assert stats.vetoed == 0
    assert_tree_invariants(tree, system, func, stats, 2 * g.n * g.m)
