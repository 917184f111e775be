"""Paths, path systems, built-in cost functions, and the detour cache."""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minpath.paths
from minpath import (
    INF,
    DetourTable,
    Graph,
    Path,
    PathSystem,
    Road,
    Vertex,
    anti_risk,
    blocked_cost,
    check_wisp,
    classic_distance,
    dijkstra_classic,
    eda,
    embfa,
    enumerate_paths,
    expected_cost,
    format_path,
    format_tree,
    generate_random,
    implied_properties,
    oracle_min,
    parse_graph,
    path_value,
    remove_road,
)
from minpath.paths import (
    INSP,
    NDSP,
    NO_NEGATIVE_CIRCLES,
    NO_NONPOSITIVE_CIRCLES,
    OP,
    OPSP,
    SOP,
    SOPSP,
    WISP,
    WOP,
    WOPSP,
    ZERO_COST,
)

from conftest import brute_min_distance, brute_simple_paths, random_instances


def single_road():
    return parse_graph("g 2 1\nv 0\nv 1\narc 0 1 5.0\n")


class TestPath:
    def test_trivial_path(self, diamond):
        p = Path(diamond, 0)
        assert p.vertices == (0,)
        assert p.terminal == 0
        assert len(p) == 0

    def test_chaining(self, diamond):
        p = Path(diamond, 0, (0, 6))  # s -> a -> t
        assert p.vertices == (0, 1, 3)
        assert p.terminal == 3

    def test_broken_chain(self, diamond):
        with pytest.raises(ValueError, match="road chain broken"):
            Path(diamond, 0, (2, 6))  # s -> b then a -> t does not chain

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda g: Path(g, 4), "source 4 out of range"),
            (lambda g: Path(g, -1), "source -1 out of range"),
            (lambda g: Path(g, 0, (0,)).extended(8), "road chain broken: road 8 starts at 2, expected 1"),
            (lambda g: Path(g, 0, (0,)).prefix(2), "prefix length 2 out of range"),
            (lambda g: Path(g, 0, (0,)).prefix(-1), "prefix length -1 out of range"),
        ],
    )
    def test_rejects(self, diamond, build, message):
        with pytest.raises(ValueError, match=message):
            build(diamond)

    def test_extended_and_father_inverse(self, diamond):
        p = Path(diamond, 0, (0,))
        q = p.extended(6)
        assert q.roads == (0, 6)
        assert q.prefix(1) == p

    def test_format(self, diamond):
        assert format_path(Path(diamond, 0)) == "s=0"
        assert format_path(Path(diamond, 0, (0, 6))) == "s=0 -> 1[k0] -> 3[k6]"

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_a_tuple_model(self, data):
        # each path is a prefix plus one road; the model keeps whole tuples
        n = data.draw(st.integers(2, 6), label="n")
        ends = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            min_size=1, max_size=3 * n,
        ), label="roads")
        g = Graph([Vertex(v) for v in range(n)], [Road(k, *e, 1.0) for k, e in enumerate(ends)])
        source = data.draw(st.integers(0, n - 1), label="source")
        path, roads, vertices = Path(g, source), (), (source,)
        walked = [(path, roads, vertices)]
        for _ in range(data.draw(st.integers(0, 8), label="steps")):
            out = [r.key for r in g.out_roads(vertices[-1])]
            key = data.draw(st.sampled_from(out) if out and data.draw(st.booleans()) else st.integers(0, g.m))
            if key == g.m:
                with pytest.raises(ValueError, match=f"^unknown road key {key}$"):
                    path.extended(key)
                continue
            if key not in out:
                message = f"^road chain broken: road {key} starts at {g.road(key).tail}, expected {vertices[-1]}$"
                with pytest.raises(ValueError, match=message):
                    path.extended(key)
                with pytest.raises(ValueError, match=message):
                    Path(g, source, roads + (key,))
                continue
            path, roads, vertices = path.extended(key), roads + (key,), vertices + (g.road(key).head,)
            walked.append((path, roads, vertices))
        for path, roads, vertices in walked:
            assert path.roads == roads
            assert path.vertices == vertices
            assert len(path) == len(roads)
            assert path.terminal == vertices[-1]
            rebuilt = Path(g, source, list(roads))
            assert rebuilt == path and hash(rebuilt) == hash(path) == hash((source, roads))
            assert format_path(path) == " -> ".join(
                [f"s={source}"] + [f"{v}[k{k}]" for k, v in zip(roads, vertices[1:])]
            )
            for length in range(len(roads) + 1):
                assert path.prefix(length).roads == roads[:length]
                assert path.prefix(length).vertices == vertices[: length + 1]
            for length in (-1, len(roads) + 1):
                with pytest.raises(ValueError, match=f"^prefix length {length} out of range$"):
                    path.prefix(length)
        for a, roads_a, _ in walked:
            for b, roads_b, _ in walked:
                assert (a == b) == (roads_a == roads_b)
        other = (source + 1) % n
        assert Path(g, other) != Path(g, source)
        assert Path(g, other) == Path(g, other)


class TestMembership:
    def test_simple_paths(self, diamond):
        members = {path.roads for path in enumerate_paths(diamond, 0, PathSystem.simple(0), 2)}
        assert (0, 4) in members  # s -> a -> b: distinct vertices
        assert (0, 1) not in members  # s -> a -> s revisits

    def test_all_paths(self, diamond):
        assert (0, 1) in {path.roads for path in enumerate_paths(diamond, 0, PathSystem.all_paths(0), 2)}

    def test_source_mismatch(self, diamond):
        with pytest.raises(ValueError, match="path system source 1 does not match 0"):
            list(enumerate_paths(diamond, 0, PathSystem.simple(1), 3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown path system kind"):
            PathSystem("weird", 0)


class TestPathValue:
    def test_trivial_is_base(self, diamond):
        f = classic_distance(diamond)
        assert path_value(f, Path(diamond, 0)) == 0.0

    def test_sum_of_weights(self):
        g = parse_graph("g 3 2\nv 0\nv 1\nv 2\narc 0 1 1.0\narc 1 2 2.0\n")
        f = classic_distance(g)
        assert path_value(f, Path(g, 0, (0, 1))) == 3.0

    def test_classic_equals_independent_resummation(self):
        g = generate_random(7, 18, 0.0, 10.0, "directed", 11)
        f = classic_distance(g)
        for vertices, keys in brute_simple_paths(g, 0):
            p = Path(g, 0, keys)
            assert path_value(f, p) == sum(g.road(k).weight for k in keys)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2_000))
    def test_prefix_consistency(self, seed):
        g = generate_random(6, 12, 0.0, 10.0, "directed", seed)
        f = classic_distance(g)
        for vertices, keys in brute_simple_paths(g, 0):
            if not keys:
                continue
            p = Path(g, 0, keys)
            parent = p.prefix(len(p) - 1)
            road = g.road(keys[-1])
            assert path_value(f, p) == f.extend(path_value(f, parent), parent, road)


class TestDetourTable:
    @pytest.fixture
    def searches(self, monkeypatch):
        """The arguments of every search the table runs, one entry each: a
        whole-row search and a search inside one subtree both count, and
        `dijkstra_classic`, called from the test, does not."""
        searches = []

        def counting(run):
            def counted(*args, **kwargs):
                searches.append(args)
                return run(*args, **kwargs)
            return counted

        monkeypatch.setattr(minpath.paths, "_single_source", counting(minpath.paths._single_source))
        monkeypatch.setattr(DetourTable, "_subtree_search", counting(DetourTable._subtree_search))
        return searches

    def test_deletion_disconnects(self):
        g = single_road()
        table = DetourTable(g)
        assert table.distance(0, 0, 1) == INF

    def test_irrelevant_deletion(self, diamond):
        # Road 3->1 (key 7) lies on no path from 0 to 3.
        table = DetourTable(diamond)
        assert table.distance(7, 0, 3) == dijkstra_classic(diamond, 0)[3]

    def test_diamond_blocked_road(self, diamond):
        table = DetourTable(diamond)
        assert table.distance(6, 0, 3) == 4.0  # a->t blocked
        assert table.distance(6, 0, 3) == brute_min_distance(remove_road(diamond, 6), 0, 3)

    def test_unknown_road(self, diamond):
        with pytest.raises(ValueError, match="unknown road key"):
            DetourTable(diamond).distance(99, 0, 1)

    @pytest.mark.parametrize("target", [-1, 4, 9])
    def test_target_out_of_range(self, diamond, target):
        # road 0 (s->a) is tight and road 1 (a->s) is not: both fill paths check
        table = DetourTable(diamond)
        for key in (0, 1):
            with pytest.raises(ValueError, match=f"^target {target} out of range$"):
                table.distance(key, 0, target)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force(self, seed):
        g = generate_random(6, 12, 0.0, 10.0, "directed", seed)
        table = DetourTable(g)
        for road in g.roads:
            deleted = remove_road(g, road.key)
            for target in range(g.n):
                assert table.distance(road.key, 0, target) == brute_min_distance(deleted, 0, target)

    def test_concurrent_fills_match_sequential(self, diamond):
        sequential = DetourTable(diamond)
        expected = {
            (r.key, t): sequential.distance(r.key, 0, t)
            for r in diamond.roads
            for t in range(diamond.n)
        }
        shared = DetourTable(diamond)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = {
                (key, t): pool.submit(shared.distance, key, 0, t) for key, t in expected
            }
        assert {k: f.result() for k, f in futures.items()} == expected

    def test_concurrent_base_and_detour_fills(self):
        # many threads fill the same base rows and tight entries at once
        g = generate_random(40, 160, 0.0, 10.0, "undirected", 5)
        queries = [(r.key, origin, r.head) for origin in range(4) for r in g.roads]
        expected = [dijkstra_classic(remove_road(g, key), origin)[head] for key, origin, head in queries]
        shared = DetourTable(g)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(shared.distance, *q) for q in queries]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    @pytest.mark.parametrize("weights", ["uniform", "zero", "integer", "twins"])
    def test_matches_dijkstra_without_the_road(self, mode, weights):
        for seed, g in random_instances(12, (3, 12), seed_base=1700, mode=mode):
            rng = random.Random(seed)
            roads = list(g.roads)
            if weights == "zero":
                roads = [Road(r.key, r.tail, r.head, 0.0) for r in roads]
            elif weights == "integer":
                roads = [Road(r.key, r.tail, r.head, float(rng.randint(0, 2))) for r in roads]
            elif weights == "twins":
                roads += [Road(g.m + r.key, r.tail, r.head, r.weight) for r in roads[::3]]
            # one more vertex that no origin reaches, with roads out of it
            extra = g.n
            roads += [Road(2 * g.m + i, extra, v, float(i)) for i, v in enumerate((0, g.n - 1))]
            g = Graph(list(g.vertices) + [Vertex(extra)], roads)
            table = DetourTable(g)
            for road in g.roads:
                without = remove_road(g, road.key)
                for origin in (0, 1, 2):
                    expected = dijkstra_classic(without, origin)
                    for target in range(g.n):
                        assert table.distance(road.key, origin, target) == expected[target]

    def test_one_search_per_origin_and_tree_row(self, diamond, searches):
        base, from_a = dijkstra_classic(diamond, 0), dijkstra_classic(diamond, 1)
        without_at = dijkstra_classic(remove_road(diamond, 6), 0)
        table = DetourTable(diamond)
        # b's tree road is s->b (key 2); a->b (key 4) is tight and tied with it
        assert base[1] + diamond.road(4).weight == base[2]
        for key in (1, 3, 4, 5, 7, 8):
            for target in range(diamond.n):
                assert table.distance(key, 0, target) == base[target]
        assert len(searches) == 1
        # a->t (key 6) is t's tree road, and origin s is not its tail: t's subtree is
        # {t}, so one search for target t, none for a target outside it or a repeat
        for target in range(diamond.n):
            assert table.distance(6, 0, target) == without_at[target]
            assert len(searches) == 1 + (target == 3)
        for target in range(diamond.n):
            assert table.distance(6, 0, target) == without_at[target]
        assert len(searches) == 2
        # a second origin gets its own base search; the first origin's tree is kept
        assert table.distance(7, 1, 3) == from_a[3]
        assert table.distance(9, 0, 2) == base[2]  # t->b, not asked before
        assert len(searches) == 3

    def test_tail_origin_runs_one_search_and_builds_no_base_tree(self, diamond, searches):
        expected = {r.key: dijkstra_classic(remove_road(diamond, r.key), r.tail)[r.head] for r in diamond.roads}
        table = DetourTable(diamond)
        # every road is asked as blocked-cost and expected-cost ask: from its tail, for its head
        for road in diamond.roads:
            assert table.distance(road.key, road.tail, road.head) == expected[road.key]
        assert len(searches) == diamond.m == 10

    def test_target_outside_the_subtree_reads_the_base_row(self, searches):
        g = generate_random(40, 160, 0.0, 10.0, "directed", 1)
        roads = [road for road in g.roads if road.tail != 0]  # tail 0 takes the tail-origin route
        expected = {road.key: dijkstra_classic(remove_road(g, road.key), 0) for road in roads}
        table = DetourTable(g)
        table.distance(0, 0, 0)
        assert len(searches) == 1  # the base search from origin 0
        # neither the origin nor a road's tail lies in the subtree below the road
        for road in roads:
            for target in (0, road.tail):
                assert table.distance(road.key, 0, target) == expected[road.key][target]
        assert len(searches) == 1
        # a head whose tree road is deleted does run the subtree search
        for road in roads:
            assert table.distance(road.key, 0, road.head) == expected[road.key][road.head]
        assert len(searches) > 1

    @pytest.mark.parametrize("origin", [-1, 4], ids=["-1", "n"])
    def test_origin_out_of_range(self, diamond, origin):
        # road 6 (a->t) is in the tree from s and road 7 (t->a) is not: neither route skips the check
        table = DetourTable(diamond)
        for key in (6, 7):
            with pytest.raises(ValueError, match=f"^source {origin} out of range$"):
                table.distance(key, origin, 3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_query_order_matches_dijkstra_without_the_road(self, data):
        n = data.draw(st.integers(2, 10), label="n")
        undirected = data.draw(st.booleans(), label="undirected")
        weight = data.draw(st.sampled_from([
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
            st.integers(0, 2).map(float),
            st.just(0.0),
        ]), label="weights")
        ends = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
        roads = []
        for tail, head in ends:
            w = data.draw(weight)
            roads += [(tail, head, w), (head, tail, w)] if undirected else [(tail, head, w)]
        if data.draw(st.booleans(), label="twins"):
            roads += roads[::2]
        # vertex n has roads out and none in: only a search from n itself reaches it
        roads += [(n, 0, 1.0), (n, n - 1, 0.0)]
        g = Graph([Vertex(v) for v in range(n + 1)], [Road(k, *r) for k, r in enumerate(roads)])
        queries = []
        for road in g.roads:
            for origin in {road.tail, data.draw(st.integers(0, n), label="origin")}:
                queries += [(road.key, origin, target) for target in range(g.n)]
        queries = data.draw(st.permutations(queries), label="order")
        queries.sort(key=lambda q: q[2] == g.road(q[0]).head)  # stable: non-head targets first
        table = DetourTable(g)
        rows = {}
        for key, origin, target in queries:
            if (key, origin) not in rows:
                rows[key, origin] = dijkstra_classic(remove_road(g, key), origin)
            assert table.distance(key, origin, target) == rows[key, origin][target]

    @pytest.mark.parametrize("shape", ["ring", "random"])
    def test_large_subtrees_match_dijkstra_without_the_road(self, shape):
        # a ring's tree roads carry subtrees of up to n-1 vertices, which the
        # small graphs above never reach
        n = 300
        if shape == "ring":
            rng = random.Random(1)
            ends = [(v, (v + 1) % n, 1.0) for v in range(n)]
            ends += [(*rng.sample(range(n), 2), rng.uniform(1.0, 10.0)) for _ in range(n // 2)]
            g = Graph([Vertex(v) for v in range(n)], [Road(k, *e) for k, e in enumerate(ends)])
        else:
            g = generate_random(n, 1200, 0.0, 10.0, "directed", 2)
        base = dijkstra_classic(g, 0)
        table = DetourTable(g)
        largest = 0
        for road in g.roads:
            expected = dijkstra_classic(remove_road(g, road.key), 0)
            # every vertex whose distance grows lies in the road's subtree; take the farthest
            grown = [v for v in range(n) if expected[v] != base[v]]
            deep = max(grown, key=lambda v: (base[v], v), default=road.head)
            largest = max(largest, len(grown))
            for target in (road.head, deep):
                assert table.distance(road.key, 0, target) == expected[target]
        assert largest > 100

    def test_rejects_negative_road(self):
        g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 1.0\narc 1 2 -1.0\narc 0 2 3.0\n")
        with pytest.raises(ValueError, match="DetourTable requires nonnegative weights"):
            DetourTable(g)

    @pytest.mark.parametrize("make, solver", [
        (lambda g, table: anti_risk(g, table), eda),
        (lambda g, table: blocked_cost(g, 0.5, table), eda),
        (lambda g, table: expected_cost(g, 0.7, table), embfa),
    ], ids=["antirisk", "blocked-cost", "expected-cost"])
    def test_function_rejects_a_table_of_another_graph(self, make, solver):
        g, other = (generate_random(6, 14, 0.0, 10.0, "directed", seed) for seed in (4, 5))
        with pytest.raises(ValueError, match="^the detour table was built for another graph$"):
            make(g, DetourTable(other))
        system = PathSystem.simple(0)
        own = format_tree(*solver(g, 0, system, make(g, DetourTable(g))))
        assert own == format_tree(*solver(g, 0, system, make(g, None)))

    @pytest.mark.parametrize("make, solver, from_source", [
        (lambda g, table: anti_risk(g, table), eda, True),
        (lambda g, table: anti_risk(g, table), oracle_min, True),
        (lambda g, table: blocked_cost(g, 0.5, table), eda, False),
        (lambda g, table: blocked_cost(g, 0.5, table), oracle_min, False),
        (lambda g, table: expected_cost(g, 0.7, table), embfa, False),
        (lambda g, table: expected_cost(g, 0.7, table), oracle_min, False),
    ], ids=["antirisk-eda", "antirisk-oracle", "blocked-cost-eda", "blocked-cost-oracle",
            "expected-cost-embfa", "expected-cost-oracle"])
    def test_built_in_functions_ask_only_for_the_deleted_roads_head(self, make, solver, from_source):
        # the table answers any query, but its routes are sized for this traffic
        for seed in range(1, 5):
            g = generate_random(7, 18, 0.0, 10.0, "directed" if seed % 2 else "undirected", seed)
            source = seed % g.n
            table = RecordingTable(g)
            solver(g, source, PathSystem.simple(source), make(g, table))
            assert table.queries
            for deleted, origin, target in table.queries:
                road = g.road(deleted)
                assert target == road.head
                assert origin == (source if from_source else road.tail)


class RecordingTable(DetourTable):
    """Records every query on its way through, as the benchmark's traced table times it."""

    def __init__(self, graph):
        super().__init__(graph)
        self.queries = []

    def distance(self, deleted, origin, target):
        self.queries.append((deleted, origin, target))
        return super().distance(deleted, origin, target)


def direct_risk(graph, path, detour_from_source):
    """The anti-risk value straight from its definition (test oracle).

    ``detour_from_source(key, target)`` must give the source-to-target
    distance with road ``key`` deleted.
    """
    if not path.roads:
        return 0.0
    weights = [graph.road(k).weight for k in path.roads]
    k = len(weights)
    terms = [sum(weights), detour_from_source(path.roads[-1], path.vertices[-1])]
    for i in range(1, k):
        suffix = sum(weights[i:])
        terms.append(suffix + detour_from_source(path.roads[i - 1], path.vertices[i]))
    return max(terms)


class TestAntiRisk:
    def test_base(self, diamond):
        r = anti_risk(diamond)
        assert path_value(r, Path(diamond, 0)) == 0.0

    def test_one_road_path(self, diamond):
        # max(detour s->a with s->a deleted, w + 0) = max(3, 1)
        r = anti_risk(diamond)
        assert path_value(r, Path(diamond, 0, (0,))) == 3.0

    def test_two_road_path(self, diamond):
        r = anti_risk(diamond)
        assert path_value(r, Path(diamond, 0, (0, 6))) == 4.0

    def test_recurrence_matches_direct_formula(self, diamond):
        r = anti_risk(diamond)

        def detour(key, target):
            return brute_min_distance(remove_road(diamond, key), 0, target)

        for vertices, keys in brute_simple_paths(diamond, 0):
            p = Path(diamond, 0, keys)
            assert path_value(r, p) == pytest.approx(direct_risk(diamond, p, detour), abs=1e-9)

    def test_rejects_negative_weights(self):
        g = parse_graph("g 2 1\nv 0\nv 1\narc 0 1 -1.0\n")
        with pytest.raises(ValueError, match="nonnegative"):
            anti_risk(g)


class TestBlockedCost:
    def test_base(self, diamond):
        c = blocked_cost(diamond, 0.5)
        assert path_value(c, Path(diamond, 0)) == 0.0

    def test_no_detour_means_infinite(self):
        g = single_road()
        c = blocked_cost(g, 0.5)
        assert path_value(c, Path(g, 0, (0,))) == INF

    def test_diamond_one_road(self, diamond):
        c = blocked_cost(diamond, 0.5)
        # 0.5 * detour(s->a deleted; s to a) + w + 0 = 0.5*3 + 1
        assert path_value(c, Path(diamond, 0, (0,))) == 2.5

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_p_out_of_range(self, diamond, p):
        with pytest.raises(ValueError, match="p out of range"):
            blocked_cost(diamond, p)


class TestExpectedCost:
    def test_base(self, diamond):
        e = expected_cost(diamond, 0.5)
        assert path_value(e, Path(diamond, 0)) == 0.0

    def test_diamond_one_road(self, diamond):
        e = expected_cost(diamond, 0.5)
        # 0.5 * 3 + 0.5 * (1 + 0)
        assert path_value(e, Path(diamond, 0, (0,))) == 2.0

    def test_small_p_approaches_plain_cost(self, diamond):
        e = expected_cost(diamond, 0.01)
        for vertices, keys in brute_simple_paths(diamond, 0):
            if not keys:
                continue
            p = Path(diamond, 0, keys)
            parent = p.prefix(len(p) - 1)
            road = diamond.road(keys[-1])
            expected_near = road.weight + path_value(e, parent)
            assert path_value(e, p) == pytest.approx(expected_near, abs=0.1)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_p_out_of_range(self, diamond, p):
        with pytest.raises(ValueError, match="p out of range"):
            expected_cost(diamond, p)


# The property-flag closure as data: (id, declared, closure on the simple
# system, closure on all paths). NNC and NPC are the no-negative and
# no-non-positive circle flags.
NNC, NPC = NO_NEGATIVE_CIRCLES, NO_NONPOSITIVE_CIRCLES
CLOSURES = [
    # each flag alone
    ("NDSP", {NDSP}, {NDSP, NNC, NPC}, {NDSP}),
    ("INSP", {INSP}, {INSP, NNC, NPC}, {INSP}),
    ("SOP", {SOP}, {SOP, SOPSP, NNC, NPC}, {SOP, SOPSP}),
    ("SOPSP", {SOPSP}, {SOPSP, NNC, NPC}, {SOPSP}),
    ("OP", {OP}, {OP, SOP, OPSP, WOP, SOPSP, WOPSP, NNC, NPC}, {OP, SOP, OPSP, WOP, SOPSP, WOPSP}),
    ("OPSP", {OPSP}, {OPSP, SOPSP, WOPSP, NNC, NPC}, {OPSP, SOPSP, WOPSP}),
    ("WOP", {WOP}, {WOP, WOPSP, NNC, NPC}, {WOP, WOPSP}),
    ("WOPSP", {WOPSP}, {WOPSP, NNC, NPC}, {WOPSP}),
    ("WISP", {WISP}, {WISP, NNC, NPC}, {WISP}),
    ("NNC", {NNC}, {NNC, NPC}, {NNC}),
    ("NPC", {NPC}, {NNC, NPC}, {NNC, NPC}),
    # the built-ins' declared sets
    (
        "classic-nonnegative",
        {NDSP, SOP, OP, NNC},
        {NDSP, SOP, OP, OPSP, WOP, SOPSP, WOPSP, WISP, NNC, NPC},
        {NDSP, SOP, OP, OPSP, WOP, SOPSP, WOPSP, NNC},
    ),
    (
        "classic-conservative",
        {OP, NNC},
        {OP, SOP, OPSP, WOP, SOPSP, WOPSP, WISP, NNC, NPC},
        {OP, SOP, OPSP, WOP, SOPSP, WOPSP, NNC},
    ),
    *[
        (
            name,
            {NDSP, OP, WISP, NNC},
            {NDSP, OP, SOP, OPSP, WOP, SOPSP, WOPSP, WISP, NNC, NPC},
            {NDSP, OP, SOP, OPSP, WOP, SOPSP, WOPSP, WISP, NNC},
        )
        for name in ("anti-risk", "blocked-cost")
    ],
    ("expected-cost", {OP}, {OP, SOP, OPSP, WOP, SOPSP, WOPSP, NNC, NPC}, {OP, SOP, OPSP, WOP, SOPSP, WOPSP}),
    ("zero-cost", {NDSP, SOP, WISP}, {NDSP, SOP, SOPSP, WISP, NNC, NPC}, {NDSP, SOP, SOPSP, WISP}),
    # WISP from no non-positive circles and SOPSP (here derived from SOP);
    # without either premise, see the rows NPC and SOP
    ("NPC+SOP", {NPC, SOP}, {NPC, NNC, SOP, SOPSP, WISP}, {NPC, NNC, SOP, SOPSP, WISP}),
    # WISP from no negative circles, SOPSP and INSP; on a simple system the
    # vacuous circle flags come last and do not stand in for a missing one
    ("NNC+SOPSP+INSP", {NNC, SOPSP, INSP}, {NNC, NPC, SOPSP, INSP, WISP}, {NNC, SOPSP, INSP, WISP}),
    ("NNC+SOPSP+INSP-NNC", {SOPSP, INSP}, {SOPSP, INSP, NNC, NPC}, {SOPSP, INSP}),
    ("NNC+SOPSP+INSP-SOPSP", {NNC, INSP}, {NNC, NPC, INSP}, {NNC, INSP}),
    ("NNC+SOPSP+INSP-INSP", {NNC, SOPSP}, {NNC, NPC, SOPSP}, {NNC, SOPSP}),
    # on a simple system, WISP from OP and declared no negative circles:
    # the row classic-conservative meets it, and the rows OP and NNC each
    # miss one premise
    # an unknown flag passes through
    ("unknown", {"unknown", SOP}, {"unknown", SOP, SOPSP, NNC, NPC}, {"unknown", SOP, SOPSP}),
]


class TestDeclaredProperties:
    def test_classic_nonnegative(self, diamond):
        f = classic_distance(diamond)
        assert {NDSP, SOP, OP, NO_NEGATIVE_CIRCLES} <= f.declared_properties

    def test_classic_conservative(self):
        g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 2.0\narc 0 2 5.0\narc 1 2 -1.0\n")
        f = classic_distance(g)
        assert f.declared_properties == frozenset({OP, NO_NEGATIVE_CIRCLES})

    def test_vacuous_circle_freedom_does_not_give_wisp(self):
        # expected-cost declares only OP; its walks can have negative
        # circles, and on this instance its minima are not weakly inherited
        rng = random.Random(2002)
        n = rng.randint(4, 8)
        m = rng.randint(n, 3 * n)
        g = generate_random(n, m, 0.0, 10.0, "directed", 2002)
        system = PathSystem.simple(0)
        func = expected_cost(g, 0.7)
        implied = implied_properties(func.declared_properties, system)
        assert {OP, SOPSP, NO_NEGATIVE_CIRCLES, NO_NONPOSITIVE_CIRCLES} <= implied
        assert WISP not in implied
        assert check_wisp(g, 0, system, func).violated

    def test_closure_is_the_same_for_a_set_and_a_frozenset(self):
        for system in (PathSystem.simple(0), PathSystem.all_paths(0)):
            for declared in (set(), {OP}, {SOP, INSP, NO_NEGATIVE_CIRCLES}, {NO_NONPOSITIVE_CIRCLES, SOP}):
                from_set = implied_properties(set(declared), system)
                from_frozen = implied_properties(frozenset(declared), system)
                assert type(from_set) is frozenset and type(from_frozen) is frozenset
                assert from_set == from_frozen
                assert implied_properties(frozenset(declared), system) is from_frozen  # computed once

    @pytest.mark.parametrize("declared, on_simple, on_all", [pytest.param(*case, id=name) for name, *case in CLOSURES])
    def test_closure_pins(self, declared, on_simple, on_all):
        assert implied_properties(declared, PathSystem.simple(0)) == on_simple
        assert implied_properties(declared, PathSystem.all_paths(0)) == on_all

    def test_closure_pins_read_the_built_ins_declared_sets(self, diamond):
        conservative = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 2.0\narc 0 2 5.0\narc 1 2 -1.0\n")
        built_in = {
            "classic-nonnegative": classic_distance(diamond),
            "classic-conservative": classic_distance(conservative),
            "anti-risk": anti_risk(diamond),
            "blocked-cost": blocked_cost(diamond, 0.3),
            "expected-cost": expected_cost(diamond, 0.3),
            "zero-cost": ZERO_COST,
        }
        pinned = {name: declared for name, declared, _, _ in CLOSURES}
        for name, func in built_in.items():
            assert func.declared_properties == pinned[name], name
