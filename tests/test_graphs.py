"""Graph parsing, serialization, removal, degrees, and generation."""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minpath import (
    Graph,
    GraphFormatError,
    Road,
    Vertex,
    anti_risk,
    classic_distance,
    dijkstra_classic,
    generate_random,
    max_degree,
    parse_graph,
    remove_road,
    serialize_graph,
)


def triangle():
    vertices = [Vertex(0), Vertex(1), Vertex(2)]
    roads = [Road(0, 0, 1, 1.0), Road(1, 1, 2, 1.0), Road(2, 2, 0, 1.0)]
    return Graph(vertices, roads)


class TestParse:
    def test_smallest_legal_graph(self):
        g = parse_graph("g 2 1\nv 0\nv 1\narc 0 1 5.0\n")
        assert g.n == 2
        assert g.m == 1
        assert g.roads[0] == Road(0, 0, 1, 5.0)

    def test_undirected_expansion(self):
        g = parse_graph("g 2 1\nv 0\nv 1\nedge 0 1 3.0\n")
        assert g.n == 2
        assert g.m == 2
        assert g.roads[0] == Road(0, 0, 1, 3.0)
        assert g.roads[1] == Road(1, 1, 0, 3.0)

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphFormatError, match=r"road endpoint out of range, line 4"):
            parse_graph("g 2 1\nv 0\nv 1\narc 0 2 1.0\n")

    def test_comments_blanks_and_labels(self):
        text = "# header comment\n\ng 2 1  # trailing\nv 0 start\nv 1\n\narc 0 1 2.5\n"
        g = parse_graph(text)
        assert g.vertices[0].label == "start"
        assert g.vertices[1].label is None
        assert g.roads[0].weight == 2.5

    def test_vertex_order_free(self):
        g = parse_graph("g 2 1\nv 1\nv 0\narc 0 1 1.0\n")
        assert [v.id for v in g.vertices] == [1, 0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("v 0\n", "expected header"),
            ("g 2 1\nv 0\nv 0\narc 0 1 1.0\n", "duplicate vertex id 0"),
            ("g 2 1\nv 0\nv 5\narc 0 1 1.0\n", "vertex id 5 out of range"),
            ("g 2 1\nv 0\nv 1\narc 0 0 1.0\n", "self-loop"),
            ("g 2 1\nv 0\nv 1\narc 0 1 nan\n", "non-finite weight"),
            ("g 2 1\nv 0\nv 1\narc 0 1 inf\n", "non-finite weight"),
            ("g 2 1\nv 0\nv 1\nroad 0 1 1.0\n", "unknown directive"),
            ("g 2 1\nv 0\nv 1\narc 0 1\n", "syntax error"),
            ("g 2 1\nv 0\nv 1\narc 0 1 abc\n", "not a number"),
            ("g 2 2\nv 0\nv 1\narc 0 1 1.0\n", "declared 2 road lines, found 1"),
            ("g 3 1\nv 0\nv 1\narc 0 1 1.0\n", "expected 3 vertex lines"),
            ("g 1 0\nv 0\n", "at least 2"),
            ("", "missing"),
            ("g x 1\nv 0\nv 1\narc 0 1 1.0\n", "vertex count 'x' is not an integer, line 1"),
            ("g 2 1\nv 0\nv a\narc 0 1 1.0\n", "vertex id 'a' is not an integer, line 3"),
            ("g 2 -1\nv 0\nv 1\n", "road line count must be nonnegative, line 1"),
            ("g 2 1\nv 0 s t\nv 1\narc 0 1 1.0\n", r"expected 'v <id> \[label\]', line 2"),
        ],
    )
    def test_rejects(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_graph(text)

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as info:
            parse_graph("g 2 1\nv 0\nv 1\narc 0 1 nan\n")
        assert info.value.line == 4


class TestRoundTrip:
    def test_diamond(self, diamond):
        assert parse_graph(serialize_graph(diamond)) == diamond

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 8),
        m=st.integers(0, 20),
        seed=st.integers(0, 10_000),
        mode=st.sampled_from(["directed", "undirected", "conservative"]),
    )
    def test_generated_graphs(self, n, m, seed, mode):
        g = generate_random(n, m, 0.0, 10.0, mode, seed)
        again = parse_graph(serialize_graph(g))
        assert again == g
        assert [r.key for r in again.roads] == [r.key for r in g.roads]
        assert all(a.weight == b.weight for a, b in zip(again.roads, g.roads))

    def test_self_loop_refused(self):
        # parse_graph rejects an arc line from a vertex to itself, so no text is written
        g = Graph([Vertex(0), Vertex(1), Vertex(2)], [Road(0, 0, 1, 1.0), Road(1, 1, 1, 2.0)])
        with pytest.raises(ValueError, match="road 1 is a self-loop at vertex 1"):
            serialize_graph(g)

    @pytest.mark.parametrize("label", ["a b", "x#y", "", " a", "a\n", "\t"])
    def test_label_that_is_not_one_token_refused(self, label):
        # parse_graph would reject the vertex line or read back another label, so no text is written
        g = Graph([Vertex(0, label), Vertex(1)], [Road(0, 0, 1, 1.0)])
        with pytest.raises(ValueError, match="vertex 0 label .* is not one token"):
            serialize_graph(g)

    def test_one_token_labels_round_trip(self):
        g = Graph([Vertex(0, "a-b"), Vertex(1, "x.y"), Vertex(2)], [Road(0, 0, 1, 1.0), Road(1, 1, 2, 1.0)])
        assert [v.label for v in parse_graph(serialize_graph(g)).vertices] == ["a-b", "x.y", None]


class TestRemoveRoad:
    def test_removes_one_key(self):
        g = triangle()
        h = remove_road(g, 1)
        assert h.n == 3
        assert h.m == 2
        assert sorted(r.key for r in h.roads) == [0, 2]
        assert g.m == 3  # original untouched

    def test_remove_only_road(self):
        g = parse_graph("g 2 1\nv 0\nv 1\narc 0 1 5.0\n")
        h = remove_road(g, 0)
        assert (h.n, h.m) == (2, 0)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown road key"):
            remove_road(triangle(), 99)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_counts(self, seed):
        g = generate_random(5, 8, 0.0, 4.0, "directed", seed)
        key = g.roads[seed % g.m].key
        h = remove_road(g, key)
        assert h.n == g.n
        assert h.m == g.m - 1
        assert not h.has_road(key)


class TestMaxDegree:
    def test_star(self):
        g = Graph([Vertex(i) for i in range(4)], [Road(i, 0, i + 1, 1.0) for i in range(3)])
        assert max_degree(g) == 3

    def test_single_road(self):
        g = parse_graph("g 2 1\nv 0\nv 1\narc 0 1 1.0\n")
        assert max_degree(g) == 1

    def test_matches_independent_incidence_count(self):
        g = generate_random(6, 10, 0.0, 10.0, "directed", 7)
        incidence = {v.id: 0 for v in g.vertices}
        for r in g.roads:
            incidence[r.tail] += 1
            incidence[r.head] += 1
        assert max_degree(g) == max(incidence.values())


def enumerate_simple_cycles(graph):
    """All simple directed road-cycles, as key tuples (independent oracle)."""
    cycles = []
    outgoing = {}
    for road in graph.roads:
        outgoing.setdefault(road.tail, []).append(road)

    def rec(start, at, vertices, keys):
        for road in outgoing.get(at, ()):
            if road.head == start:
                cycles.append(tuple(keys + [road.key]))
            elif road.head > start and road.head not in vertices:
                rec(start, road.head, vertices | {road.head}, keys + [road.key])

    for start in range(graph.n):
        rec(start, start, {start}, [])
    return cycles


class TestGenerate:
    def test_forced_single_road(self):
        g = generate_random(2, 1, 1.0, 1.0, "directed", 0)
        assert g.m == 1
        assert g.roads[0].weight == 1.0
        assert g.roads[0].tail != g.roads[0].head

    def test_deterministic_for_seed(self):
        a = generate_random(7, 15, 0.0, 10.0, "directed", 42)
        b = generate_random(7, 15, 0.0, 10.0, "directed", 42)
        assert serialize_graph(a) == serialize_graph(b)

    def test_undirected_mode_pairs_roads(self):
        g = generate_random(5, 6, 0.0, 10.0, "undirected", 3)
        assert g.m == 12
        for i in range(6):
            a, b = g.roads[2 * i], g.roads[2 * i + 1]
            assert (a.tail, a.head) == (b.head, b.tail)
            assert a.weight == b.weight

    @pytest.mark.parametrize("seed", range(10))
    def test_conservative_cycles_nonnegative(self, seed):
        g = generate_random(6, 14, 0.0, 10.0, "conservative", seed)
        for keys in enumerate_simple_cycles(g):
            total = sum(g.road(k).weight for k in keys)
            assert total >= -1e-9

    def test_conservative_produces_negative_weights_somewhere(self):
        # Not contractual per seed, but the family must exercise negatives.
        assert any(
            r.weight < 0
            for seed in range(10)
            for r in generate_random(6, 14, 0.0, 10.0, "conservative", seed).roads
        )

    def test_never_self_loops(self):
        for seed in range(5):
            for mode in ("directed", "undirected", "conservative"):
                g = generate_random(4, 10, 0.0, 5.0, mode, seed)
                assert all(r.tail != r.head for r in g.roads)

    @pytest.mark.parametrize(
        "mode, digests",
        [
            ("directed", [
                "c4f5e472a7ab3bc929ed938e89d3d0e0b7a7d5bbb7b327ee95fca7865d2eb407",
                "24520b2831da69afe31d5a91160172c84e32a16668257eb93a486bc976ab1983",
                "f1565f7d89b75e89d736278a67af1b2c1b35a3fe89c73b8903bd4f81b92d46aa",
                "86ba65e2b3060608a70c964c311c538bb60eb3df8e4d082bb610c807b4069b1e",
                "2ec8403b528360bea39ffc5ac64870af1a809fd161f8305e49077dbb106585e2",
            ]),
            ("undirected", [
                "fb1a580c97044e36d618c4a3d7283d9d02ea4f37a19dd73e0456ecd1da0d18bb",
                "b795a27511a49724648ae0c8d65d233db12231c663ff4e07c121b6eb5d4a2bb9",
                "5a81814944d8518d1ef36962ebf893f66123dd9b6e44e08dae87cfcbffb08c42",
                "97cab2092cb82bffbc6642d01a503d10fdb23abffccb275640d65327aab24e54",
                "758568a902a464fbb0b9d44f5db64c4c95386dbf5b325c03e1b8f92e3a72066f",
            ]),
            ("conservative", [
                "4744191d0699d70721ce790359de70cd070bd4e1b77ce8697a7bb2bed0abd515",
                "6f9b2a1acc02853a6bcb2518f9bf74a6b22b5683d9d00762ebcd3694028f9447",
                "b7fda2cbe65ce10fbc10139f2201853f3655d902646d927e71c3c8dcfcfeff90",
                "5655fda273a28d3111cb7229f6241e75ad52d655426d8ae314c81534f8c901d6",
                "abd1a52283ebdfd410731bbd041976625ca57d936f09a2bfab77e0a056e92242",
            ]),
        ],
    )
    def test_pinned_output(self, mode, digests):
        # sha256 of the serialized graphs for seeds 0-4, so the RNG calls keep their order
        texts = [serialize_graph(generate_random(12, 40, 0.0, 10.0, mode, seed)) for seed in range(5)]
        assert [hashlib.sha256(text.encode()).hexdigest() for text in texts] == digests

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, m=1, weight_low=0.0, weight_high=1.0),
            dict(n=3, m=-1, weight_low=0.0, weight_high=1.0),
            dict(n=3, m=2, weight_low=2.0, weight_high=1.0),
            dict(n=3, m=2, weight_low=-1.0, weight_high=1.0, mode="conservative"),
            dict(n=3, m=2, weight_low=0.0, weight_high=1.0, mode="bogus"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        kwargs.setdefault("mode", "directed")
        with pytest.raises(ValueError):
            generate_random(seed=0, **kwargs)

    @pytest.mark.parametrize("low, high", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_rejects_non_finite_bounds(self, low, high):
        with pytest.raises(ValueError, match="weight bounds must be finite"):
            generate_random(3, 2, low, high)


class TestGraphConstruction:
    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate road key"):
            Graph([Vertex(0), Vertex(1)], [Road(0, 0, 1, 1.0), Road(0, 1, 0, 1.0)])

    def test_non_dense_vertices(self):
        with pytest.raises(ValueError, match="dense"):
            Graph([Vertex(0), Vertex(2)], [])

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="road 0 has non-finite weight"):
            Graph([Vertex(0), Vertex(1)], [Road(0, 0, 1, weight)])

    def test_bad_endpoint(self):
        with pytest.raises(ValueError, match="endpoint out of range"):
            Graph([Vertex(0), Vertex(1)], [Road(0, 0, 5, 1.0)])

    def test_unknown_road_lookup(self, diamond):
        with pytest.raises(ValueError, match="unknown road key 99"):
            diamond.road(99)

    def test_negative_weight_is_recorded_per_graph(self):
        # the weights are scanned once, when the graph is built; a copy
        # without the one negative road is nonnegative again
        g = Graph([Vertex(0), Vertex(1), Vertex(2)], [Road(0, 0, 1, 1.0), Road(1, 1, 2, -1.0), Road(2, 0, 2, 0.0)])
        with pytest.raises(ValueError, match="^dijkstra_classic requires nonnegative weights$"):
            dijkstra_classic(g, 0)
        with pytest.raises(ValueError, match="anti-risk requires nonnegative weights"):
            anti_risk(g)
        assert "NDSP" not in classic_distance(g).declared_properties
        rest = remove_road(g, 1)
        assert dijkstra_classic(rest, 0) == (0.0, 1.0, 0.0)
        assert "NDSP" in classic_distance(rest).declared_properties
        anti_risk(rest)

    def test_adjacency_sorted_by_key(self, diamond):
        for v in range(diamond.n):
            keys = [r.key for r in diamond.out_roads(v)]
            assert keys == sorted(keys)
