"""Oracle exactness, property checkers, and checker soundness."""

from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minpath
from minpath import (
    Graph,
    OracleResult,
    Path,
    PathFunction,
    PathSystem,
    PropertyRefusalError,
    Road,
    ShortestPathTree,
    Vertex,
    anti_risk,
    blocked_cost,
    check_no_negative_circles,
    check_property,
    check_wisp,
    classic_distance,
    compare_tree_to_oracle,
    eda,
    enumerate_paths,
    expected_cost,
    format_path,
    generate_random,
    implied_properties,
    oracle_min,
    parse_graph,
    path_value,
    serialize_graph,
    sta,
)
from minpath.paths import INF, INSP, NDSP, NO_NEGATIVE_CIRCLES, OP, OPSP, SOP, SOPSP, WISP, WOP, WOPSP
from minpath.verify import DEF1_PROPERTIES, NO_VIOLATION, VIOLATED

from conftest import brute_simple_paths, parity_length, random_instances


def single_road():
    return parse_graph("g 2 1\nv 0\nv 1\narc 0 1 5.0\n")


def wisp_counterexample_graph():
    """Every route to vertex 3 has a non-minimal prefix under parity."""
    return parse_graph(
        "g 4 4\nv 0\nv 1\nv 2\nv 3\n"
        "arc 0 1 1.0\narc 0 2 2.0\narc 2 1 2.0\narc 1 3 1.0\n"
    )


class TestEnumeratePaths:
    def test_single_road(self):
        g = single_road()
        paths = list(enumerate_paths(g, 0, PathSystem.simple(0), 5))
        assert [p.roads for p in paths] == [(), (0,)]

    def test_diamond_has_eleven_simple_paths(self, diamond):
        paths = list(enumerate_paths(diamond, 0, PathSystem.simple(0), diamond.n - 1))
        assert len(paths) == 11
        assert paths[0].roads == ()
        assert all(len(set(p.vertices)) == len(p.vertices) for p in paths)
        # complete and identical to an independent enumerator
        assert {p.roads for p in paths} == {keys for _, keys in brute_simple_paths(diamond, 0)}

    def test_bound_zero(self, diamond):
        assert [p.roads for p in enumerate_paths(diamond, 0, PathSystem.simple(0), 0)] == [()]

    def test_all_paths_include_revisits(self, diamond):
        paths = list(enumerate_paths(diamond, 0, PathSystem.all_paths(0), 2))
        assert any(len(set(p.vertices)) < len(p.vertices) for p in paths)

    def test_bound_is_respected(self, diamond):
        for p in enumerate_paths(diamond, 0, PathSystem.all_paths(0), 2):
            assert len(p.roads) <= 2

    def test_errors(self, diamond):
        with pytest.raises(ValueError, match="nonnegative"):
            list(enumerate_paths(diamond, 0, PathSystem.simple(0), -1))
        with pytest.raises(ValueError, match="does not match"):
            list(enumerate_paths(diamond, 0, PathSystem.simple(1), 3))

    def test_source_out_of_range_is_rejected_at_the_call(self, diamond):
        with pytest.raises(ValueError, match="^source 99 out of range$"):
            enumerate_paths(diamond, 99, PathSystem.simple(99), 3)


class TestOracleMin:
    def test_diamond_classic(self, diamond):
        result = oracle_min(diamond, 0, PathSystem.simple(0), classic_distance(diamond))
        assert result.minimum == {0: 0.0, 1: 1.0, 2: 2.0, 3: 2.0}
        assert result.enumerated_count == 11

    def test_source_witness_is_trivial(self, diamond):
        result = oracle_min(diamond, 0, PathSystem.simple(0), classic_distance(diamond))
        assert result.witness[0].roads == ()
        assert result.minimum[0] == 0.0

    def test_witnesses_refold_exactly(self, diamond):
        func = anti_risk(diamond)
        result = oracle_min(diamond, 0, PathSystem.simple(0), func)
        for v, path in result.witness.items():
            assert path_value(func, path) == result.minimum[v]

    def test_gate_requires_circle_freedom(self, diamond):
        parity = parity_length(diamond)
        with pytest.raises(PropertyRefusalError, match="no-negative-circles, required by the oracle"):
            oracle_min(diamond, 0, PathSystem.all_paths(0), parity)
        # vacuously circle-free on a simple-path system
        result = oracle_min(diamond, 0, PathSystem.simple(0), parity)
        assert result.minimum[1] == 1.0  # every simple route to a has odd floor-length

    @pytest.mark.parametrize("check", [
        lambda g, system, func: oracle_min(g, 0, system, func),
        lambda g, system, func: check_wisp(g, 0, system, func),
        lambda g, system, func: check_property(g, 0, system, func, SOPSP),
    ], ids=["oracle_min", "check_wisp", "check_property-SOPSP"])
    def test_refusal_names_the_missing_flag_before_any_walk(self, check, monkeypatch, diamond):
        # parity declares nothing, so on all paths it lacks the oracle's flag
        def no_walk(*args):
            pytest.fail("walked the paths for a function the oracle refuses")

        monkeypatch.setattr(minpath.verify, "_Walk", no_walk)
        with pytest.raises(PropertyRefusalError, match="^path function 'parity' does not declare or imply "
                           "no-negative-circles, required by the oracle "):
            check(diamond, PathSystem.all_paths(0), parity_length(diamond))

    @pytest.mark.parametrize("check", [
        lambda g, system, func: oracle_min(g, 0, system, func),
        lambda g, system, func: check_wisp(g, 0, system, func),
        lambda g, system, func: check_property(g, 0, system, func, NDSP),
    ], ids=["oracle_min", "check_wisp", "check_property-NDSP"])
    def test_system_of_another_source_is_refused_before_any_walk(self, check, monkeypatch):
        g = generate_random(5, 10, 0, 10, "directed", 1)

        def no_walk(*args):
            pytest.fail("walked the paths of a system with another source")

        monkeypatch.setattr(minpath.verify, "_Walk", no_walk)
        with pytest.raises(ValueError, match="^path system source 3 does not match 0$"):
            check(g, PathSystem.simple(3), classic_distance(g))


class TestCheckProperty:
    def test_classic_is_sop_on_diamond(self, diamond):
        report = check_property(diamond, 0, PathSystem.simple(0), classic_distance(diamond), "SOP")
        assert report.verdict == NO_VIOLATION
        assert report.scope == "max_roads:3"

    def test_expected_cost_is_op_on_diamond(self, diamond):
        report = check_property(diamond, 0, PathSystem.simple(0), expected_cost(diamond, 0.5), "OP")
        assert report.verdict == NO_VIOLATION

    def test_parity_violates_ndsp_on_diamond(self, diamond):
        parity = parity_length(diamond)
        report = check_property(diamond, 0, PathSystem.simple(0), parity, "NDSP")
        assert report.violated
        # soundness: the witness re-checks as a violation by direct evaluation
        details = report.details
        path, road = details["path"], details["road"]
        value = path_value(parity, path)
        assert value == details["value"]
        minima = oracle_min(diamond, 0, PathSystem.simple(0), parity).minimum
        assert value == minima[path.terminal]
        son = path.extended(road.key)
        assert path_value(parity, son) < value

    def test_unknown_property(self, diamond):
        with pytest.raises(ValueError, match="unknown property name"):
            check_property(diamond, 0, PathSystem.simple(0), classic_distance(diamond), "NOPE")

    def test_report_format(self, diamond):
        report = check_property(diamond, 0, PathSystem.simple(0), classic_distance(diamond), "OP")
        assert report.format() == "property=OP verdict=no-violation-found scope=max_roads:3 witness=-"

    @pytest.mark.parametrize("unrestricted, restricted", [("SOP", "SOPSP"), ("OP", "OPSP"), ("WOP", "WOPSP")])
    def test_unrestricted_pass_implies_sp_pass(self, unrestricted, restricted):
        # the -SP variant tests a subset of the unrestricted hypotheses
        for _, g in random_instances(5, (4, 6), seed_base=900):
            system = PathSystem.simple(0)
            func = classic_distance(g)
            if check_property(g, 0, system, func, unrestricted).verdict == NO_VIOLATION:
                assert check_property(g, 0, system, func, restricted).verdict == NO_VIOLATION

    def test_minima_come_from_the_oracle_not_the_bounded_walk(self):
        # Within one road the walk reaches 1 only directly (value 5), but the
        # simple-path minimum at 1 is 2 (via 2). So 0->1 is no minimum path,
        # and its falling son via the -10 road is outside NDSP's hypothesis.
        g = parse_graph("g 4 4\nv 0\nv 1\nv 2\nv 3\narc 0 1 5.0\narc 0 2 1.0\narc 2 1 1.0\narc 1 3 -10.0\n")
        func = classic_distance(g)
        for system in (PathSystem.simple(0), PathSystem.all_paths(0)):
            assert check_property(g, 0, system, func, "NDSP", max_roads=1).verdict == NO_VIOLATION
            report = check_property(g, 0, system, func, "NDSP")
            assert report.violated
            assert report.details["path"].roads == (1, 2)

    @pytest.mark.parametrize("prop", ["NDSP", "INSP"])
    def test_a_drop_at_a_son_cut_off_by_the_bound(self, prop):
        # Only road k2 lowers the value, and its one tail path has two roads: at
        # bound 2 the walk cuts that son off and the check values it apart; at
        # bound 3 the census holds it. Both report the same violation.
        g = Graph([Vertex(v) for v in range(4)], [Road(k, k, k + 1, 1.0) for k in range(3)])
        func = PathFunction("drop-on-k2", 0.0, lambda value, parent, road: value + (-5.0 if road.key == 2 else 1.0))
        system = PathSystem.simple(0)
        cut, census = (check_property(g, 0, system, func, prop, max_roads) for max_roads in (2, 3))
        assert cut.violated and cut.scope == "max_roads:2" and census.scope == "max_roads:3"
        assert cut.witness == census.witness == "P=s=0 -> 1[k0] -> 2[k1] f=2.0; son via k2 f=-3.0"
        assert cut.details == census.details

    def test_all_paths_pairs_include_circles(self):
        # A road out of a non-simple path costs 100 less, so the circle path
        # 0->1->0 beats the minimum path 0 on road 0->2. Only the all-paths
        # walk holds that pair; the oracle's simple walk does not.
        g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 1.0\narc 1 0 1.0\narc 0 2 1.0\n")

        def extend(value, parent, road):
            return value + road.weight - (0.0 if len(set(parent.vertices)) == len(parent.vertices) else 100.0)

        func = PathFunction("circle-bonus", 0.0, extend, frozenset({NO_NEGATIVE_CIRCLES}))
        assert check_property(g, 0, PathSystem.simple(0), func, "SOPSP").verdict == NO_VIOLATION
        report = check_property(g, 0, PathSystem.all_paths(0), func, "SOPSP")
        assert report.violated
        assert report.details["other"].roads == (0, 1)

    def test_all_paths_sop_on_a_dense_graph_ends(self):
        # 7 vertices and 32 roads: every ordered pair of same-terminal walks
        # per road is far too many to scan, so the clauses sort each list
        g = generate_random(7, 16, 0, 10, "undirected", 35)
        start = time.perf_counter()
        report = check_property(g, 0, PathSystem.all_paths(0), classic_distance(g), "SOP")
        assert time.perf_counter() - start < 60
        assert report.format() == "property=SOP verdict=no-violation-found scope=max_roads:6 witness=-"
        # the walk's memory grows with its members, not with a container per member
        tracemalloc.start()
        try:
            report = check_property(g, 0, PathSystem.all_paths(0), classic_distance(g), "SOP", max_roads=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.format() == "property=SOP verdict=no-violation-found scope=max_roads:4 witness=-"
        assert peak < 1.25 * 2**20


class TestCheckCircles:
    def test_classic_nonnegative_clean(self, diamond):
        report = check_no_negative_circles(diamond, 0, classic_distance(diamond))
        assert report.verdict == NO_VIOLATION
        assert report.scope == "max_roads:6"

    def test_negative_circle_found_with_witness(self):
        g = parse_graph("g 2 2\nv 0\nv 1\narc 0 1 1.0\narc 1 0 -2.0\n")
        func = classic_distance(g)
        report = check_no_negative_circles(g, 0, func)
        assert report.violated
        prefix, full = report.details["prefix"], report.details["full"]
        assert prefix.terminal == full.terminal
        assert path_value(func, full) < path_value(func, prefix)

    def test_zero_circle_trips_only_strict_variant(self):
        g = parse_graph("g 2 2\nv 0\nv 1\narc 0 1 0.0\narc 1 0 0.0\n")
        func = classic_distance(g)
        assert check_no_negative_circles(g, 0, func).verdict == NO_VIOLATION
        assert check_no_negative_circles(g, 0, func, strict=True).violated

    def test_conservative_generator_is_clean(self):
        for seed in range(5):
            g = generate_random(5, 10, 0.0, 10.0, "conservative", seed)
            report = check_no_negative_circles(g, 0, classic_distance(g))
            assert report.verdict == NO_VIOLATION

    def test_bound_must_fit_a_circle(self, diamond):
        with pytest.raises(ValueError, match="at least n"):
            check_no_negative_circles(diamond, 0, classic_distance(diamond), max_roads=2)

    @pytest.mark.parametrize("strict", [False, True])
    def test_reports_match_a_scan_of_whole_vertex_lists(self, strict):
        # 40 graphs with some negative roads, so both verdicts occur
        verdicts = set()
        for seed in range(40):
            g = generate_random(7, 14, -2.0, 10.0, "directed", seed)
            func = classic_distance(g)
            report = check_no_negative_circles(g, 0, func, strict=strict)
            expected = None
            for path in enumerate_paths(g, 0, PathSystem.all_paths(0), g.n + 2):
                full, vertices = path_value(func, path), path.vertices
                for i in range(len(path)):
                    before = path_value(func, path.prefix(i))
                    diff = full - before
                    if vertices[i] == vertices[-1] and (diff <= 1e-9 if strict else diff < -1e-9):
                        expected = {"prefix": path.prefix(i), "full": path, "values": (before, full)}
                        break
                if expected is not None:
                    break
            assert report.details == expected
            assert report.verdict == (NO_VIOLATION if expected is None else VIOLATED)
            verdicts.add(report.verdict)
        assert verdicts == {NO_VIOLATION, VIOLATED}


class TestCheckWisp:
    def test_classic_on_diamond(self, diamond):
        report = check_wisp(diamond, 0, PathSystem.simple(0), classic_distance(diamond))
        assert report.verdict == NO_VIOLATION

    def test_antirisk_on_diamond(self, diamond):
        report = check_wisp(diamond, 0, PathSystem.simple(0), anti_risk(diamond))
        assert report.verdict == NO_VIOLATION

    def test_parity_violation_names_vertex(self):
        g = wisp_counterexample_graph()
        parity = parity_length(g)
        report = check_wisp(g, 0, PathSystem.simple(0), parity)
        assert report.violated
        assert report.details["vertex"] == 3
        # soundness: no route to 3 keeps all prefixes minimal
        minima = oracle_min(g, 0, PathSystem.simple(0), parity).minimum
        for vertices, keys in brute_simple_paths(g, 0):
            if vertices[-1] != 3:
                continue
            path = Path(g, 0, keys)
            prefix_minimal = all(
                path_value(parity, path.prefix(i)) == minima[path.vertices[i]]
                for i in range(1, len(keys) + 1)
            )
            assert not prefix_minimal


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 7),
    data=st.data(),
    mode=st.sampled_from(["directed", "undirected"]),
    high=st.sampled_from([10.0, 2.0, 0.0]),
    kind=st.sampled_from(["parity", "antirisk", "expected-cost"]),
    seed=st.integers(0, 10_000),
)
def test_check_wisp_matches_its_definition(n, data, mode, high, kind, seed):
    g = generate_random(n, data.draw(st.integers(n, 3 * n)), 0.0, high, mode, seed)
    func = {"parity": parity_length, "antirisk": anti_risk, "expected-cost": lambda g: expected_cost(g, 0.7)}[kind](g)
    system = PathSystem.simple(0)
    minima = oracle_min(g, 0, system, func).minimum
    # a vertex is witnessed when some simple path to it has only minimum prefixes
    paths = brute_simple_paths(g, 0)
    value = {keys: path_value(func, Path(g, 0, keys)) for _, keys in paths}
    witnessed = {
        vertices[-1]
        for vertices, keys in paths
        if all(
            value[keys[:i]] == minima[vertices[i]] or abs(value[keys[:i]] - minima[vertices[i]]) <= 1e-9
            for i in range(len(keys) + 1)
        )
    }
    report = check_wisp(g, 0, system, func)
    assert (report.details["missing"] if report.violated else []) == sorted(set(minima) - witnessed)


class TestCompareTreeToOracle:
    def test_pass_with_zero_deviation(self, diamond):
        system = PathSystem.simple(0)
        func = classic_distance(diamond)
        tree, _ = eda(diamond, 0, system, func)
        oracle = oracle_min(diamond, 0, system, func)
        report = compare_tree_to_oracle(tree, oracle)
        assert report.verdict == NO_VIOLATION

    def test_corrupted_value_is_named(self, diamond):
        system = PathSystem.simple(0)
        func = classic_distance(diamond)
        tree, _ = eda(diamond, 0, system, func)
        oracle = oracle_min(diamond, 0, system, func)
        tree.value[3] += 1.0
        report = compare_tree_to_oracle(tree, oracle)
        assert report.violated
        assert report.details["vertex"] == 3

    def test_covered_set_mismatch(self, diamond):
        system = PathSystem.simple(0)
        func = classic_distance(diamond)
        tree, _ = eda(diamond, 0, system, func)
        oracle = oracle_min(diamond, 0, system, func)
        paths = {v: path for v, path in tree.paths.items() if v != 3}
        value = {v: val for v, val in tree.value.items() if v != 3}
        tree = ShortestPathTree(tree.source, paths, value)
        report = compare_tree_to_oracle(tree, oracle)
        assert report.violated
        assert "covered sets differ" in report.witness

    @pytest.mark.parametrize("tree_value, oracle_value", [(INF, 5.0), (-INF, INF), (INF, INF)],
                             ids=["inf-vs-finite", "minus-inf-vs-inf", "inf-vs-inf"])
    def test_infinite_deviations(self, tree_value, oracle_value):
        g = single_road()
        paths = {0: Path(g, 0), 1: Path(g, 0, (0,))}
        tree = ShortestPathTree(0, paths, {0: 0.0, 1: tree_value})
        oracle = OracleResult(0, {0: 0.0, 1: oracle_value}, dict(paths), 2)
        report = compare_tree_to_oracle(tree, oracle)
        if tree_value == oracle_value:
            assert report.verdict == NO_VIOLATION
        else:
            assert report.details == {"vertex": 1, "tree": tree_value, "oracle": oracle_value, "deviation": INF}

    def test_structural_tree_names_its_first_valueless_vertex(self):
        g = generate_random(6, 14, 0, 10, "undirected", 2)
        oracle = oracle_min(g, 0, PathSystem.simple(0), classic_distance(g))
        with pytest.raises(ValueError, match="^the tree has no value at covered vertex 0$"):
            compare_tree_to_oracle(sta(g, 0), oracle)

    def test_mismatched_sources(self, diamond):
        system = PathSystem.simple(0)
        func = classic_distance(diamond)
        tree, _ = eda(diamond, 0, system, func)
        oracle = oracle_min(diamond, 0, system, func)
        oracle.source = 1
        with pytest.raises(ValueError, match="mismatched sources"):
            compare_tree_to_oracle(tree, oracle)


@pytest.mark.parametrize("check", [
    lambda g, func, tol: check_property(g, 0, PathSystem.simple(0), func, NDSP, tol=tol),
    lambda g, func, tol: check_no_negative_circles(g, 0, func, tol=tol),
    lambda g, func, tol: check_wisp(g, 0, PathSystem.simple(0), func, tol),
    lambda g, func, tol: compare_tree_to_oracle(
        eda(g, 0, PathSystem.simple(0), func)[0], oracle_min(g, 0, PathSystem.simple(0), func), tol
    ),
], ids=["check_property", "check_no_negative_circles", "check_wisp", "compare_tree_to_oracle"])
class TestTolerance:
    @pytest.mark.parametrize("tol", [-1.0, float("nan"), INF], ids=["negative", "nan", "inf"])
    def test_rejects_a_bad_tolerance(self, diamond, check, tol):
        with pytest.raises(ValueError, match=f"^tolerance must be finite and nonnegative, not {tol!r}$"):
            check(diamond, classic_distance(diamond), tol)

    def test_accepts_zero(self, diamond, check):
        assert check(diamond, classic_distance(diamond), 0.0).verdict == NO_VIOLATION


class TestBoundedLengthConvergence:
    def test_minimum_over_bounded_paths_converges(self):
        # For circle-free costs, min over paths of <= L roads is nonincreasing
        # in L and reaches the simple-path minimum at L = n-1.
        for _, g in random_instances(5, (4, 5), seed_base=1200):
            func = classic_distance(g)
            system = PathSystem.all_paths(0)
            simple_min = oracle_min(g, 0, PathSystem.simple(0), func).minimum
            previous: dict[int, float] = {}
            for bound in range(g.n + 3):
                best: dict[int, float] = {}
                for path in enumerate_paths(g, 0, system, bound):
                    value = path_value(func, path)
                    t = path.terminal
                    if t not in best or value < best[t]:
                        best[t] = value
                for v, value in previous.items():
                    assert best[v] <= value
                if bound >= g.n - 1:
                    assert best == simple_min
                previous = best


def test_nan_from_extend_is_rejected_by_the_checkers():
    g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 1.0\narc 0 2 1.0\narc 1 2 1.0\n")
    system = PathSystem.simple(0)
    # NaN, and a result that is not a real number at all
    for bad, message in ((float("nan"), "returned NaN"), ("x", "returned non-numeric 'x'")):

        def extend(value, parent, road):
            return bad if road.key == 0 else value + road.weight

        func = PathFunction("bad-on-k0", 0.0, extend, frozenset({NDSP, OP, WISP, NO_NEGATIVE_CIRCLES}))
        message = f"path function 'bad-on-k0' {message} extending by road 0"
        with pytest.raises(ValueError, match=message):
            check_no_negative_circles(g, 0, func)
        with pytest.raises(ValueError, match=message):
            check_property(g, 0, system, func, "NDSP")
        with pytest.raises(ValueError, match=message):
            check_wisp(g, 0, system, func)
        with pytest.raises(ValueError, match=message):
            path_value(func, Path(g, 0, (0, 2)))


def counted(func):
    """``func`` as a new function object whose extend calls are counted in ``calls[0]``."""
    calls = [0]

    def extend(value, parent, road):
        calls[0] += 1
        return func.extend(value, parent, road)

    return dataclasses.replace(func, extend=extend), calls


def census_reports(graph, source, func):
    """repr of the oracle's result and of every check the census serves."""
    system = PathSystem.simple(source)
    reports = [oracle_min(graph, source, system, func)]
    reports += [check_property(graph, source, system, func, prop) for prop in DEF1_PROPERTIES]
    reports.append(check_wisp(graph, source, system, func))
    return [repr(report) for report in reports]


class TestCensus:
    """One simple-path walk per instance serves the oracle and every check."""

    def test_one_walk_per_instance(self):
        g = generate_random(8, 20, 0.0, 10.0, "undirected", 4)
        func, calls = counted(anti_risk(g))
        system = PathSystem.simple(0)
        oracle = oracle_min(g, 0, system, func)
        for prop in (NDSP, SOP, OP):
            check_property(g, 0, system, func, prop)
        check_wisp(g, 0, system, func)
        assert oracle.enumerated_count == 355
        assert calls[0] == oracle.enumerated_count - 1

    def test_another_instance_walks_again(self):
        g = generate_random(8, 20, 0.0, 10.0, "directed", 4)
        func, calls = counted(classic_distance(g))
        walk = oracle_min(g, 0, PathSystem.simple(0), func).enumerated_count - 1
        assert calls[0] == walk
        # another source
        other = oracle_min(g, 1, PathSystem.simple(1), func).enumerated_count - 1
        assert calls[0] == walk + other
        # another function object, even one that extends alike
        twin, twin_calls = counted(classic_distance(g))
        check_wisp(g, 0, PathSystem.simple(0), twin)
        assert twin_calls[0] == walk
        # another graph object, even an equal one
        copy = parse_graph(serialize_graph(g))
        assert copy == g
        check_property(copy, 0, PathSystem.simple(0), twin, SOP)
        assert twin_calls[0] == 2 * walk
        assert calls[0] == walk + other

    def test_interleaved_instances_report_as_a_fresh_interpreter(self):
        g = generate_random(8, 20, 0.0, 10.0, "directed", 4)
        a = expected_cost(g, 0.7)
        b = blocked_cost(g, 0.3)
        first = census_reports(g, 0, a)
        census_reports(g, 0, b)
        again = census_reports(g, 0, a)
        script = (
            "from minpath import expected_cost, generate_random\n"
            "from test_verify import census_reports\n"
            "g = generate_random(8, 20, 0.0, 10.0, 'directed', 4)\n"
            "print(repr(census_reports(g, 0, expected_cost(g, 0.7))))\n"
        )
        paths = [os.path.dirname(os.path.dirname(minpath.__file__)), os.path.dirname(__file__)]
        inherited = os.environ.get("PYTHONPATH")  # where pytest itself may come from
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths + ([inherited] if inherited else [])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        fresh = ast.literal_eval(done.stdout)
        assert any("verdict='violated'" in report for report in fresh)
        assert first == again == fresh

    def test_oracle_results_are_fresh_copies(self):
        g = wisp_counterexample_graph()
        func = classic_distance(g)
        system = PathSystem.simple(0)
        result = oracle_min(g, 0, system, func)
        expected = census_reports(g, 0, func)
        assert oracle_min(g, 0, system, func) is not result
        result.minimum.update((v, -1.0) for v in result.minimum)
        result.witness.clear()
        result.enumerated_count = 0
        assert census_reports(g, 0, func) == expected

    def test_a_raising_walk_caches_nothing(self):
        g = parse_graph("g 3 3\nv 0\nv 1\nv 2\narc 0 1 1.0\narc 0 2 1.0\narc 1 2 1.0\n")
        fail = [True]

        def extend(value, parent, road):
            return float("nan") if fail[0] and road.key == 2 else value + road.weight

        func = PathFunction("nan-once", 0.0, extend, frozenset({NO_NEGATIVE_CIRCLES}))
        system = PathSystem.simple(0)
        with pytest.raises(ValueError, match="NaN"):
            oracle_min(g, 0, system, func)
        fail[0] = False
        assert oracle_min(g, 0, system, func).minimum == {0: 0.0, 1: 1.0, 2: 1.0}

    def test_walks_index_sons_by_road(self):
        g = generate_random(8, 20, 0.0, 10.0, "undirected", 4)
        func = anti_risk(g)
        oracle_min(g, 0, PathSystem.simple(0), func)
        census = minpath.verify._last[4]
        walk = census.walk
        simple = list(enumerate_paths(g, 0, PathSystem.simple(0), g.n - 1))
        assert walk.paths == simple
        assert len(walk.parent) == len(census.values) == len(simple)
        for i, path in enumerate(walk.paths):
            assert census.values[i] == path_value(func, path)
            if i:
                # each member links to its parent member itself, by a road of the graph
                assert path._prefix is walk.paths[walk.parent[i]]
                assert path._road is g.road(path.roads[-1])
        # each road key maps to exactly the members whose last road it is, in walk order
        by_road = {}
        for i, path in enumerate(simple[1:], 1):
            by_road.setdefault(path.roads[-1], []).append(i)
        assert dict(walk.sons) == by_road
        assert set(by_road) < {road.key for road in g.roads}  # no member ends on a road into the source
        # the checks read the cached index without adding a key to it
        for prop in DEF1_PROPERTIES:
            check_property(g, 0, PathSystem.simple(0), func, prop)
        assert minpath.verify._last[4].walk is walk
        assert dict(walk.sons) == by_road
        assert walk.groups == {t: [i for i, p in enumerate(simple) if p.terminal == t] for t in walk.groups}
        assert sorted(i for group in walk.groups.values() for i in group) == list(range(len(simple)))
        for system in (PathSystem.simple(0), PathSystem.all_paths(0)):
            # every member holds its last road; only the trivial path has none
            members = list(enumerate_paths(g, 0, system, 4))
            assert len(members) > 1 and members[0] == Path(g, 0) and members[0]._road is None
            assert all(path._road is not None for path in members[1:])

    def test_functions_on_one_graph_and_source_share_one_walk(self):
        g = generate_random(8, 20, 0.0, 10.0, "directed", 4)
        walks = []
        for func in (anti_risk(g), blocked_cost(g, 0.3), expected_cost(g, 0.7)):
            census_reports(g, 0, func)
            walks.append(minpath.verify._last[4].walk)
        assert walks[0] is walks[1] is walks[2]
        census_reports(g, 1, classic_distance(g))
        assert minpath.verify._last[4].walk is not walks[0]

    def test_another_graph_releases_the_walk_before_walking(self, diamond, monkeypatch):
        oracle_min(diamond, 0, PathSystem.simple(0), classic_distance(diamond))
        released = weakref.ref(minpath.verify._last[2])
        seen = []
        grown = Path._grown

        def watched(path, road):
            seen.append(released() is None)
            return grown(path, road)

        monkeypatch.setattr(Path, "_grown", watched)
        twin = parse_graph(serialize_graph(diamond))  # an equal graph, another object
        oracle_min(twin, 0, PathSystem.simple(0), classic_distance(twin))
        assert seen and all(seen)

    def test_the_next_walk_releases_the_previous_census(self, diamond):
        system = PathSystem.simple(0)
        previous = classic_distance(diamond)
        oracle_min(diamond, 0, system, previous)
        released = weakref.ref(previous)
        del previous
        seen = []

        def extend(value, parent, road):
            seen.append(released() is None)
            return value + road.weight

        oracle_min(diamond, 0, system, PathFunction("next", 0.0, extend, frozenset()))
        assert seen and all(seen)

    def test_a_reentrant_call_never_leaves_a_census_beside_another_walk(self):
        system = PathSystem.simple(0)
        ga, gb = (generate_random(6, 10, 0.0, 10.0, "directed", seed) for seed in (1, 2))
        expected = oracle_min(gb, 0, system, classic_distance(gb)).minimum
        assert oracle_min(ga, 0, system, classic_distance(ga)).minimum != expected
        shared = classic_distance(gb)
        calls = [0]

        def extend(value, parent, road):
            calls[0] += 1
            if calls[0] == 2:  # part-way through the fold over ga's walk
                oracle_min(gb, 0, system, shared)
            return value + road.weight

        outer = PathFunction("outer", 0.0, extend, frozenset())
        oracle_min(ga, 0, system, outer)
        assert oracle_min(gb, 0, system, outer).minimum == expected

    def test_a_concurrent_call_never_leaves_a_census_beside_another_walk(self):
        system = PathSystem.simple(0)
        ga, gb = (generate_random(6, 10, 0.0, 10.0, "directed", seed) for seed in (1, 2))
        expected_b = oracle_min(gb, 0, system, classic_distance(gb)).minimum
        expected = oracle_min(ga, 0, system, classic_distance(ga)).minimum
        paused, resume = threading.Event(), threading.Event()
        done = []

        def extend(value, parent, road):
            if threading.current_thread() is worker and not paused.is_set():
                paused.set()  # the worker's fold over gb waits here while the main thread folds over ga
                resume.wait(timeout=30)
            return value + road.weight

        func = PathFunction("shared", 0.0, extend, frozenset())
        worker = threading.Thread(target=lambda: done.append(oracle_min(gb, 0, system, func)))
        worker.start()
        try:
            assert paused.wait(timeout=30)
            assert oracle_min(ga, 0, system, func).minimum == expected
        finally:
            resume.set()
            worker.join(timeout=30)
        assert not worker.is_alive() and len(done) == 1
        assert oracle_min(ga, 0, system, func).minimum == expected
        assert done[0].minimum == expected_b

    def test_gate_runs_on_every_call(self, diamond):
        parity = parity_length(diamond)
        oracle_min(diamond, 0, PathSystem.simple(0), parity)
        with pytest.raises(PropertyRefusalError, match="no-negative-circles, required by the oracle"):
            oracle_min(diamond, 0, PathSystem.all_paths(0), parity)


def naive_check(graph, func, prop, system=None, bound=None, tol=1e-9):
    """(verdict, witness, repr(details)) of one property by a direct scan:
    every member of ``system`` (default simple) within ``bound`` (default
    n-1) re-folded by `path_value`, every son and every extension built and
    re-folded, every ordered pair compared. Minima come from every simple
    path, whatever the system and bound."""
    simple = PathSystem.simple(0)
    system = system or simple
    paths = list(enumerate_paths(graph, 0, system, graph.n - 1 if bound is None else bound))
    value = {path.roads: path_value(func, path) for path in paths}
    minimum = {}
    for path in enumerate_paths(graph, 0, simple, graph.n - 1):
        minimum[path.terminal] = min(minimum.get(path.terminal, INF), path_value(func, path))

    def admitted(path, road):
        return system != simple or road.head not in path.vertices

    def extended(path, road):
        return path_value(func, path.extended(road.key))

    def is_minimum(path):
        f, m = value[path.roads], minimum[path.terminal]
        return f == m or abs(f - m) <= tol

    for t in sorted(minimum):
        group = [path for path in paths if path.terminal == t]
        if prop in (NDSP, INSP):
            for path in filter(is_minimum, group):
                for road in graph.out_roads(t):
                    if admitted(path, road) and extended(path, road) < value[path.roads] - tol:
                        f, son = value[path.roads], extended(path, road)
                        witness = f"P={format_path(path)} f={f!r}; son via k{road.key} f={son!r}"
                        details = {"path": path, "value": f, "road": road, "son_value": son}
                        return VIOLATED, witness, repr(details)
            continue
        for road in graph.out_roads(t):
            members = [path for path in group if admitted(path, road)]
            for a in members:
                if prop in (SOPSP, OPSP, WOPSP) and not is_minimum(a):
                    continue
                for b in members:
                    if a == b:
                        continue
                    fa, fb = value[a.roads], value[b.roads]
                    ea, eb = extended(a, road), extended(b, road)
                    hypothesis = fa < fb if prop in (WOP, WOPSP, OP, OPSP) else fa <= fb
                    if hypothesis and ea > eb + tol:
                        witness = (
                            f"P={format_path(a)} f={fa!r}; P'={format_path(b)} f={fb!r}; "
                            f"road k{road.key}: f(P+r)={ea!r} > f(P'+r)={eb!r}"
                        )
                    elif prop in (OP, OPSP) and fa == fb and abs(ea - eb) > tol:
                        witness = (
                            f"P={format_path(a)} = P'={format_path(b)} = {fa!r}; "
                            f"road k{road.key}: f(P+r)={ea!r} != f(P'+r)={eb!r}"
                        )
                    else:
                        continue
                    details = {"path": a, "other": b, "road": road, "values": (fa, fb), "extended": (ea, eb)}
                    return VIOLATED, witness, repr(details)
    return NO_VIOLATION, None, repr(None)


BUILDERS = {
    "classic": classic_distance,
    "antirisk": anti_risk,
    "expected-cost": lambda g: expected_cost(g, 0.7),
    "parity": parity_length,
}


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 6),
    data=st.data(),
    mode=st.sampled_from(["directed", "undirected"]),
    high=st.sampled_from([10.0, 2.0]),
    kind=st.sampled_from(sorted(BUILDERS)),
    longer=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_census_checks_match_a_naive_scan(n, data, mode, high, kind, longer, seed):
    g = generate_random(n, data.draw(st.integers(n, 2 * n)), 0.0, high, mode, seed)
    func = BUILDERS[kind](g)
    max_roads = n + 1 if longer else None
    for prop in DEF1_PROPERTIES:
        report = check_property(g, 0, PathSystem.simple(0), func, prop, max_roads=max_roads)
        assert (report.verdict, report.witness, repr(report.details)) == naive_check(g, func, prop)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 6),
    data=st.data(),
    mode=st.sampled_from(["directed", "undirected"]),
    high=st.sampled_from([10.0, 2.0]),
    kind=st.sampled_from(sorted(BUILDERS)),
    every=st.booleans(),
    whole=st.booleans(),
    tol=st.sampled_from([1e-9, 0.0, 0.5, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_off_census_checks_match_a_naive_scan(n, data, mode, high, kind, every, whole, tol, seed):
    # another system, or a bound below n-1: the check walks that system within
    # its bound, yet takes the "-SP" minima from every simple path. Whole
    # weights make many values tie, exactly or within the tolerance, which
    # is where the sorted order clauses meet their blocks' edges.
    g = generate_random(n, data.draw(st.integers(n, 2 * n)), 0.0, high, mode, seed)
    if whole:
        g = Graph(g.vertices, [Road(r.key, r.tail, r.head, float(round(r.weight))) for r in g.roads])
    func = BUILDERS[kind](g)
    system = PathSystem.all_paths(0) if every else PathSystem.simple(0)
    bound = data.draw(st.integers(0, 3 if every else n - 2))
    gated = NO_NEGATIVE_CIRCLES not in implied_properties(func.declared_properties, system)
    for prop in DEF1_PROPERTIES:
        if gated and prop in (NDSP, INSP, SOPSP, OPSP, WOPSP):
            with pytest.raises(PropertyRefusalError, match="no-negative-circles, required by the oracle"):
                check_property(g, 0, system, func, prop, max_roads=bound)
            continue
        report = check_property(g, 0, system, func, prop, max_roads=bound, tol=tol)
        assert report.scope == f"max_roads:{bound}"
        assert (report.verdict, report.witness, repr(report.details)) == naive_check(g, func, prop, system, bound, tol)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(3, 6),
    data=st.data(),
    mode=st.sampled_from(["directed", "undirected"]),
    kinds=st.lists(st.sampled_from(sorted(BUILDERS)), min_size=2, max_size=3),
    seed=st.integers(0, 10_000),
)
def test_interleaved_functions_on_one_walk_match_a_naive_scan(n, data, mode, kinds, seed):
    # functions checked in any interleaving on one graph and source share
    # one walk; each still reports exactly what a direct scan finds
    g = generate_random(n, data.draw(st.integers(n, 2 * n)), 0.0, 10.0, mode, seed)
    funcs = [BUILDERS[kind](g) for kind in kinds]
    system = PathSystem.simple(0)
    steps = st.tuples(st.integers(0, len(funcs) - 1), st.sampled_from(DEF1_PROPERTIES))
    for f, prop in data.draw(st.lists(steps, min_size=2, max_size=10)):
        func = funcs[f]
        report = check_property(g, 0, system, func, prop)
        assert (report.verdict, report.witness, repr(report.details)) == naive_check(g, func, prop)
        minimum = {}
        for path in enumerate_paths(g, 0, system, n - 1):
            minimum[path.terminal] = min(minimum.get(path.terminal, INF), path_value(func, path))
        assert oracle_min(g, 0, system, func).minimum == minimum
