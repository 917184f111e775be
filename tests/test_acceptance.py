"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Instance families are deterministic (parameters and weights both derive
from the seed), so every run checks the same graphs. Tolerances are pinned
here: exact equality for the reduction and conservative checks, 1e-9 for
oracle equivalence and the recurrence fidelity sweep.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

import pytest

from minpath import (
    INF,
    DetourTable,
    Graph,
    NegativeCircleError,
    Path,
    PathSystem,
    Road,
    anti_risk,
    blocked_cost,
    check_property,
    check_wisp,
    classic_distance,
    compare_tree_to_oracle,
    dijkstra_classic,
    eda,
    embfa,
    expected_cost,
    generate_random,
    max_degree,
    oracle_min,
    path_value,
    remove_road,
    serialize_graph,
    sta,
)
from minpath.cli import main as cli_main
from minpath.verify import NO_VIOLATION

from conftest import assert_tree_invariants, brute_simple_paths, parity_length, random_instances
from test_paths import direct_risk

TOL = 1e-9


def _report(criterion, description):
    print(f"PASS criterion {criterion}: {description}")


def test_criterion_1_reduction_to_classic_dijkstra():
    """eda(classic) equals dijkstra_classic exactly on 100 nonnegative graphs."""
    started = time.perf_counter()
    for _, g in random_instances(100, (4, 9), seed_base=0):
        system = PathSystem.simple(0)
        func = classic_distance(g)
        tree, stats = eda(g, 0, system, func)
        dist = dijkstra_classic(g, 0)
        for v in range(g.n):
            if v in tree.covered:
                assert tree.value[v] == dist[v]
            else:
                assert dist[v] == INF
        assert_tree_invariants(tree, system, func, stats, 2 * max_degree(g) * g.n * g.n)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, f"100 instances, exact per-vertex equality, {elapsed:.2f}s")


def test_criterion_2_eda_matches_oracle():
    """EDA value(v) = m_f(v) within 1e-9 for classic/antirisk/blocked-cost."""
    started = time.perf_counter()
    checked = 0
    for _, g in random_instances(200, (4, 8), seed_base=2000):
        table = DetourTable(g)
        system = PathSystem.simple(0)
        functions = [
            classic_distance(g),
            anti_risk(g, table),
            blocked_cost(g, 0.3, table),
            blocked_cost(g, 0.7, table),
        ]
        budget = 2 * max_degree(g) * g.n * g.n
        for func in functions:
            tree, stats = eda(g, 0, system, func)
            oracle = oracle_min(g, 0, system, func)
            report = compare_tree_to_oracle(tree, oracle, TOL)
            assert report.verdict == NO_VIOLATION, report.witness
            assert tree.covered == set(oracle.minimum)
            assert_tree_invariants(tree, system, func, stats, budget)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(2, f"{checked} tree/oracle comparisons within {TOL}, {elapsed:.2f}s")


def test_criterion_3_embfa_matches_oracle():
    """EMBFA minima match the oracle wherever the tree certifies exactness.

    Some expected-cost p=0.7 instances have minima that are not weakly
    inherited (no route to the optimum through minimum prefixes). No
    value-consistent arborescence can hold all of their oracle values: the
    prefix of a tree path is the tree path of its end vertex, so a tree of
    minima would be a weak-inheritance witness. So embfa certifies each
    tree instead: every tree with ``tree.exact`` must match the oracle, and
    every miss must be flagged and lie on an instance whose weak
    inheritance fails. Anything else is an uncertified miss or a solver
    bug. Conservative trees must match exactly and be certified exact.
    """
    started = time.perf_counter()
    checked = 0
    flagged = 0
    missed = []  # (seed, function, witness) of flagged, non-inherited misses
    for seed, g in random_instances(200, (4, 8), seed_base=2000):
        table = DetourTable(g)
        system = PathSystem.simple(0)
        functions = [
            classic_distance(g),
            expected_cost(g, 0.3, table),
            expected_cost(g, 0.7, table),
        ]
        budget = 2 * g.n * g.m
        for func in functions:
            tree, stats = embfa(g, 0, system, func)
            oracle = oracle_min(g, 0, system, func)
            report = compare_tree_to_oracle(tree, oracle, TOL)
            assert_tree_invariants(tree, system, func, stats, budget)
            checked += 1
            flagged += not tree.exact
            if tree.exact:
                assert report.verdict == NO_VIOLATION, f"certified exact but wrong: {func.name}: {report.witness}"
            elif report.verdict != NO_VIOLATION:
                wisp = check_wisp(g, 0, system, func, tol=TOL)
                # A miss on a weakly-inherited instance would be a real
                # solver bug; fail hard and loudly on that.
                assert wisp.violated, f"solver bug: {func.name}: {report.witness}"
                missed.append((seed, func.name, report.witness))

    saw_negative_weight = False
    for _, g in random_instances(100, (4, 8), seed_base=3000, mode="conservative"):
        saw_negative_weight = saw_negative_weight or any(r.weight < 0 for r in g.roads)
        system = PathSystem.simple(0)
        func = classic_distance(g)
        tree, stats = embfa(g, 0, system, func)
        oracle = oracle_min(g, 0, system, func)
        report = compare_tree_to_oracle(tree, oracle, 0.0)  # exact
        assert report.verdict == NO_VIOLATION, report.witness
        assert tree.exact, "conservative tree not certified exact"
        assert_tree_invariants(tree, system, func, stats, 2 * g.n * g.m)
        checked += 1
    assert saw_negative_weight  # the conservative family must exercise negatives
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    for seed, name, witness in missed:
        print(f"flagged miss: seed {seed} {name} {witness}")
    _report(
        3,
        f"{checked} comparisons (conservative family exact), {flagged} flagged, "
        f"{len(missed)} flagged misses on non-inherited instances, {elapsed:.2f}s",
    )


def test_criterion_4_antirisk_recurrence_fidelity():
    """Folded anti-risk equals the direct max-formula on every simple path."""
    started = time.perf_counter()
    paths_checked = 0
    for _, g in random_instances(50, (4, 7), seed_base=4000):
        func = anti_risk(g)
        detour_cache: dict[int, dict[int, float]] = {}

        def detour(key, target):
            row = detour_cache.get(key)
            if row is None:
                deleted = remove_road(g, key)
                row = defaultdict(lambda: INF)
                for vertices, keys in brute_simple_paths(deleted, 0):
                    total = sum(deleted.road(k).weight for k in keys)
                    if total < row[vertices[-1]]:
                        row[vertices[-1]] = total
                detour_cache[key] = row
            return row[target]

        for _, keys in brute_simple_paths(g, 0):
            path = Path(g, 0, keys)
            folded = path_value(func, path)
            direct = direct_risk(g, path, detour)
            assert abs(folded - direct) <= TOL or folded == direct
            paths_checked += 1
    elapsed = time.perf_counter() - started
    _report(4, f"{paths_checked} paths, zero recurrence/definition mismatches, {elapsed:.2f}s")


def test_criterion_5_property_suites():
    """Declared properties verify empirically; the parity probe is caught."""
    started = time.perf_counter()
    parity_violations = 0
    for _, g in random_instances(50, (4, 6), seed_base=5000):
        system = PathSystem.simple(0)
        table = DetourTable(g)
        suites = [
            (classic_distance(g), ("NDSP", "SOP", "OP")),
            (anti_risk(g, table), ("NDSP", "SOP", "OP")),
            (blocked_cost(g, 0.5, table), ("NDSP", "SOP", "OP")),
            (expected_cost(g, 0.5, table), ("OP",)),
        ]
        for func, props in suites:
            for prop in props:
                report = check_property(g, 0, system, func, prop, max_roads=g.n - 1, tol=TOL)
                assert report.verdict == NO_VIOLATION, f"{func.name}/{prop}: {report.witness}"
        for func in (classic_distance(g), anti_risk(g, table), blocked_cost(g, 0.5, table)):
            report = check_wisp(g, 0, system, func, tol=TOL)
            assert report.verdict == NO_VIOLATION, f"{func.name}/WISP: {report.witness}"
        if check_property(g, 0, system, parity_length(g), "NDSP", max_roads=g.n - 1).violated:
            parity_violations += 1
    assert parity_violations >= 1  # checker sensitivity
    elapsed = time.perf_counter() - started
    _report(5, f"all declared properties clean; parity NDSP caught on {parity_violations}/50 instances, {elapsed:.2f}s")


def test_criterion_6_complexity_budgets():
    """extend_calls stay within the analyzed budgets and scale no worse."""
    # hard per-instance budgets on a acceptance-sized sweep
    embfa_worst = 0.0
    for _, g in random_instances(50, (4, 8), seed_base=2000):
        system = PathSystem.simple(0)
        func = classic_distance(g)
        _, eda_stats = eda(g, 0, system, func)
        assert eda_stats.extend_calls <= 2 * max_degree(g) * g.n * g.n
        _, embfa_stats = embfa(g, 0, system, func)
        assert embfa_stats.extend_calls <= 2 * g.n * g.m
        embfa_worst = max(embfa_worst, embfa_stats.extend_calls / (2 * g.n * g.m))

    # growth: normalized EDA cost may not grow along n = 20, 40, 80 (m = 3n)
    ratios = []
    for n in (20, 40, 80):
        total_ratio = 0.0
        seeds = range(5)
        for seed in seeds:
            g = generate_random(n, 3 * n, 0.0, 10.0, "directed", seed)
            _, stats = eda(g, 0, PathSystem.simple(0), classic_distance(g))
            base = max_degree(g) * n * n
            assert stats.extend_calls <= 2 * base
            total_ratio += stats.extend_calls / base
        ratios.append(total_ratio / len(seeds))
    for prev, nxt in zip(ratios, ratios[1:]):
        assert nxt <= 2.0 * prev
    assert ratios[-1] < ratios[0]
    _report(
        6,
        f"budgets hold; worst embfa share of 2nm {embfa_worst:.5f}; "
        f"eda ratio per n in (20, 40, 80): {[f'{r:.5f}' for r in ratios]}",
    )


def test_criterion_7_structural_invariants():
    """Every produced tree is a value-consistent arborescence in the system."""
    trees = 0
    for _, g in random_instances(50, (4, 8), seed_base=2000):
        system = PathSystem.simple(0)
        table = DetourTable(g)
        for func in (classic_distance(g), anti_risk(g, table)):
            tree, stats = eda(g, 0, system, func)
            assert_tree_invariants(tree, system, func, stats)
            trees += 1
        # p=0.7 includes instances whose minima are unattainable
        # (criterion 3); the trees must be structurally sound regardless
        for p in (0.5, 0.7):
            func = expected_cost(g, p, table)
            tree, stats = embfa(g, 0, system, func)
            assert_tree_invariants(tree, system, func, stats)
            trees += 1
    for _, g in random_instances(20, (4, 8), seed_base=3000, mode="conservative"):
        system = PathSystem.simple(0)
        func = classic_distance(g)
        tree, stats = embfa(g, 0, system, func)
        assert_tree_invariants(tree, system, func, stats)
        trees += 1
    # spanning-tree arborescences, where the reachability contract holds
    spanning = 0
    for _, g in random_instances(40, (4, 8), seed_base=6000, mode="undirected"):
        try:
            tree = sta(g, 0)
        except Exception:
            continue
        assert tree.covered == set(range(g.n))
        assert_tree_invariants(tree)
        trees += 1
        spanning += 1
    assert spanning >= 5
    _report(7, f"{trees} trees passed arborescence/membership/fold checks")


def _negative_cycle_graph(seed):
    base = generate_random(6, 8, 0.0, 10.0, "directed", seed)
    rng = random.Random(seed)
    c1, c2, c3 = rng.sample(range(1, 6), 3)
    key = base.m
    roads = list(base.roads) + [
        Road(key, 0, c1, 1.0),  # keep the cycle reachable from the source
        Road(key + 1, c1, c2, 1.0),
        Road(key + 2, c2, c3, 1.0),
        Road(key + 3, c3, c1, -5.0),
    ]
    return Graph(base.vertices, roads)


def test_criterion_8_negative_circle_detection(tmp_path, capsys):
    """EMBFA reports the injected negative cycle instead of returning a tree."""
    for i in range(20):
        g = _negative_cycle_graph(8000 + i)
        func = classic_distance(g)  # trusts the (false) conservative claim
        with pytest.raises(NegativeCircleError):
            embfa(g, 0, PathSystem.all_paths(0), func)

    graph_file = tmp_path / "neg.g"
    graph_file.write_text(serialize_graph(_negative_cycle_graph(8000)))
    code = cli_main(
        ["solve", "--graph", str(graph_file), "--source", "0",
         "--algorithm", "embfa", "--function", "classic", "--system", "all"]
    )
    capsys.readouterr()
    assert code == 3
    _report(8, "20 injected cycles detected; CLI exits 3")
