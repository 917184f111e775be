"""Command-line behavior: output grammar, exit codes, determinism."""

from __future__ import annotations

import hashlib
import os
import random
import re
import subprocess
import sys

import pytest

import minpath
from minpath import PathSystem, blocked_cost, eda, format_tree, generate_random, serialize_graph
from minpath.cli import PROPERTY_CHECKS, main

from conftest import DIAMOND_TEXT

NEGATIVE_CYCLE_TEXT = """\
g 4 4
v 0
v 1
v 2
v 3
arc 0 1 1.0
arc 1 2 1.0
arc 2 3 1.0
arc 3 1 -5.0
"""


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.g"
    path.write_text(DIAMOND_TEXT)
    return str(path)


@pytest.fixture
def negative_cycle_file(tmp_path):
    path = tmp_path / "neg.g"
    path.write_text(NEGATIVE_CYCLE_TEXT)
    return str(path)


class TestSolve:
    def test_classic_golden_output(self, diamond_file, capsys):
        code = main(["solve", "--graph", diamond_file, "--source", "0",
                     "--algorithm", "eda", "--function", "classic"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            "0 value=0.0 path=s=0\n"
            "1 value=1.0 path=s=0 -> 1[k0]\n"
            "2 value=2.0 path=s=0 -> 2[k2]\n"
            "3 value=2.0 path=s=0 -> 1[k0] -> 3[k6]\n"
            "# extend_calls=5 relaxations=3 rounds=3\n"
        )

    def test_byte_identical_reruns(self, diamond_file, capsys):
        argv = ["solve", "--graph", diamond_file, "--source", "0", "--function", "antirisk"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("extra, digest", [
        (["--algorithm", "eda", "--function", "antirisk"],
         "2925162ce1f93ea14ef0167cba662231aae5dfa5ac36c6d79bce676b511873ef"),
        (["--algorithm", "eda", "--function", "blocked-cost", "--p", "0.3"],
         "89afc320fb8567fc4a2074d33e1bc82fa4208d3ad53924261c661b9398e45799"),
        (["--algorithm", "embfa", "--function", "expected-cost", "--p", "0.7"],
         "d3f53d1dd798479dac6c5df5af6dd8e2c02000525b340f1b6512822beb616e53"),
    ], ids=["eda-antirisk", "eda-blocked-cost", "embfa-expected-cost"])
    def test_detour_functions_pinned_output(self, tmp_path, capsys, extra, digest):
        # digests of the 61-line stdout, recorded before the detour table read its base tree
        assert main(["gen", "--n", "60", "--m", "240", "--seed", "11"]) == 0
        graph_file = tmp_path / "g11.g"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["solve", "--graph", str(graph_file), "--source", "0"] + extra) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("algorithm, digest", [
        ("eda", "7b62abc149e25211cb27f2c19d7287a17febc3fe111f2304da8cc14a864a6800"),
        ("embfa", "10162f30a4143d1a33c9547ccb8c8c1bffb96b12f5a2fd03a270ef187dc6ac0b"),
        ("sta", "b8594b465b05dce8f454887866d93089ebd609105b2b722cee42f56a3088fc07"),
    ])
    def test_deep_trees_pinned_output(self, tmp_path, capsys, algorithm, digest):
        # digests of the 301-line stdout, recorded before format_tree built each
        # path's text from its parent's; the trees run 12 (eda, embfa) and 28
        # (sta) roads deep, and sta covers every vertex of this undirected graph
        assert main(["gen", "--n", "300", "--m", "900", "--seed", "3", "--mode", "undirected"]) == 0
        graph_file = tmp_path / "u3.g"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["solve", "--graph", str(graph_file), "--source", "0", "--algorithm", algorithm]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_deep_trees_antirisk_pinned_output(self, tmp_path, capsys):
        # digest of the 301-line stdout, recorded before subtree searches kept
        # their labels in a dict; deep trees give the detour table subtrees of
        # many vertices
        assert main(["gen", "--n", "300", "--m", "900", "--seed", "3", "--mode", "undirected"]) == 0
        graph_file = tmp_path / "u3.g"
        graph_file.write_text(capsys.readouterr().out)
        argv = ["solve", "--graph", str(graph_file), "--source", "0", "--algorithm", "eda", "--function", "antirisk"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 301
        digest = "8fd863b90c84f0eaa23dbe183603d49da0744273d7b61ce635c0372bb2c781ee"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sta_prints_structural_tree(self, diamond_file, capsys):
        code = main(["solve", "--graph", diamond_file, "--source", "0", "--algorithm", "sta"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 value=- path=s=0" in out
        assert out.strip().endswith("rounds=3")

    def test_blocked_cost_requires_p(self, diamond_file, capsys):
        code = main(["solve", "--graph", diamond_file, "--source", "0",
                     "--function", "blocked-cost"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--p is required" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--function", "expected-cost", "--p", "7"], "error: p out of range (0, 1)"),
            (["--p", "0.5"], "error: --p is only valid with blocked-cost or expected-cost, not classic"),
        ],
    )
    def test_sta_validates_function_args(self, diamond_file, capsys, extra, message):
        code = main(["solve", "--graph", diamond_file, "--source", "0", "--algorithm", "sta"] + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_blocked_cost_matches_library(self, diamond, diamond_file, capsys):
        code = main(["solve", "--graph", diamond_file, "--source", "0",
                     "--function", "blocked-cost", "--p", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == format_tree(*eda(diamond, 0, PathSystem.simple(0), blocked_cost(diamond, 0.3)))

    def test_p_rejected_for_classic(self, diamond_file, capsys):
        code = main(["solve", "--graph", diamond_file, "--source", "0",
                     "--function", "classic", "--p", "0.5"])
        assert code == 1

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text("g 2 1\nv 0\nv 1\narc 0 2 1.0\n")
        code = main(["solve", "--graph", str(bad), "--source", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "road endpoint out of range, line 4" in err

    def test_missing_file(self, capsys):
        code = main(["solve", "--graph", "/nonexistent.g", "--source", "0"])
        assert code == 1

    def test_source_out_of_range(self, diamond_file, capsys):
        code = main(["solve", "--graph", diamond_file, "--source", "99"])
        err = capsys.readouterr().err
        assert code == 1
        assert "source 99 out of range" in err

    def test_eda_on_all_paths_refuses_classic(self, diamond_file, capsys):
        # weak inheritance is only derivable on the simple-path system, so
        # the declared-property gate conservatively refuses this combination
        code = main(["solve", "--graph", diamond_file, "--source", "0",
                     "--algorithm", "eda", "--function", "classic", "--system", "all"])
        err = capsys.readouterr().err
        assert code == 1
        assert "WISP" in err

    def test_embfa_on_all_paths_accepts_classic(self, diamond_file, capsys):
        code = main(["solve", "--graph", diamond_file, "--source", "0",
                     "--algorithm", "embfa", "--function", "classic", "--system", "all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 value=2.0" in out

    @pytest.mark.parametrize("function", [["antirisk"], ["blocked-cost", "--p", "0.3"]], ids=["antirisk", "blocked-cost"])
    def test_embfa_and_the_all_paths_oracle_answer_the_detour_functions(self, diamond_file, capsys, function):
        # both declare OP and no negative circles, so neither embfa nor the oracle refuses them
        runs = [["solve", "--algorithm", "eda"], ["solve", "--algorithm", "embfa"], ["oracle", "--system", "all"]]
        values = []
        for command, *options in runs:
            code = main([command, "--graph", diamond_file, "--source", "0", *options, "--function", *function])
            assert code == 0
            values.append([line.split()[:2] for line in capsys.readouterr().out.splitlines() if line[0] != "#"])
        assert len(values[0]) == 4 and values[0] == values[1] == values[2]

    def test_negative_circle_exit_code(self, negative_cycle_file, capsys):
        code = main(["solve", "--graph", negative_cycle_file, "--source", "0",
                     "--algorithm", "embfa", "--function", "classic", "--system", "all"])
        err = capsys.readouterr().err
        assert code == 3
        assert "negative circle" in err

    def test_uncertified_embfa_tree_warns_on_stderr(self, tmp_path, capsys):
        # the non-inherited instance of TestEmbfa::test_non_inherited_minima_are_out_of_reach
        rng = random.Random(2002)
        n = rng.randint(4, 8)
        m = rng.randint(n, 3 * n)
        path = tmp_path / "g2002.g"
        path.write_text(serialize_graph(generate_random(n, m, 0.0, 10.0, "directed", 2002)))
        argv = ["solve", "--graph", str(path), "--source", "0", "--algorithm", "embfa"]
        code = main(argv + ["--function", "expected-cost", "--p", "0.7"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" not in captured.out
        warning = re.fullmatch(r"warning: tree not certified exact \((\d+) vetoed improvements\)\n", captured.err)
        assert warning and int(warning.group(1)) > 0
        code = main(argv + ["--function", "classic"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""


class TestOracle:
    def test_per_vertex_lines(self, diamond_file, capsys):
        code = main(["oracle", "--graph", diamond_file, "--source", "0", "--function", "classic"])
        out = capsys.readouterr().out
        assert code == 0
        # ties keep the first path in depth-first enumeration order, so the
        # witness for vertex 2 goes through vertex 1 (road key 0 comes first)
        assert out == (
            "0 value=0.0 path=s=0\n"
            "1 value=1.0 path=s=0 -> 1[k0]\n"
            "2 value=2.0 path=s=0 -> 1[k0] -> 2[k4]\n"
            "3 value=2.0 path=s=0 -> 1[k0] -> 3[k6]\n"
            "# enumerated_paths=11\n"
        )

    @pytest.mark.parametrize("extra, digest", [
        (["--function", "antirisk"], "8ccd2859003654e15db9463883a6d46c9a246f431f4b4e89e5e123037dc9862e"),
        (["--function", "expected-cost", "--p", "0.7"],
         "09ec616d7b046b2af32409ca3c090cbbf86b5bc86a638d83164249aa8ac086da"),
    ], ids=["antirisk", "expected-cost"])
    def test_witnesses_pinned_output(self, tmp_path, capsys, extra, digest):
        # digests of the 9-line stdout: every minimum and its witness path's text
        assert main(["gen", "--n", "8", "--m", "20", "--seed", "1", "--mode", "undirected"]) == 0
        graph_file = tmp_path / "u1.g"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["oracle", "--graph", str(graph_file), "--source", "0"] + extra) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n# enumerated_paths=1113\n")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerify:
    def test_against_oracle_passes(self, diamond_file, capsys):
        code = main(["verify", "--graph", diamond_file, "--source", "0",
                     "--algorithm", "eda", "--function", "antirisk", "--against", "oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "property=tree-vs-oracle verdict=no-violation-found" in out
        assert out.strip().endswith("pass")

    def test_property_checks_pass(self, diamond_file, capsys):
        code = main(["verify", "--graph", diamond_file, "--source", "0",
                     "--function", "classic", "--property", "sop", "--property", "wisp"])
        out = capsys.readouterr().out
        assert code == 0
        assert "property=SOP verdict=no-violation-found" in out
        assert "property=WISP verdict=no-violation-found" in out

    def test_violation_exits_two(self, negative_cycle_file, capsys):
        code = main(["verify", "--graph", negative_cycle_file, "--source", "0",
                     "--function", "classic", "--property", "no-negative-circles"])
        out = capsys.readouterr().out
        assert code == 2
        assert "verdict=violated" in out
        assert out.strip().endswith("fail")

    def test_requires_something_to_check(self, diamond_file, capsys):
        code = main(["verify", "--graph", diamond_file, "--source", "0"])
        assert code == 1

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_bad_tolerance_exits_one(self, diamond_file, capsys, tolerance):
        for check in (["--against", "oracle"], ["--property", "ndsp"]):
            code = main(["verify", "--graph", diamond_file, "--source", "0", "--tolerance", tolerance] + check)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == f"error: tolerance must be finite and nonnegative, not {float(tolerance)!r}\n"

    def test_bad_tolerance_is_rejected_before_the_graph_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.g")
        code = main(["verify", "--graph", missing, "--source", "0", "--tolerance", "-1", "--against", "oracle"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: tolerance must be finite and nonnegative, not -1.0\n"

    @pytest.mark.parametrize("seed, extra, code, digest", [
        (1, ["--algorithm", "eda", "--function", "antirisk"], 0,
         "7c06ebc70e408389dff6c675e5321a81f3571c56b4d78cb26c9f88b12f755ad2"),
        (1, ["--algorithm", "eda", "--function", "blocked-cost", "--p", "0.3"], 0,
         "7c06ebc70e408389dff6c675e5321a81f3571c56b4d78cb26c9f88b12f755ad2"),
        (1, ["--algorithm", "embfa", "--function", "expected-cost", "--p", "0.7"], 0,
         "7c06ebc70e408389dff6c675e5321a81f3571c56b4d78cb26c9f88b12f755ad2"),
        (4, ["--algorithm", "embfa", "--function", "expected-cost", "--p", "0.7"], 2,
         "33e8b86a58f6a5aee838707925360c0873aea035ac141c69cca7e9e7a938c0af"),
    ], ids=["antirisk", "blocked-cost", "expected-cost", "expected-cost-violated"])
    def test_all_checks_pinned_output(self, tmp_path, capsys, seed, extra, code, digest):
        # digests of the 12-line stdout, recorded before the checks shared one simple-path census
        assert main(["gen", "--n", "8", "--m", "20", "--seed", str(seed)]) == 0
        graph_file = tmp_path / f"g{seed}.g"
        graph_file.write_text(capsys.readouterr().out)
        checks = [flag for name in PROPERTY_CHECKS[:8] + ("wisp",) for flag in ("--property", name)]
        argv = ["verify", "--graph", str(graph_file), "--source", "0", "--against", "oracle"]
        assert main(argv + extra + checks) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed, extra, code, digest", [
        (1, ["--function", "antirisk", "--max-roads", "3"], 0,
         "65cd7971a55bfb76dabe2431bff696c6863f025d4293a8e6c9a74cea5c39b4f1"),
        (1, ["--function", "classic", "--system", "all", "--max-roads", "3"], 0,
         "65cd7971a55bfb76dabe2431bff696c6863f025d4293a8e6c9a74cea5c39b4f1"),
        (4, ["--function", "expected-cost", "--p", "0.7", "--max-roads", "3"], 2,
         "55b1646a605d3b660aab4d4d4b57b9d208c2196b1c68b3201f355e382ea9991a"),
    ], ids=["antirisk-simple", "classic-all", "expected-cost-violated"])
    def test_off_census_pinned_output(self, tmp_path, capsys, seed, extra, code, digest):
        # digests of the 9-line stdout with all eight Def. 1 properties below
        # the census's bound, or on all paths, recorded before verify's walks
        # shared one depth-first generator
        assert main(["gen", "--n", "8", "--m", "20", "--seed", str(seed)]) == 0
        graph_file = tmp_path / f"g{seed}.g"
        graph_file.write_text(capsys.readouterr().out)
        checks = [flag for name in PROPERTY_CHECKS[:8] for flag in ("--property", name)]
        assert main(["verify", "--graph", str(graph_file), "--source", "0"] + extra + checks) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed, extra, code, digest", [
        (1, ["--function", "antirisk", "--property", "no-negative-circles"], 0,
         "12273550d0b05eb6c20e027db43f0791671711af45bd3f2a083b2f0d39e83cbf"),
        (4, ["--function", "expected-cost", "--p", "0.7",
             "--property", "no-negative-circles", "--property", "no-non-positive-circles"], 2,
         "3f4ca818ad6e5df3b3b530fef29245934a2aa3a5d96c6ed5dd691204da29f82f"),
    ], ids=["antirisk", "expected-cost-violated"])
    def test_circle_checks_pinned_output(self, tmp_path, capsys, seed, extra, code, digest):
        # digests of the stdout at the default bound, n+2, recorded before
        # verify's walks shared one depth-first generator
        assert main(["gen", "--n", "8", "--m", "20", "--seed", str(seed)]) == 0
        graph_file = tmp_path / f"g{seed}.g"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["verify", "--graph", str(graph_file), "--source", "0"] + extra) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestGen:
    def test_deterministic_and_reparseable(self, capsys, tmp_path):
        argv = ["gen", "--n", "6", "--m", "10", "--weights", "0:10", "--seed", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        graph_file = tmp_path / "gen.g"
        graph_file.write_text(first)
        assert main(["solve", "--graph", str(graph_file), "--source", "0"]) == 0
        capsys.readouterr()

    def test_runs_as_a_module(self, capsys):
        argv = ["gen", "--n", "3", "--m", "2", "--seed", "0"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(minpath.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "minpath.cli", *argv], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
        assert expected

    def test_conservative_rejects_negative_low(self, capsys):
        code = main(["gen", "--n", "4", "--m", "6", "--weights=-1:5", "--mode", "conservative"])
        assert code == 1


class TestBench:
    def test_seed_range_lines(self, capsys):
        code = main(["bench", "--n", "10", "--m", "30", "--seed", "0:3"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            assert line.startswith(f"seed={i} n=10 m=30 ")
            assert "extend_calls=" in line and "budget=" in line
            assert "ratio=" in line and "time_ms=" in line

    def test_embfa_budget_base(self, capsys):
        code = main(["bench", "--n", "8", "--m", "16", "--seed", "1",
                     "--algorithm", "embfa", "--function", "classic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "budget=" in out


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--bogus"])
        assert info.value.code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    @pytest.mark.parametrize(
        "weights, message",
        [("5", "expected LO:HI"), ("a:b", "expected LO:HI with numeric bounds")],
    )
    def test_bad_weights(self, capsys, weights, message):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--n", "4", "--m", "4", "--weights", weights])
        assert info.value.code == 1
        assert f"argument --weights: {message}\n" in capsys.readouterr().err

    def test_bad_seed_range(self, capsys):
        for seeds in ("x:y", "5:3", "3:3"):
            with pytest.raises(SystemExit) as info:
                main(["bench", "--n", "4", "--m", "4", "--seed", seeds])
            assert info.value.code == 1
