"""The package's top-level names are the union of its modules' exports."""

from __future__ import annotations

import minpath
from minpath import engines, graphs, paths, verify

# The top-level names exported before the package re-exported its modules' lists.
EARLIER_EXPORTS = {
    "DetourTable", "Graph", "GraphFormatError", "INF", "NegativeCircleError", "OracleResult", "Path",
    "PathFunction", "PathSystem", "PropertyRefusalError", "PropertyReport", "Road", "RunStats",
    "ShortestPathTree", "UnreachableVertexError", "Vertex", "anti_risk", "blocked_cost",
    "check_no_negative_circles", "check_property", "check_wisp", "classic_distance",
    "compare_tree_to_oracle", "dijkstra_classic", "eda", "embfa", "enumerate_paths", "expected_cost",
    "format_path", "format_tree", "generate_random", "implied_properties", "max_degree", "oracle_min",
    "parse_graph", "path_value", "remove_road", "serialize_graph", "sta",
}


def test_exports_are_the_modules_exports():
    exported = minpath.__all__
    modules = (graphs, paths, engines, verify)
    assert len(exported) == len(set(exported))
    assert set(exported) == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(minpath, name) is getattr(module, name)
    assert EARLIER_EXPORTS <= set(exported)
    # the parity probe is a test helper (tests/conftest.py), not an export
    assert "parity_length" not in exported
