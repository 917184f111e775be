"""Single-source shortest paths for pluggable path cost functions.

The cost of a path is an arbitrary function declared through a base value
and a per-road extension rule, together with structural property flags
(monotone, order-preserving, circle-free, ...). Solvers trust the flags;
the `verify` module checks them empirically and provides a brute-force
oracle for the per-vertex minima.
"""

from .graphs import (
    Graph,
    GraphFormatError,
    Road,
    Vertex,
    dijkstra_classic,
    generate_random,
    max_degree,
    parse_graph,
    remove_road,
    serialize_graph,
)
from .paths import (
    INF,
    DetourTable,
    Path,
    PathFunction,
    PathSystem,
    anti_risk,
    blocked_cost,
    classic_distance,
    expected_cost,
    format_path,
    implied_properties,
    path_value,
)
from .engines import (
    NegativeCircleError,
    PropertyRefusalError,
    RunStats,
    ShortestPathTree,
    UnreachableVertexError,
    eda,
    embfa,
    format_tree,
    sta,
)
from .verify import (
    OracleResult,
    PropertyReport,
    check_no_negative_circles,
    check_property,
    check_wisp,
    compare_tree_to_oracle,
    enumerate_paths,
    oracle_min,
    parity_length,
)

__all__ = [
    "Graph", "GraphFormatError", "Road", "Vertex",
    "dijkstra_classic", "generate_random", "max_degree", "parse_graph", "remove_road",
    "serialize_graph",
    "INF", "DetourTable", "Path", "PathFunction", "PathSystem",
    "anti_risk", "blocked_cost", "classic_distance", "expected_cost",
    "format_path", "implied_properties", "path_value",
    "NegativeCircleError", "PropertyRefusalError", "RunStats", "ShortestPathTree",
    "UnreachableVertexError", "eda", "embfa", "format_tree", "sta",
    "OracleResult", "PropertyReport", "check_no_negative_circles", "check_property",
    "check_wisp", "compare_tree_to_oracle", "enumerate_paths", "oracle_min", "parity_length",
]
