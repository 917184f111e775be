"""Directed multigraphs with keyed parallel roads.

Vertices carry dense integer ids ``0..n-1``. Every stored road is directed;
an undirected ``edge`` line in the text format materializes as two opposite
roads with distinct keys. Graphs are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

__all__ = [
    "GraphFormatError",
    "Vertex",
    "Road",
    "Graph",
    "parse_graph",
    "serialize_graph",
    "remove_road",
    "dijkstra_classic",
    "max_degree",
    "generate_random",
]

GENERATOR_MODES = ("directed", "undirected", "conservative")


class GraphFormatError(ValueError):
    """Malformed graph text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"{message}, line {line}" if line is not None else message)


@dataclass(frozen=True)
class Vertex:
    id: int
    label: str | None = None


@dataclass(frozen=True)
class Road:
    """One directed road. ``key`` is unique graph-wide, so parallel roads
    between the same endpoints stay distinguishable."""

    key: int
    tail: int
    head: int
    weight: float


class Graph:
    """Immutable directed multigraph.

    ``roads`` keeps construction order (file order for parsed graphs, which
    is also ascending key order). Outgoing adjacency lists are sorted by
    road key so every traversal in the package is deterministic.
    """

    __slots__ = ("vertices", "roads", "_by_key", "_out", "_nonnegative")

    def __init__(self, vertices, roads):
        vertices = tuple(vertices)
        roads = tuple(roads)
        n = len(vertices)
        if sorted(v.id for v in vertices) != list(range(n)):
            raise ValueError("vertex ids must be dense 0..n-1 and unique")
        by_key: dict[int, Road] = {}
        out: list[list[Road]] = [[] for _ in range(n)]
        nonnegative = True
        for r in roads:
            if r.key in by_key:
                raise ValueError(f"duplicate road key {r.key}")
            if not (0 <= r.tail < n and 0 <= r.head < n):
                raise ValueError(f"road {r.key} endpoint out of range")
            if not math.isfinite(r.weight):
                raise ValueError(f"road {r.key} has non-finite weight")
            if r.weight < 0:
                nonnegative = False
            by_key[r.key] = r
            out[r.tail].append(r)
        self.vertices = vertices
        self.roads = roads
        self._by_key = by_key
        self._nonnegative = nonnegative  # read by _require_nonnegative and classic_distance
        self._out = tuple(tuple(sorted(lst, key=lambda r: r.key)) for lst in out)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.roads)

    def road(self, key: int) -> Road:
        try:
            return self._by_key[key]
        except KeyError:
            raise ValueError(f"unknown road key {key}") from None

    def has_road(self, key: int) -> bool:
        return key in self._by_key

    def out_roads(self, vertex: int) -> tuple[Road, ...]:
        """Outgoing roads of ``vertex`` in ascending key order."""
        return self._out[vertex]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.roads == other.roads

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"syntax error: {what} {token!r} is not an integer", line) from None


def _parse_weight(token: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise GraphFormatError(f"syntax error: weight {token!r} is not a number", line) from None
    if not math.isfinite(value):
        raise GraphFormatError("non-finite weight", line)
    return value


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Format (``#`` starts a comment anywhere on a line)::

        g <n> <m>            header; m counts the arc/edge lines that follow
        v <id> [label]       exactly n of these, ids 0..n-1 in any order
        arc <from> <to> <w>  one directed road
        edge <u> <v> <w>     expands to two roads, u->v then v->u

    Road keys are assigned 0,1,2,... in expanded order. Self-loops are
    rejected: the simple system never admits one, and the graph generator
    makes none. A `Graph` built in code may still hold one: over all paths
    it is a one-road circle, and embfa reports it if it lowers a value.
    """
    header: tuple[int, int] | None = None
    seen_vertices: dict[int, Vertex] = {}
    roads: list[Road] = []
    declared_lines = 0

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if header is None:
            if keyword != "g" or len(tokens) != 3:
                raise GraphFormatError("syntax error: expected header 'g <n> <m>'", lineno)
            n = _parse_int(tokens[1], "vertex count", lineno)
            m_declared = _parse_int(tokens[2], "road line count", lineno)
            if n < 2:
                raise GraphFormatError("vertex count must be at least 2", lineno)
            if m_declared < 0:
                raise GraphFormatError("road line count must be nonnegative", lineno)
            header = (n, m_declared)
            continue
        n, m_declared = header
        if keyword == "v":
            if len(tokens) not in (2, 3):
                raise GraphFormatError("syntax error: expected 'v <id> [label]'", lineno)
            vid = _parse_int(tokens[1], "vertex id", lineno)
            if not 0 <= vid < n:
                raise GraphFormatError(f"vertex id {vid} out of range", lineno)
            if vid in seen_vertices:
                raise GraphFormatError(f"duplicate vertex id {vid}", lineno)
            seen_vertices[vid] = Vertex(vid, tokens[2] if len(tokens) == 3 else None)
        elif keyword in ("arc", "edge"):
            if len(tokens) != 4:
                raise GraphFormatError(f"syntax error: expected '{keyword} <from> <to> <weight>'", lineno)
            u = _parse_int(tokens[1], "endpoint", lineno)
            v = _parse_int(tokens[2], "endpoint", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError("road endpoint out of range", lineno)
            if u == v:
                raise GraphFormatError("self-loop road", lineno)
            w = _parse_weight(tokens[3], lineno)
            declared_lines += 1
            roads.append(Road(len(roads), u, v, w))
            if keyword == "edge":
                roads.append(Road(len(roads), v, u, w))
        else:
            raise GraphFormatError(f"syntax error: unknown directive {keyword!r}", lineno)

    if header is None:
        raise GraphFormatError("missing 'g <n> <m>' header")
    n, m_declared = header
    if len(seen_vertices) != n:
        raise GraphFormatError(f"expected {n} vertex lines, found {len(seen_vertices)}")
    if declared_lines != m_declared:
        raise GraphFormatError(f"declared {m_declared} road lines, found {declared_lines}")
    return Graph(list(seen_vertices.values()), roads)


def serialize_graph(graph: Graph) -> str:
    """Emit the text format with one ``arc`` line per road.

    Undirected edges are not reconstructed. Keys are positional on reparse,
    so round-tripping is exact for graphs whose keys are dense (every parsed
    or generated graph; a graph that went through `remove_road` is re-keyed).
    Raises ValueError on a self-loop road, since `parse_graph` rejects its
    line: the text format holds no self-loop. Raises ValueError on a vertex
    label that is empty, holds whitespace or holds ``#``, since `parse_graph`
    would reject its line or read back another label: a label is one token.
    """
    lines = [f"g {graph.n} {graph.m}"]
    for v in graph.vertices:
        if v.label is not None and (v.label.split() != [v.label] or "#" in v.label):
            raise ValueError(f"vertex {v.id} label {v.label!r} is not one token, which the text format needs")
        lines.append(f"v {v.id}" if v.label is None else f"v {v.id} {v.label}")
    for r in graph.roads:
        if r.tail == r.head:
            raise ValueError(f"road {r.key} is a self-loop at vertex {r.tail}, which the text format cannot hold")
        lines.append(f"arc {r.tail} {r.head} {r.weight!r}")
    return "\n".join(lines) + "\n"


def remove_road(graph: Graph, key: int) -> Graph:
    """Return a copy of ``graph`` without the single road ``key``.

    Remaining road keys are unchanged; the input graph is not mutated.
    """
    removed = graph.road(key)
    return Graph(graph.vertices, tuple(r for r in graph.roads if r is not removed))


def dijkstra_classic(graph: Graph, source: int) -> tuple[float, ...]:
    """Classic nonnegative-weight single-source distances.

    Heap label setting with lazy deletion, O(m log n); final distances do
    not depend on the order in which tied vertices are settled. The
    reduction reference: on a nonnegative network, `eda` with the classic
    distance function computes exactly these values. ``inf`` marks
    unreachable vertices. Raises on any negative weight. For distances
    without one road, search `remove_road(graph, key)`.
    """
    _require_vertex(graph, source, "source")
    _require_nonnegative(graph, "dijkstra_classic")
    return tuple(_single_source(graph, source)[0])


def _require_vertex(graph: Graph, vertex: int, role: str) -> None:
    """The input rule for a vertex argument: an id in ``0..n-1``."""
    if not 0 <= vertex < graph.n:
        raise ValueError(f"{role} {vertex} out of range")


def _require_nonnegative(graph: Graph, name: str) -> None:
    """The input rule of ``name``, which needs every weight nonnegative."""
    if not graph._nonnegative:
        raise ValueError(f"{name} requires nonnegative weights")


def _single_source(
    graph: Graph, source: int, deleted: int | None = None, target: int | None = None
) -> tuple[list[float], list[Road | None]]:
    """The heap loop of `dijkstra_classic` from ``source``, without its
    argument checks: the distance row and each vertex's parent road.

    The parent road is the last road that lowered a vertex's label, None
    where none did. Run to the end, the parent roads form the shortest-path
    tree. Skips road ``deleted``, and stops as soon as ``target`` is
    settled: its entry is then final, and the entries of vertices not yet
    settled are upper bounds only. It is the one list-row loop of the
    package: `dijkstra_classic`, `DetourTable`'s base trees and its
    tail-origin searches all run it. A search inside one subtree keeps its
    labels in a dict instead (`DetourTable._subtree_search`).
    """
    dist = [math.inf] * graph.n
    dist[source] = 0.0
    parent: list[Road | None] = [None] * graph.n
    heap = [(0.0, source)]
    out = graph._out
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # stale entry: u was settled at a smaller distance
        if u == target:
            break
        for road in out[u]:
            label = d + road.weight
            if label < dist[road.head] and road.key != deleted:
                dist[road.head] = label
                parent[road.head] = road
                heapq.heappush(heap, (label, road.head))
    return dist, parent


def max_degree(graph: Graph) -> int:
    """Largest per-vertex count of incident roads (either direction)."""
    degree = [0] * graph.n
    for r in graph.roads:
        degree[r.tail] += 1
        degree[r.head] += 1
    return max(degree, default=0)


def generate_random(
    n: int,
    m: int,
    weight_low: float,
    weight_high: float,
    mode: str = "directed",
    seed: int = 0,
) -> Graph:
    """Deterministic random graph for a fixed seed.

    Modes:
      * ``directed``: m roads with uniform weights in [weight_low, weight_high].
      * ``undirected``: m edges, each stored as two opposite roads (2m roads).
      * ``conservative``: m roads with weight c(u,v) + pot(u) - pot(v) for
        nonnegative costs c and random vertex potentials. Every directed
        circle then telescopes to a nonnegative cost sum, so the weights are
        conservative by construction even when many are negative.
    """
    if mode not in GENERATOR_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 2:
        raise ValueError("n must be at least 2")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not (math.isfinite(weight_low) and math.isfinite(weight_high)):
        raise ValueError("weight bounds must be finite")
    if weight_low > weight_high:
        raise ValueError("weight_low must not exceed weight_high")
    if mode == "conservative" and weight_low < 0:
        raise ValueError("conservative mode requires weight_low >= 0")

    rng = random.Random(seed)
    if mode == "conservative":
        span = 2.0 * max(weight_high, 1.0)
        potential = [rng.uniform(0.0, span) for _ in range(n)]
    roads: list[Road] = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        w = rng.uniform(weight_low, weight_high)
        if mode == "conservative":
            w = w + potential[u] - potential[v]
        roads.append(Road(len(roads), u, v, w))
        if mode == "undirected":
            roads.append(Road(len(roads), v, u, w))
    return Graph([Vertex(i) for i in range(n)], roads)
