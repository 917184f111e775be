"""Paths, path systems, path cost functions, and the detour-distance cache.

A path function assigns a real value (``float('inf')`` allowed) to every
path of a path system. It is described by a base value for the trivial path
plus an extension rule applied once per appended road; the value of a whole
path is the fold of the rule along its road list. All four built-in
functions below are naturally recurrent, which keeps one extension O(1)
after detour caching.
"""

from __future__ import annotations

import functools
import heapq
import numbers
from dataclasses import dataclass, field
from typing import Callable

from .graphs import Graph, Road, _require_nonnegative, _require_vertex, _single_source

__all__ = [
    "INF",
    "Path",
    "PathSystem",
    "PathFunction",
    "PropertyRefusalError",
    "DetourTable",
    "ZERO_COST",
    "path_value",
    "format_path",
    "implied_properties",
    "classic_distance",
    "anti_risk",
    "blocked_cost",
    "expected_cost",
    "NDSP",
    "INSP",
    "SOP",
    "SOPSP",
    "OP",
    "OPSP",
    "WOP",
    "WOPSP",
    "WISP",
    "NO_NEGATIVE_CIRCLES",
    "NO_NONPOSITIVE_CIRCLES",
]

INF = float("inf")

# Structural property flags a path function may declare. Algorithms gate on
# these claims; the verify module checks them empirically.
NDSP = "NDSP"
INSP = "INSP"
SOP = "SOP"
SOPSP = "SOPSP"
OP = "OP"
OPSP = "OPSP"
WOP = "WOP"
WOPSP = "WOPSP"
WISP = "WISP"
NO_NEGATIVE_CIRCLES = "no-negative-circles"
NO_NONPOSITIVE_CIRCLES = "no-non-positive-circles"

SIMPLE = "simple"
ALL = "all"


class Path:
    """Ordered road sequence out of a fixed source vertex.

    The empty road list is the trivial path that starts and ends at the
    source. Consecutive roads must chain: road i ends where road i+1 begins.
    Instances are immutable and persistent: a path is its one-road-shorter
    prefix plus one road, and it holds both. It shares that prefix with every
    other path that extends it, so ``extended`` is O(1) and copies nothing.
    ``roads`` and ``vertices`` build their tuples on request, in O(length).
    """

    __slots__ = ("graph", "source", "terminal", "_prefix", "_road", "_length")

    def __init__(self, graph: Graph, source: int, roads: tuple[int, ...] | list[int] = ()):
        _require_vertex(graph, source, "source")
        self.graph = graph
        self.source = source
        self.terminal = source
        self._prefix = self._road = None  # the trivial path has neither
        self._length = 0
        if roads:
            path = Path(graph, source)
            for key in roads:
                path = path.extended(key)
            self.terminal, self._prefix, self._road, self._length = path.terminal, path._prefix, path._road, path._length

    def _links(self) -> list["Path"]:
        """The nontrivial prefixes, longest (this path) first."""
        links = []
        path = self
        while path._prefix is not None:
            links.append(path)
            path = path._prefix
        return links

    @property
    def roads(self) -> tuple[int, ...]:
        return tuple([path._road.key for path in reversed(self._links())])

    @property
    def vertices(self) -> tuple[int, ...]:
        return (self.source, *[path.terminal for path in reversed(self._links())])

    def extended(self, key: int) -> "Path":
        road = self.graph.road(key)
        if road.tail != self.terminal:
            raise ValueError(f"road chain broken: road {key} starts at {road.tail}, expected {self.terminal}")
        return self._grown(road)

    def _grown(self, road: Road) -> "Path":
        """This path plus ``road``, unchecked: the caller holds a road of this
        graph out of this path's terminal."""
        path = object.__new__(Path)
        path.graph = self.graph
        path.source = self.source
        path.terminal = road.head
        path._prefix = self
        path._road = road
        path._length = self._length + 1
        return path

    def prefix(self, length: int) -> "Path":
        """The prefix with the first ``length`` roads."""
        if not 0 <= length <= self._length:
            raise ValueError(f"prefix length {length} out of range")
        path = self
        for _ in range(self._length - length):
            path = path._prefix
        return path

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        if self.source != other.source or self._length != other._length:
            return False
        a, b = self, other
        while a is not b and a._road is not None:  # equal lengths reach the trivial paths together
            if a._road.key != b._road.key:
                return False
            a, b = a._prefix, b._prefix
        return True

    def __hash__(self) -> int:
        return hash((self.source, self.roads))

    def __repr__(self) -> str:
        return f"Path({format_path(self)!r})"


def format_path(path: Path) -> str:
    """Serialize as ``s=v0 -> v1[k3] -> v2[k7]`` with road keys in brackets."""
    return " -> ".join([f"s={path.source}", *[f"{p.terminal}[k{p._road.key}]" for p in reversed(path._links())]])


@dataclass(frozen=True)
class PathSystem:
    """A designated set of paths sharing one source.

    ``simple`` admits only paths without repeated vertices, ``all`` admits
    every chained road sequence. The trivial path is always a member.
    """

    kind: str
    source: int

    def __post_init__(self):
        if self.kind not in (SIMPLE, ALL):
            raise ValueError(f"unknown path system kind {self.kind!r}")

    @classmethod
    def simple(cls, source: int) -> "PathSystem":
        return cls(SIMPLE, source)

    @classmethod
    def all_paths(cls, source: int) -> "PathSystem":
        return cls(ALL, source)


@dataclass(frozen=True)
class PathFunction:
    """Path cost defined by a base value plus a per-road extension rule.

    ``extend(parent_value, parent_path, road)`` returns the value of the
    parent path extended by one road. The rule may consult the whole parent
    path, not just its value (nothing forbids history-dependent costs).
    ``declared_properties`` are trusted structural claims; see
    `implied_properties` for how solvers interpret them.
    """

    name: str
    base: float
    extend: Callable[[float, Path, Road], float]
    declared_properties: frozenset[str] = field(default_factory=frozenset)

    def checked(self, result: float, road: Road) -> float:
        """``result`` of extending by ``road``, rejected if NaN or not real
        (``inf`` stays legal).

        The solver loops and the verify census call ``extend`` directly and
        pass only a result that is not a plain non-NaN float through here:
        ``type(c) is not float or c != c``. `path_value` and the circle
        check pass every result, so every result is checked once, with the
        same messages everywhere.
        """
        if type(result) is not float and not isinstance(result, numbers.Real):
            raise ValueError(
                f"path function {self.name!r} returned non-numeric {result!r} extending by road {road.key}"
            )
        if result != result:
            raise ValueError(f"path function {self.name!r} returned NaN extending by road {road.key}")
        return result


# Every path costs 0: all candidates tie, so label setting falls back on its
# tie-break alone. `sta` walks with it.
ZERO_COST = PathFunction("zero", 0.0, lambda value, parent, road: 0.0, frozenset({NDSP, SOP, WISP}))


def path_value(func: PathFunction, path: Path) -> float:
    """Fold ``func.extend`` along the path's roads starting from the base,
    each result passed through `PathFunction.checked`."""
    value = func.base
    for link in reversed(path._links()):
        value = func.checked(func.extend(value, link._prefix, link._road), link._road)
    return value


def implied_properties(declared: frozenset[str] | set[str], system: PathSystem) -> frozenset[str]:
    """Closure of declared property flags under the standard derivations.

    The derivations form a fixed order, and one pass applies them in it
    (no derivation yields OP, INSP or NDSP, and WISP feeds none):

    1. OP gives SOP, OPSP and WOP.
    2. SOP or OPSP gives SOPSP; OPSP or WOP gives WOPSP.
    3. No non-positive circles gives no negative circles.
    4. WISP follows from any one of: no non-positive circles and SOPSP;
       no negative circles, SOPSP and INSP; or, on a simple-path system,
       OP and declared absence of negative circles. Circles can be cut out
       of any walk without raising its value there, and relaxation over
       walks then ends in a tree of minimum paths.
    5. On a simple-path system both circle flags hold vacuously (no member
       extends another by a circle), so they are added last and feed no
       derivation: a function whose walks have negative circles, such as
       expected-cost with a large p, can have minima that are not weakly
       inherited even though every member path is simple.

    Unknown flags pass through. The closure is computed once per declared
    set and system kind.
    """
    return _closure(frozenset(declared), system.kind)


class PropertyRefusalError(ValueError):
    """The path function does not declare the properties a consumer needs."""


def _require_source(graph: Graph, source: int, system: PathSystem) -> None:
    """The input rule for a source: in range, and the system's source."""
    _require_vertex(graph, source, "source")
    if system.source != source:
        raise ValueError(f"path system source {system.source} does not match {source}")


def _require_properties(func: PathFunction, system: PathSystem, needed: set[str], consumer: str) -> None:
    """The input rule for flags: ``func`` declares or implies every flag in
    ``needed`` on ``system``; the flags are trusted, not re-proven."""
    missing = needed - implied_properties(func.declared_properties, system)
    if missing:
        raise PropertyRefusalError(
            f"path function {func.name!r} does not declare or imply "
            f"{', '.join(sorted(missing))}, required by {consumer} "
            "(declare the flags in declared_properties if the function has them)"
        )


@functools.lru_cache(maxsize=256)  # bounded: declared sets are arbitrary strings
def _closure(declared: frozenset[str], kind: str) -> frozenset[str]:
    props = set(declared)
    if OP in props:
        props |= {SOP, OPSP, WOP}
    if SOP in props or OPSP in props:
        props.add(SOPSP)
    if OPSP in props or WOP in props:
        props.add(WOPSP)
    if NO_NONPOSITIVE_CIRCLES in props:
        props.add(NO_NEGATIVE_CIRCLES)
    simple = kind == SIMPLE
    if (
        {NO_NONPOSITIVE_CIRCLES, SOPSP} <= props
        or {NO_NEGATIVE_CIRCLES, SOPSP, INSP} <= props
        or simple and {OP, NO_NEGATIVE_CIRCLES} <= props
    ):
        props.add(WISP)
    if simple:
        props |= {NO_NONPOSITIVE_CIRCLES, NO_NEGATIVE_CIRCLES}
    return frozenset(props)


# A base tree of `DetourTable`: the base row, the parent roads, the child
# lists and each vertex's bypass (label, tail).
_BaseTree = tuple[list[float], list[Road | None], list[list[int]], list[tuple[float, int]]]


class DetourTable:
    """Cache of classic shortest distances after deleting one road.

    An entry ``(deleted, origin, target)`` is the distance from origin to
    target in the graph without that road, ``inf`` when the deletion
    disconnects them; it equals ``dijkstra_classic(remove_road(graph,
    deleted), origin)[target]`` exactly. A target outside ``0..n-1`` is
    rejected when its entry is first filled, and so is an origin (as
    ``dijkstra_classic`` rejects a source).

    A query is answered by one of three routes, tried in this order:

    - The origin is the deleted road's tail, as blocked-cost and
      expected-cost ask. One search runs from the origin alone, skips the
      road and stops once ``target`` is settled, whether or not the road is
      a tree road.
    - Any other origin, as anti-risk's source, gets one base search the
      first time it is asked, which keeps the shortest-path tree it
      settles: every vertex's parent road, and every vertex's child list.
      The base distances are the minimal left-fold sums over all paths
      (float addition with a nonnegative weight is monotone), and each tree
      path attains its vertex's distance. If the deleted road is not its
      head's parent road, every tree path survives the deletion, so the
      answer is read from the base row. This holds for a tight road tied
      with the tree road too.
    - The deleted road u->v is v's parent road. Only v's subtree, found
      from the child lists, loses its tree paths, so a target outside it is
      read from the base row. For one inside, a search runs in the subtree
      alone. It seeds each subtree vertex x with the best ``base[y] + w``
      over the roads y->x other than the deleted one whose tail lies outside
      the subtree, relaxes only roads whose head lies inside, keeps its
      labels in a dict and stops once ``target`` is settled. No road out of
      the subtree lowers a vertex outside it, because its label is at least
      ``base[x] + w``, which is at least the head's base distance. The
      deleted road starts outside, so it is never relaxed. The in-road
      lists it seeds from are built with the table. The base tree also
      keeps, for every vertex x, its bypass: the best ``base[y] + w`` over
      x's in-roads other than its parent road, and that road's tail y.
      Every parent road in the subtree but the deleted one starts inside
      it, so when the bypass tail lies outside, the bypass is x's seed;
      only otherwise are x's in-roads scanned. A query thus costs its
      subtree's vertices and their roads, not n.

    The first route and the base row give the same answer where both
    apply: each is the minimal left-fold sum in the graph without the road.
    Every answer is cached under its whole key, so a repeated query is one
    lookup and a first-time query one failed lookup before its route. A
    first-time query by the first or the third route runs at most one
    search, and a base tree costs one search and one pass over the roads.
    So a caller that wants every target of one deleted road should run
    ``dijkstra_classic(remove_road(graph, deleted), origin)`` instead. An
    origin asked only about roads out of itself, as by blocked-cost and
    expected-cost, takes the first route and never builds a base tree.
    Anti-risk, blocked-cost and expected-cost reject a table built for
    another graph. A graph with a negative road is rejected: every built-in
    function that reads a table requires nonnegative weights.

    Entries fill on demand and are never invalidated (the graph is
    immutable). Concurrent fills race benignly: every writer computes
    identical values and publishes only finished ones.
    """

    def __init__(self, graph: Graph):
        _require_nonnegative(graph, "DetourTable")
        self.graph = graph
        self._into: list[list[Road]] = [[] for _ in range(graph.n)]
        for r in graph.roads:
            self._into[r.head].append(r)
        self._trees: dict[int, _BaseTree] = {}
        self._entries: dict[tuple[int, int, int], float] = {}

    def distance(self, deleted: int, origin: int, target: int) -> float:
        key = (deleted, origin, target)
        value = self._entries.get(key)
        if value is None:
            value = self._entries[key] = self._fill(deleted, origin, target)
        return value

    def _fill(self, deleted: int, origin: int, target: int) -> float:
        _require_vertex(self.graph, target, "target")
        road = self.graph.road(deleted)
        if origin == road.tail:
            return _single_source(self.graph, origin, deleted, target)[0][target]
        tree = self._trees.get(origin)
        if tree is None:
            _require_vertex(self.graph, origin, "source")
            tree = self._trees[origin] = self._base_tree(origin)
        base, parent, children, bypass = tree
        if parent[road.head] is not road:
            return base[target]
        subtree = [road.head]
        for v in subtree:
            subtree.extend(children[v])
        inside = set(subtree)
        if target not in inside:
            return base[target]  # its tree path survives the deletion
        return self._subtree_search(base, bypass, subtree, inside, road, target)

    def _base_tree(self, origin: int) -> _BaseTree:
        """The base search from ``origin`` and what subtree searches read of
        it: the distance row, the parent roads, the child lists and the bypass
        labels (see the class docstring)."""
        base, parent = _single_source(self.graph, origin)
        children: list[list[int]] = [[] for _ in base]
        bypass = [(INF, -1)] * len(base)
        for r in self.graph.roads:
            if r is parent[r.head]:
                children[r.tail].append(r.head)
            else:
                label = base[r.tail] + r.weight
                if label < bypass[r.head][0]:
                    bypass[r.head] = (label, r.tail)
        return base, parent, children, bypass

    def _subtree_search(
        self,
        base: list[float],
        bypass: list[tuple[float, int]],
        subtree: list[int],
        inside: set[int],
        road: Road,
        target: int,
    ) -> float:
        """Distance to ``target`` in tree road ``road``'s subtree from ``base``'s
        origin without that road: see the class docstring."""
        into = self._into
        dist: dict[int, float] = {}
        heap = []
        for v in subtree:
            label, tail = bypass[v]
            if tail in inside:  # v's best other in-road starts inside: scan for the best from outside
                label = min(
                    [base[r.tail] + r.weight for r in into[v] if r.tail not in inside and r is not road], default=INF
                )
            if label < INF:
                dist[v] = label
                heap.append((label, v))
        heapq.heapify(heap)
        out = self.graph._out
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue  # stale entry: u was settled at a smaller distance
            if u == target:
                return d
            for r in out[u]:
                x = r.head
                if x in inside:  # the deleted road leaves from outside, so it is never relaxed here
                    label = d + r.weight
                    if label < dist.get(x, INF):
                        dist[x] = label
                        heapq.heappush(heap, (label, x))
        return INF


def _own_table(graph: Graph, table: DetourTable | None, name: str) -> DetourTable:
    """The input rule of the detour function ``name``: nonnegative weights,
    and a table of this graph (a new one when ``table`` is None)."""
    _require_nonnegative(graph, name)
    if table is None:
        return DetourTable(graph)
    if table.graph != graph:
        raise ValueError("the detour table was built for another graph")
    return table


def _require_probability(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError("p out of range (0, 1)")


def classic_distance(graph: Graph) -> PathFunction:
    """Sum of road weights.

    With nonnegative weights the sum is nondecreasing and order-preserving;
    with general conservative weights it is order-preserving and free of
    negative circles. The constructor declares the set that matches the
    weights it sees (conservativeness itself is the caller's claim).
    """
    if graph._nonnegative:
        props = frozenset({NDSP, SOP, OP, NO_NEGATIVE_CIRCLES})
    else:
        props = frozenset({OP, NO_NEGATIVE_CIRCLES})

    def extend(value: float, parent: Path, road: Road) -> float:
        return value + road.weight

    return PathFunction("classic", 0.0, extend, props)


# The flags of anti-risk and blocked-cost. Given the road and the source, each
# extension is a nondecreasing function of the parent value alone, never below
# it: ``max(d, w + x)`` and ``p*d + w + x`` with w, d >= 0 (float ``+`` and
# ``max`` are monotone). So both are order preserving on walks, and no circle
# lowers a value. Zero-weight roads make zero-weight circles, so
# NO_NONPOSITIVE_CIRCLES is not declared.
_DETOUR_PROPERTIES = frozenset({NDSP, OP, WISP, NO_NEGATIVE_CIRCLES})


def anti_risk(graph: Graph, table: DetourTable | None = None) -> PathFunction:
    """Worst-case travel cost when at most one road may be blocked.

    Extending a path ending at u by road u->v costs the larger of the
    blocked-road fallback (source-to-v distance with that road deleted) and
    the normal cost w(u,v) plus the parent's risk. Folding this recurrence
    reproduces, for every simple path, the direct maximum over the plain
    length, the last-road fallback, and every suffix-length-plus-fallback
    combination.
    """
    table = _own_table(graph, table, "anti-risk")

    def extend(value: float, parent: Path, road: Road) -> float:
        blocked = table.distance(road.key, parent.source, road.head)
        return max(blocked, road.weight + value)

    return PathFunction("antirisk", 0.0, extend, _DETOUR_PROPERTIES)


def blocked_cost(graph: Graph, p: float, table: DetourTable | None = None) -> PathFunction:
    """Travel cost with a blockage surcharge on every road taken.

    Each road u->v adds its weight plus p times the detour distance from u
    to v with that road deleted; an impossible detour makes the route cost
    infinite. Intended for simple-path systems.
    """
    _require_probability(p)
    table = _own_table(graph, table, "blocked-cost")

    def extend(value: float, parent: Path, road: Road) -> float:
        detour = table.distance(road.key, road.tail, road.head)
        return p * detour + road.weight + value

    return PathFunction("blocked-cost", 0.0, extend, _DETOUR_PROPERTIES)


def expected_cost(graph: Graph, p: float, table: DetourTable | None = None) -> PathFunction:
    """Expected travel cost when each taken road is blocked with probability p.

    Each road u->v contributes p times the u-to-v detour distance (road
    deleted) plus (1-p) times the normal cost of the road and the parent
    path. Intended for simple-path systems.
    """
    _require_probability(p)
    table = _own_table(graph, table, "expected-cost")

    def extend(value: float, parent: Path, road: Road) -> float:
        detour = table.distance(road.key, road.tail, road.head)
        return p * detour + (1.0 - p) * (road.weight + value)

    props = frozenset({OP})
    return PathFunction("expected-cost", 0.0, extend, props)
