"""Brute-force minima and empirical checkers for path-function properties.

The oracle enumerates every simple path from the source, so it is exact
whenever the function has no negative circles (then no minimum needs a
circle) and it is meant for small instances only. Property checkers test
the quantified definitions exhaustively within an enumeration bound: a
``no-violation-found`` verdict is bounded evidence, not proof, while a
``violated`` verdict always carries a concrete witness.

One depth-first generator, `enumerate_paths`, streams the members of a
path system within a bound; every walk here reads it. The oracle records
the simple paths of a graph and source from it once, and folds each
function's values over that record once (see `_oracle`): `oracle_min`, `check_wisp` and
`check_property` on the simple system read that census, so checking
several functions on one graph and source walks its simple paths once and
extends each of them once per function.

Value comparisons use an absolute tolerance (default 1e-9), which must be
finite and nonnegative; 0.0 compares exactly. Conclusions of
strict clauses are flagged only when clearly beyond tolerance; within
tolerance the strict variants are indistinguishable from their weak forms.
The one exception is the strict circle check, where an exact tie is a
genuine non-positive circle and is reported.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .graphs import Graph, Road
from .paths import (
    INF,
    INSP,
    NDSP,
    NO_NEGATIVE_CIRCLES,
    NO_NONPOSITIVE_CIRCLES,
    OP,
    OPSP,
    SIMPLE,
    SOP,
    SOPSP,
    WOP,
    WOPSP,
    Path,
    PathFunction,
    PathSystem,
    _require_properties,
    _require_source,
    format_path,
)

__all__ = [
    "NO_VIOLATION",
    "VIOLATED",
    "DEF1_PROPERTIES",
    "OracleResult",
    "PropertyReport",
    "enumerate_paths",
    "oracle_min",
    "check_property",
    "check_no_negative_circles",
    "check_wisp",
    "compare_tree_to_oracle",
]

NO_VIOLATION = "no-violation-found"
VIOLATED = "violated"

DEF1_PROPERTIES = (NDSP, INSP, SOP, SOPSP, OP, OPSP, WOP, WOPSP)
_MINIMUM_HYPOTHESIS = {NDSP, INSP, SOPSP, OPSP, WOPSP}


def _close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol


def _require_tolerance(tol: float) -> None:
    if not 0.0 <= tol < INF:
        raise ValueError(f"tolerance must be finite and nonnegative, not {tol!r}")


@dataclass
class OracleResult:
    """Per-vertex true minima over simple paths, with argmin witnesses."""

    source: int
    minimum: dict[int, float]
    witness: dict[int, Path]
    enumerated_count: int


@dataclass
class PropertyReport:
    """Outcome of one empirical check, with the evidence for a violation."""

    property: str
    verdict: str
    scope: str
    witness: str | None = None
    details: dict | None = None

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED

    def format(self) -> str:
        return f"property={self.property} verdict={self.verdict} scope={self.scope} witness={self.witness or '-'}"


def enumerate_paths(graph: Graph, source: int, system: PathSystem, max_roads: int) -> Iterator[Path]:
    """Depth-first stream of system members with at most ``max_roads`` roads.

    Children are visited in road-key order and the trivial path comes
    first, so the stream order is deterministic and complete for the bound.
    Each member is its parent member grown by the road it holds. A bad
    bound or source (see `_require_source`) is rejected at the call, before
    the first member.
    """
    if max_roads < 0:
        raise ValueError("max_roads must be nonnegative")
    _require_source(graph, source, system)

    def walk() -> Iterator[Path]:
        root = Path(graph, source)
        yield root
        simple = system.kind == SIMPLE
        # one entry per path on the current branch: it and its remaining
        # roads, so each yield costs O(1) whatever the depth
        stack = [(root, iter(graph.out_roads(source)))] if max_roads else []
        on_branch = {source}  # the branch's vertices: exact on the simple system, which reads them
        while stack:
            path, roads = stack[-1]
            for road in roads:
                head = road.head
                if simple and head in on_branch:
                    continue
                child = path._grown(road)
                yield child
                if child._length < max_roads:
                    stack.append((child, iter(graph.out_roads(head))))
                    on_branch.add(head)
                break
            else:
                stack.pop()
                on_branch.discard(path.terminal)

    return walk()


class _Walk:
    """The members of ``system`` with at most ``max_roads`` roads, in
    `enumerate_paths` order.

    Member i is ``paths[i]``: member ``parent[i]`` (its ``_prefix``)
    extended by road ``paths[i]._road`` (the trivial path, member 0, has
    neither). ``sons`` maps each road key to the members whose last road it
    is, in walk order: the sons by that road of members at its tail. ``groups`` maps each terminal
    to its members' indices in walk order. A member at the bound has no
    sons here.
    """

    __slots__ = ("paths", "parent", "sons", "groups", "__weakref__")

    def __init__(self, graph: Graph, source: int, system: PathSystem, max_roads: int):
        members = enumerate_paths(graph, source, system, max_roads)
        self.paths = paths = [next(members)]
        self.parent = parent = [-1]
        self.sons = sons = defaultdict(list)
        self.groups = groups = defaultdict(list)
        groups[source].append(0)
        branch = [0]  # branch[d]: the index of the current branch's member with d roads
        for i, path in enumerate(members, 1):
            depth = path._length
            parent.append(branch[depth - 1])
            del branch[depth:]
            branch.append(i)
            paths.append(path)
            sons[path._road.key].append(i)
            groups[path.terminal].append(i)


def _fold(walk: _Walk, func: PathFunction) -> list[float]:
    """``func``'s value of every member of ``walk``, indexed like it: ``values[i]
    = func.extend(values[parent[i]], paths[i]._prefix, paths[i]._road)`` in
    walk order, so ``extend`` runs once per member other than the trivial path.
    As in the solvers, only a result that is not a plain non-NaN float goes
    through `PathFunction.checked`."""
    extend, checked, paths, parent = func.extend, func.checked, walk.paths, walk.parent
    values = [func.base]
    for i in range(1, len(paths)):
        path = paths[i]
        road = path._road
        value = extend(values[parent[i]], path._prefix, road)
        if type(value) is not float or value != value:
            value = checked(value, road)
        values.append(value)
    return values


class _Census(NamedTuple):
    """One function's values over a walk, with the minima and witnesses they give."""

    walk: _Walk
    values: list[float]  # indexed like the walk
    minimum: dict[int, float]
    witness: dict[int, Path]


# The last walk and census: (graph, source, walk, func, census), with the
# census (or None) always folded over that walk. The checks are separate
# public functions with no object passed between them, so it lives here.
# The strong references keep the identities it is keyed by from being
# reused while they are cached. The slot is read once per call and only
# ever replaced whole, so concurrent or re-entrant calls may each walk, but
# no call ever returns a census of another walk.
_last: tuple = (None, None, None, None, None)


def _oracle(graph: Graph, source: int, system: PathSystem, func: PathFunction) -> _Census:
    """The census of one function on one graph and source, behind the oracle's gate.

    ``system`` only feeds the two input rules of `paths`, which run on every
    call before any walk: `_require_source`, and `_require_properties`
    needing no negative circles, which refuses with `PropertyRefusalError`
    naming the flag. The walk is always the simple system's, to
    depth n-1. The walk depends only on the identity of ``graph`` and on
    ``source``, so `oracle_min`, `check_property` and `check_wisp` share it
    across every function checked there; each function's values are one
    `_fold` over it, so ``extend`` runs once per path. The slot, read once
    into a local, pins the one walk and the one census until a call on
    another graph or source (or another function) releases both (or the
    census) before walking (or folding).
    """
    global _last
    _require_source(graph, source, system)
    _require_properties(func, system, {NO_NEGATIVE_CIRCLES}, "the oracle")
    last = _last  # rebound with the slot, so that it pins no more than the slot does
    if last[0] is graph and last[1] == source:
        if last[3] is func:
            return last[4]
        walk = last[2]
    else:
        _last = last = (None, None, None, None, None)
        walk = _Walk(graph, source, PathSystem.simple(source), graph.n - 1)
    _last = last = (graph, source, walk, None, None)
    values = _fold(walk, func)
    minimum, witness = {}, {}
    for t, group in walk.groups.items():
        best = min(group, key=values.__getitem__)  # ties keep the first
        minimum[t], witness[t] = values[best], walk.paths[best]
    census = _Census(walk, values, minimum, witness)
    _last = (graph, source, walk, func, census)
    return census


def oracle_min(graph: Graph, source: int, system: PathSystem, func: PathFunction) -> OracleResult:
    """Exact per-vertex minima of ``func`` by exhausting simple paths.

    Valid as the true infimum because a function without negative circles
    never needs a circle to reach a minimum; the gate accepts declared (or
    implied) circle-freedom, which on a simple-path system holds vacuously.
    Ties keep the first path in enumeration order. Exponential: intended
    for n up to about 10. The walk and the function's values over it are
    kept (see `_oracle`), so later checks of the same graph and source walk
    nothing again, and of the same function extend nothing again; the
    result is a fresh copy each call.
    """
    census = _oracle(graph, source, system, func)
    return OracleResult(source, dict(census.minimum), dict(census.witness), len(census.values))


def check_property(
    graph: Graph,
    source: int,
    system: PathSystem,
    func: PathFunction,
    prop: str,
    max_roads: int | None = None,
    tol: float = 1e-9,
) -> PropertyReport:
    """Exhaustively test one order/monotonicity property within a bound.

    Monotone clauses (NDSP, INSP) scan every minimum path and all of its
    sons; order-preservation clauses scan every ordered pair of same-terminal
    paths together with every common extension road whose extensions stay in
    the system. The "-SP" variants restrict the hypothesis side to minimum
    paths (minima from `oracle_min`). Each (terminal, road) list of
    order-clause entries is built from the walk's sons by that road, then
    sorted by value and tested in one pass (`_order_flagged`); the pair scan
    runs only on a list it flags, so a list without a violation costs
    O(k log k) and the reported witness is the pair scan's. The monotone
    clauses are one pass over the walk's (son, parent) pairs. On a simple
    system with a bound of at least n-1 every property reads the function's
    census (see `_oracle`): its walk holds every path and every son, and its
    values every son's value, so the check walks and extends nothing once
    the census exists, and leaves it cached. Other systems and bounds build
    their own walk within the bound and fold the function over it,
    uncached; the sons of a member at the bound, which the walk cut off,
    are valued only where a clause reads them: in each (terminal, road)
    list, and for the monotone clauses those of minimum members only. The
    reported violation is fixed by order, with members in walk order: for
    NDSP and INSP the least (terminal, member, road key); for the order
    clauses the least terminal, then the least road key, then the pair
    scan's first (a, b) there.
    """
    _require_tolerance(tol)
    if prop not in DEF1_PROPERTIES:
        raise ValueError(f"unknown property name {prop!r}")
    if max_roads is None:
        max_roads = graph.n - 1
    scope = f"max_roads:{max_roads}"
    on_census = system == PathSystem.simple(source) and max_roads >= graph.n - 1
    if on_census:
        census = _oracle(graph, source, system, func)
        minima, walk, values = census.minimum, census.walk, census.values
    else:
        minima = _oracle(graph, source, system, func).minimum if prop in _MINIMUM_HYPOTHESIS else None
        walk = _Walk(graph, source, system, max_roads)
        values = _fold(walk, func)
    paths, parent, sons, groups = walk.paths, walk.parent, walk.sons, walk.groups
    simple = system.kind == SIMPLE

    def cut(group: list[int], minimum: float | None = None) -> list[tuple[int, tuple[int, ...]]]:
        """(member, the vertices its sons may not revisit) of each member of
        ``group`` at the bound, only those within tolerance of ``minimum``
        when it is given; none on the census, whose walk cut no son off."""
        if on_census:
            return []
        return [
            (i, paths[i].vertices if simple else ())
            for i in group
            if len(paths[i]) == max_roads and (minimum is None or _close(values[i], minimum, tol))
        ]

    def cut_son(i: int, road: Road) -> float:
        """The value of member i extended by ``road``, checked as `_fold` checks."""
        value = func.extend(values[i], paths[i], road)
        return func.checked(value, road) if type(value) is not float or value != value else value

    # members are indices into paths and values; sons[key] lists the members whose last road has that key
    if prop in (NDSP, INSP):
        drops = []  # (terminal, member, road key, son value) of each son below its minimum parent
        for j in [j for j, p in enumerate(parent) if j and values[j] < values[p] - tol]:
            p, road = parent[j], paths[j]._road
            if _close(values[p], minima[road.tail], tol):
                drops.append((road.tail, p, road.key, values[j]))
        for t, group in groups.items():
            for i, on_path in cut(group, minima[t]):
                for road in graph.out_roads(t):
                    if road.head not in on_path and (son_value := cut_son(i, road)) < values[i] - tol:
                        drops.append((t, i, road.key, son_value))
        if not drops:
            return PropertyReport(prop, NO_VIOLATION, scope)
        _, i, key, son_value = min(drops)
        path, value, road = paths[i], values[i], graph.road(key)
        witness = f"P={format_path(path)} f={value!r}; son via k{key} f={son_value!r}"
        details = {"path": path, "value": value, "road": road, "son_value": son_value}
        return PropertyReport(prop, VIOLATED, scope, witness, details)

    strict_hypothesis = prop in (WOP, WOPSP, OP, OPSP)
    equality_clause = prop in (OP, OPSP)
    minimum_side = prop in (SOPSP, WOPSP, OPSP)

    for t, group in sorted(groups.items()):
        minimum = minima[t] if minimum_side else None
        at_bound = cut(group)
        for road in graph.out_roads(t):
            key = road.key
            extended = [(p := parent[j], values[p], values[j]) for j in sons.get(key, ())]
            if not on_census:
                # an all-paths member can follow its own descendant's son, and
                # the cut sons come last: put the list in member order
                extended += [(i, values[i], cut_son(i, road)) for i, on_path in at_bound if road.head not in on_path]
                extended.sort()
            if len(extended) < 2 or not _order_flagged(extended, strict_hypothesis, equality_clause, minimum, tol):
                continue
            # a violation is possible here: the pair scan finds the first one, if any
            for a, value_a, ext_a in extended:
                if minimum_side and not _close(value_a, minima[t], tol):
                    continue
                for b, value_b, ext_b in extended:
                    if b == a:
                        continue
                    ordered = value_a < value_b if strict_hypothesis else value_a <= value_b
                    if ordered and ext_a > ext_b + tol:
                        witness = (
                            f"P={format_path(paths[a])} f={value_a!r}; "
                            f"P'={format_path(paths[b])} f={value_b!r}; "
                            f"road k{key}: f(P+r)={ext_a!r} > f(P'+r)={ext_b!r}"
                        )
                    elif equality_clause and value_a == value_b and not _close(ext_a, ext_b, tol):
                        witness = (
                            f"P={format_path(paths[a])} = P'={format_path(paths[b])} = {value_a!r}; "
                            f"road k{key}: f(P+r)={ext_a!r} != f(P'+r)={ext_b!r}"
                        )
                    else:
                        continue
                    details = {
                        "path": paths[a],
                        "other": paths[b],
                        "road": road,
                        "values": (value_a, value_b),
                        "extended": (ext_a, ext_b),
                    }
                    return PropertyReport(prop, VIOLATED, scope, witness, details)
    return PropertyReport(prop, NO_VIOLATION, scope)


def _order_flagged(extended: list, strict: bool, equality: bool, minimum: float | None, tol: float) -> bool:
    """Whether the pair scan of `check_property` may find a violation among
    ``extended``'s (member, value, extended value) entries, in O(k log k).

    Sorted by value, the entries fall into blocks of equal value, each
    sorted by extended value. A block is on the hypothesis side when its
    value is within ``tol`` of ``minimum`` (always, when ``minimum`` is
    None): values that compare equal, -0.0 and 0.0 included, are all
    `_close` to ``minimum`` or none is, so one test per block decides. The
    order clause is violated by a block's smallest extended value when the
    largest hypothesis-side extended value over the earlier blocks
    (strict) or up to this one (weak) exceeds it by more than ``tol``; no
    member pairs with itself there, because ``ext > ext + tol`` never
    holds. The equality clause is violated by a hypothesis-side block
    whose largest and smallest extended values are not `_close`. So False
    means the pair scan finds nothing.
    """
    pairs = sorted([(value, ext) for _, value, ext in extended])
    top = -INF  # the largest hypothesis-side extended value so far
    k, n = 0, len(pairs)
    while k < n:
        value, low = pairs[k]
        end = k + 1
        while end < n and pairs[end][0] == value:
            end += 1
        high = pairs[end - 1][1]
        side = minimum is None or _close(value, minimum, tol)
        if side and equality and not _close(high, low, tol):
            return True
        if side and not strict:
            top = max(top, high)
        if top > low + tol:
            return True
        if side and strict:
            top = max(top, high)
        k = end
    return False


def check_no_negative_circles(
    graph: Graph,
    source: int,
    func: PathFunction,
    max_roads: int | None = None,
    strict: bool = False,
    tol: float = 1e-9,
) -> PropertyReport:
    """Scan all paths within the bound for a circle that lowers the value.

    For every enumerated path and every proper prefix ending at the same
    vertex, the remainder is a circle; the value difference must be >= 0
    (``strict=True`` demands > 0 and treats a tie as a violation). The bound
    must be at least n so that a simple circle appended to a short prefix
    fits inside the enumeration.
    """
    _require_tolerance(tol)
    if max_roads is None:
        max_roads = graph.n + 2
    if max_roads < graph.n:
        raise ValueError("max_roads must be at least n to fit a circle")
    name = NO_NONPOSITIVE_CIRCLES if strict else NO_NEGATIVE_CIRCLES
    scope = f"max_roads:{max_roads}"

    # values[i] and vertices[i]: the value and the terminal of the current path's i-road prefix,
    # each value one checked extension of the one before
    values: list[float] = []
    vertices: list[int] = []
    for path in enumerate_paths(graph, source, PathSystem.all_paths(source), max_roads):
        del values[len(path) :], vertices[len(path) :]
        road = path._road
        full = func.base if road is None else func.checked(func.extend(values[-1], path._prefix, road), road)
        values.append(full)
        t = path.terminal
        vertices.append(t)
        i = vertices.index(t)  # each earlier visit to t closes a circle
        while i < len(path):
            diff = full - values[i]
            bad = diff <= tol if strict else diff < -tol
            if bad:
                prefix = path.prefix(i)
                witness = (
                    f"P={format_path(prefix)} f={values[i]!r}; "
                    f"P+C={format_path(path)} f={full!r}; diff={diff!r}"
                )
                details = {"prefix": prefix, "full": path, "values": (values[i], full)}
                return PropertyReport(name, VIOLATED, scope, witness, details)
            i = vertices.index(t, i + 1)
    return PropertyReport(name, NO_VIOLATION, scope)


def check_wisp(
    graph: Graph,
    source: int,
    system: PathSystem,
    func: PathFunction,
    tol: float = 1e-9,
) -> PropertyReport:
    """Look for a prefix-minimal witness path to every reachable vertex.

    Weak inheritance asks that each reachable vertex admit some path whose
    every prefix is a minimum path. Minimum witnesses never need circles, so
    one pass over the function's census (its values over the oracle's
    simple-path walk, see `_oracle`) marks each minimum path whose parent is
    marked (the trivial path is). Violated when a vertex has none.
    """
    _require_tolerance(tol)
    census = _oracle(graph, source, system, func)
    minimum, values = census.minimum, census.values
    paths, parent = census.walk.paths, census.walk.parent
    flags = [True]  # flags[i]: member i and each of its prefixes is a minimum path
    for i in range(1, len(values)):
        flags.append(flags[parent[i]] and _close(values[i], minimum[paths[i].terminal], tol))
    witnessed = {paths[i].terminal for i, flag in enumerate(flags) if flag}
    scope = f"max_roads:{graph.n - 1}"
    missing = sorted(set(minimum) - witnessed)
    if missing:
        v = missing[0]
        witness = f"vertex={v} m_f={minimum[v]!r} has no prefix-minimal path"
        details = {"vertex": v, "missing": missing, "minimum": minimum[v]}
        return PropertyReport("WISP", VIOLATED, scope, witness, details)
    return PropertyReport("WISP", NO_VIOLATION, scope)


def compare_tree_to_oracle(tree, oracle: OracleResult, tol: float = 1e-9) -> PropertyReport:
    """Check a solver tree against oracle minima: same coverage, same values.

    Reports the worst-deviating vertex on failure. A tree without a value at
    a covered vertex, as `sta` builds, raises ``ValueError`` naming the
    first such vertex.
    """
    _require_tolerance(tol)
    if tree.source != oracle.source:
        raise ValueError("mismatched sources")
    scope = f"tolerance:{tol!r}"
    tree_covered = set(tree.paths)
    oracle_covered = set(oracle.minimum)
    if tree_covered != oracle_covered:
        only_tree = sorted(tree_covered - oracle_covered)
        only_oracle = sorted(oracle_covered - tree_covered)
        witness = f"covered sets differ: tree-only={only_tree} oracle-only={only_oracle}"
        return PropertyReport(
            "tree-vs-oracle", VIOLATED, scope, witness,
            {"tree_only": only_tree, "oracle_only": only_oracle},
        )
    worst_vertex = None
    worst_dev = 0.0
    for v in sorted(oracle_covered):
        a = tree.value.get(v)
        if a is None:
            raise ValueError(f"the tree has no value at covered vertex {v}")
        b = oracle.minimum[v]
        if a == b:
            continue
        dev = abs(a - b)
        if dev > worst_dev:
            worst_dev = dev
            worst_vertex = v
    if worst_dev > tol:
        a = tree.value[worst_vertex]
        b = oracle.minimum[worst_vertex]
        witness = f"vertex={worst_vertex} tree={a!r} oracle={b!r} deviation={worst_dev!r}"
        return PropertyReport(
            "tree-vs-oracle", VIOLATED, scope, witness,
            {"vertex": worst_vertex, "tree": a, "oracle": b, "deviation": worst_dev},
        )
    return PropertyReport("tree-vs-oracle", NO_VIOLATION, scope)
