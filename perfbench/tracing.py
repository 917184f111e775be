"""Spans recorded by the benchmark around its calls into minpath.

The program itself is not instrumented. Coarse calls (parse, build, each
solver, format, each verify call) become spans with a name, start, end,
parent and job id. Calls too frequent to keep one record each, the cost
function's ``extend`` and ``DetourTable.distance``, add to running
totals; every span records how much those totals grew while it was open,
which gives exact self times. Spans stay in memory until `write`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from time import perf_counter

from minpath import DetourTable

FINE = ("extend", "detour_first", "detour_repeat")


class NullTracer:
    """Untraced runs: spans cost one no-op context, nothing is wrapped."""

    job = None
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def detour_table(self, graph):
        return DetourTable(graph)

    def traced(self, func):
        return func


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job = None
        # calls and seconds for each fine-grained call kind
        self.fine = {kind: [0, 0.0] for kind in FINE}
        self._open: list[int] = []

    def _totals(self) -> list[float]:
        return [x for kind in FINE for x in self.fine[kind]]

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None, "job": self.job}
        self._open.append(len(self.spans))
        self.spans.append(record)
        before = self._totals()
        record["start"] = perf_counter()
        try:
            yield
        finally:
            record["end"] = perf_counter()
            record["fine"] = [a - b for a, b in zip(self._totals(), before)]
            self._open.pop()

    def detour_table(self, graph):
        return _TracedDetourTable(graph, self)

    def traced(self, func):
        inner = func.extend
        acc = self.fine["extend"]

        def extend(value, parent, road):
            start = perf_counter()
            result = inner(value, parent, road)
            acc[1] += perf_counter() - start
            acc[0] += 1
            return result

        return dataclasses.replace(func, extend=extend)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, record in enumerate(self.spans):
                fine = dict(zip([f"{k}_{x}" for k in FINE for x in ("calls", "s")], record["fine"]))
                fh.write(json.dumps({"id": index, **{k: v for k, v in record.items() if k != "fine"}, **fine}) + "\n")


class _TracedDetourTable(DetourTable):
    """Times each lookup, split by whether its (deleted, origin) row was filled yet."""

    def __init__(self, graph, tracer: Tracer):
        super().__init__(graph)
        self._tracer = tracer
        self._seen: set[tuple[int, int]] = set()

    def distance(self, deleted: int, origin: int, target: int) -> float:
        key = (deleted, origin)
        if key in self._seen:
            acc = self._tracer.fine["detour_repeat"]
        else:
            self._seen.add(key)
            acc = self._tracer.fine["detour_first"]
        start = perf_counter()
        result = super().distance(deleted, origin, target)
        acc[1] += perf_counter() - start
        acc[0] += 1
        return result


def fine_delta(record: dict, kind: str) -> tuple[int, float]:
    """(calls, seconds) of one fine-grained kind made while a span was open."""
    i = 2 * FINE.index(kind)
    return record["fine"][i], record["fine"][i + 1]
