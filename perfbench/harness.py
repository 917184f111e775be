"""Closed-loop measurement of one workload, its checks, and its metrics.

One process, one thread, one job at a time: the next job starts when the
previous one (and its checks) has finished. Inputs are generated and
serialized to text before each job's set-up; checks run after the job.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from minpath import cli

from tracing import NullTracer, Tracer, fine_delta
from workloads import Inputs, JobOutput, Workload

MIN_BEYOND_TAIL = 10
TAIL_PERCENTILE = 90  # job_tail_ms goes no higher, so it does not climb with the job count a run reaches
MIN_JOBS = MIN_BEYOND_TAIL + 2  # every run completes at least this many jobs
COUNT_JOBS = 2  # exact counts are averaged over this many first jobs, so they repeat for a seed
IMPORT_SAMPLES = 11
REF_NOMINAL_S = 0.005  # the host computation's time at full speed; reported times are scaled to it


class DeterminismError(RuntimeError):
    """An exact count differed between two runs of the same inputs."""


@dataclass
class JobRecord:
    inputs: Inputs | None  # kept on job 0, for the CLI check
    setup_s: float
    parse_bytes: int
    roads: int
    seconds: float
    speed: float  # the host's speed around the job: the mean of Host.speed just before and just after it
    problems: list[str]
    known: list[str]
    failed_outputs: int
    counts: dict | None  # kept on the first COUNT_JOBS jobs
    out: JobOutput | None = None  # kept on job 0, for the CLI check

    @property
    def failed(self) -> bool:
        """The job raised or an output broke a check that holds for every input.

        Known criterion-3 misses do not fail a job: the run reports them in
        ``ok_frac``, its summary line and ``verify.oracle_mismatches``.
        """
        return bool(self.problems)


class Host:
    """Measures the host's speed next to each job with a fixed computation of the benchmark's own.

    On a shared host the same Python code switches every few seconds between
    full speed and a state 1.5-2x slower, and the share of slow time drifts
    over minutes, so raw times of one commit differ from run to run by more
    than a regression worth catching. The computation mixes the kinds of work
    minpath's jobs do (a heapq Dijkstra over dicts, O(n^2) scan selection over
    lists, integer arithmetic) but calls no minpath code, so no change to
    minpath changes it. Run just before and just after each job, its times
    give that job's speed factor; every time the benchmark reports is scaled
    by it, to the time on a host where the computation takes REF_NOMINAL_S.
    """

    def __init__(self):
        rng = random.Random(0)
        self.sparse = [[(rng.randrange(1000), rng.random()) for _ in range(4)] for _ in range(1000)]
        self.dense = [[(v, rng.random()) for v in rng.sample(range(70), 4)] for _ in range(70)]
        self.seconds: list[float] = []

    def _dijkstra_heap(self) -> None:
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in self.sparse[u]:
                if d + w < dist.get(v, float("inf")):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))

    def _dijkstra_scan(self) -> None:
        n = len(self.dense)
        dist = [float("inf")] * n
        dist[0] = 0.0
        done = [False] * n
        for _ in range(n):
            best = -1
            for v in range(n):
                if not done[v] and dist[v] < float("inf") and (best < 0 or dist[v] < dist[best]):
                    best = v
            if best < 0:
                return
            done[best] = True
            for v, w in self.dense[best]:
                if not done[v] and dist[best] + w < dist[v]:
                    dist[v] = dist[best] + w

    def _work(self) -> int:
        self._dijkstra_heap()
        for _ in range(8):
            self._dijkstra_scan()
        return sum(i * i % 7 for i in range(20000))

    def speed(self) -> float:
        """REF_NOMINAL_S over the median time of three runs of the computation."""
        times = []
        for _ in range(3):
            start = perf_counter()
            self._work()
            times.append(perf_counter() - start)
        self.seconds.append(statistics.median(times))
        return REF_NOMINAL_S / self.seconds[-1]


def scaled(metrics: dict, speed: float) -> dict:
    """Scale every time in ``metrics`` (units s, ms and s/...) by ``speed``."""
    return {
        name: (value * speed if unit in ("s", "ms") or unit.startswith("s/") else value, unit)
        for name, (value, unit) in metrics.items()
    }


def run_job(workload: Workload, seed: int, index: int, tracer, host: Host) -> JobRecord:
    """Generate job ``index``'s input, set it up, run the job, time the host and check the job."""
    inputs = workload.make_inputs(seed, index)
    traced = isinstance(tracer, Tracer)
    tracer.job = index
    start = perf_counter()
    with tracer.span("setup"):
        setup = workload.setup(inputs, tracer)
    setup_s = perf_counter() - start
    sizes = sum(len(text.encode()) for text in inputs.texts), sum(g.m for g in setup.graphs)
    if traced:
        before = tracer.fine["detour_first"][0], tracer.fine["detour_repeat"][0]
    speed_before = host.speed()
    start = perf_counter()
    try:
        with tracer.span("job"):
            out = workload.run_job(setup, inputs.source, tracer)
    except Exception as exc:  # a raising job counts as failed; the run goes on
        seconds = perf_counter() - start
        speed = (speed_before + host.speed()) / 2
        return JobRecord(None, setup_s, *sizes, seconds, speed, [f"job raised {exc!r}"], [], workload.outputs, None)
    seconds = perf_counter() - start
    speed = (speed_before + host.speed()) / 2
    if traced:  # read before the checks, whose folds query the same tables
        first_seen = tracer.fine["detour_first"][0] - before[0]
        detour = {"detour_keys": first_seen, "detour_queries": first_seen + tracer.fine["detour_repeat"][0] - before[1]}
    try:
        problems, known, failed = workload.check(setup, inputs.source, out)
    except Exception as exc:  # a malformed tree can make a check raise
        problems, known, failed = [f"check raised {exc!r}"], [], workload.outputs
    counts = workload.counts(setup, out)
    if traced:
        counts.update(detour)
    first = index == 0
    return JobRecord(inputs if first else None, setup_s, *sizes, seconds, speed, problems, known, failed, counts, out if first else None)


def same_counts(a: JobRecord, b: JobRecord) -> None:
    """Raise unless two runs of one input agree on every exact count."""
    if a.counts is None or b.counts is None:
        return
    for key in a.counts.keys() & b.counts.keys():
        if a.counts[key] != b.counts[key]:
            raise DeterminismError(f"{key} differs between two runs of one input: {a.counts[key]!r} != {b.counts[key]!r}")


def cli_parity(workload: Workload, job: JobRecord, directory: Path) -> tuple[float, list[str]]:
    """Run `minpath solve` in-process on job 0's input.

    Its stdout must equal the library's `format_tree` text byte for byte.
    Returns the CLI time and the mismatches found.
    """
    problems = []
    seconds = 0.0
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        files = []
        for i, text in enumerate(job.inputs.texts):
            files.append(Path(tmp) / f"graph{i}.txt")
            files[-1].write_text(text, encoding="utf-8")
        for index, args, expected in workload.cli_cases(job.inputs.source, job.out):
            argv = ["solve", "--graph", str(files[index]), *args]
            buffer = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            seconds += perf_counter() - start
            if code != 0 or buffer.getvalue() != expected:
                problems.append(f"CLI {' '.join(args)} exited {code} or differs from format_tree")
    return seconds, problems


def import_seconds(src: Path) -> float:
    """Time to `import minpath` in a fresh interpreter.

    Bytecode caching is on, as after an install; `measure` makes one
    import first to fill the cache.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import minpath; print(time.perf_counter() - t)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(
        [sys.executable, "-c", code, str(src)], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile up to TAIL_PERCENTILE with at least ten jobs beyond it, and its rank.

    A run's job count follows the host's speed, and on a workload with a
    long tail the highest percentile with ten jobs beyond it rises with the
    count; capping it keeps the metric a fixed percentile whenever a run
    reaches 100 jobs.
    """
    ordered = sorted(times)
    if len(ordered) <= MIN_BEYOND_TAIL:
        raise ValueError(f"{len(ordered)} jobs are too few for a tail")
    i = min(len(ordered) - MIN_BEYOND_TAIL, -(-len(ordered) * TAIL_PERCENTILE // 100)) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def measure(workload: Workload, seed: int, seconds: float, traced: bool, src: Path, directory: Path) -> dict:
    """Run one workload for ``seconds`` and return its result record.

    Untraced runs give the end-to-end metrics. A traced run runs each job
    untraced and traced, in alternating order (same input, fresh set-up
    each), which gives the per-layer metrics and the tracing overhead. Job 0
    always runs a second time, and its exact counts must repeat.
    """
    plain = NullTracer()
    tracer = Tracer() if traced else None
    host = Host()
    jobs: list[JobRecord] = []
    twins: list[JobRecord] = []
    needed = COUNT_JOBS if traced else MIN_JOBS
    imports = [] if traced else [import_seconds(src)]  # the first fills the bytecode cache
    start = perf_counter()
    index = 0
    while index < needed or perf_counter() - start < seconds:
        # Import samples are spread over the run, like the jobs.
        if not traced and len(imports) <= IMPORT_SAMPLES * min(1.0, (perf_counter() - start) / seconds):
            imports.append(import_seconds(src))
        if traced:
            sides = [(plain, jobs), (tracer, twins)]
            if index % 2:
                sides.reverse()
            for side_tracer, into in sides:
                into.append(run_job(workload, seed, index, side_tracer, host))
            same_counts(jobs[-1], twins[-1])
        else:
            jobs.append(run_job(workload, seed, index, plain, host))
        if index >= COUNT_JOBS:  # so memory stays flat over a run
            for job in (jobs[-1], twins[-1]) if traced else (jobs[-1],):
                job.counts = None
        index += 1
    while not traced and len(imports) <= IMPORT_SAMPLES:
        imports.append(import_seconds(src))
    same_counts((twins if traced else jobs)[0], run_job(workload, seed, 0, Tracer() if traced else plain, host))
    if jobs[0].out is None:
        cli_s, parity = 0.0, ["CLI check skipped: the first job raised"]
    else:
        cli_s, parity = cli_parity(workload, jobs[0], directory)

    everything = jobs + twins
    problems = [p for j in everything for p in j.problems] + parity
    known = [p for j in everything for p in j.known]
    times = [j.seconds * j.speed for j in jobs]
    summary = f"{workload.name} seed={seed} trace={int(traced)}: {len(everything)} jobs, {len(known)} known misses, {len(problems)} problems"
    if traced:
        metrics = scaled(per_layer(jobs, twins, tracer, cli_s), statistics.median(j.speed for j in twins))
        metrics["host.ref_ms"] = (statistics.median(host.seconds) * 1000.0, "ms")
        tracer.write(directory / f"trace-{workload.name}-seed{seed}.jsonl")
    else:
        value, percentile = tail(times)
        beyond = sum(t > value for t in times)
        summary += f"; job_tail_ms is p{percentile:.2f}, {beyond} of {len(times)} jobs beyond it"
        metrics = {
            "jobs_per_s": (len(times) / sum(times), "1/s"),
            "job_p50_ms": (statistics.median(times) * 1000.0, "ms"),
            "job_tail_ms": (value * 1000.0, "ms"),
            "ok_frac": (1.0 - sum(j.failed_outputs for j in jobs) / (workload.outputs * len(jobs)), "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (
                statistics.median(imports[1:]) * statistics.median(j.speed for j in jobs)
                + statistics.median(j.setup_s * j.speed for j in jobs),
                "s",
            ),
        }
    return {
        "correct": not problems,
        "attempted": len(everything),
        "failed": sum(j.failed for j in everything),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        "summary": summary,
        "problems": problems,
        "known": known,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(plain: list[JobRecord], twins: list[JobRecord], tracer: Tracer, cli_s: float) -> dict:
    """Per-layer metrics: times from the traced jobs, exact counts from the first jobs."""
    jobs = len(twins)
    total = defaultdict(float)
    self_time = defaultdict(float)  # minus the extend calls made inside
    fine = defaultdict(float)
    setup_spans = defaultdict(lambda: defaultdict(float))
    for record in tracer.spans:
        name = record["name"]
        duration = record["end"] - record["start"]
        total[name] += duration
        self_time[name] += duration - fine_delta(record, "extend")[1]
        if name == "job":
            for kind in ("extend", "detour_first", "detour_repeat"):
                fine[kind] += fine_delta(record, kind)[1]
        elif name in ("graphs.parse", "paths.build"):
            setup_spans[name][record["job"]] += duration

    window_jobs = twins[:COUNT_JOBS]
    window = [j.counts for j in window_jobs if j.counts is not None]
    solves = [s[1:] for c in window for s in c["solves"] if s[1] != "sta"]

    def count(key):
        return sum(c.get(key, 0) for c in window)

    def solver_sum(field, algorithm=None):
        return sum(s[field] for s in solves if algorithm in (None, s[0]))

    queries, keys = count("detour_queries"), count("detour_keys")
    per_job = len(window)
    traced_s = sum(j.seconds * j.speed for j in twins)
    plain_s = sum(j.seconds * j.speed for j in plain)
    return {
        "graphs.parse_s": (statistics.median(setup_spans["graphs.parse"].values()), "s/setup"),
        "graphs.parse_bytes": (sum(j.parse_bytes for j in window_jobs) / len(window_jobs), "B/setup"),
        "graphs.roads": (sum(j.roads for j in window_jobs) / len(window_jobs), "count/setup"),
        "paths.build_s": (statistics.median(setup_spans["paths.build"].values()), "s/setup"),
        "paths.extend_s": (fine["extend"] / jobs, "s/job"),
        "paths.extend_self_s": ((fine["extend"] - fine["detour_first"] - fine["detour_repeat"]) / jobs, "s/job"),
        "paths.detour_queries": (queries / per_job, "count/job"),
        "paths.detour_keys": (keys / per_job, "count/job"),
        "paths.detour_repeat_ratio": (_ratio(queries - keys, queries), "ratio"),
        "paths.detour_first_s": (fine["detour_first"] / jobs, "s/job"),
        "paths.detour_repeat_s": (fine["detour_repeat"] / jobs, "s/job"),
        "engines.eda_s": (total["engines.eda"] / jobs, "s/job"),
        "engines.eda_self_s": (self_time["engines.eda"] / jobs, "s/job"),
        "engines.embfa_s": (total["engines.embfa"] / jobs, "s/job"),
        "engines.embfa_self_s": (self_time["engines.embfa"] / jobs, "s/job"),
        "engines.sta_s": (total["engines.sta"] / jobs, "s/job"),
        "engines.dijkstra_classic_s": (total["engines.dijkstra_classic"] / jobs, "s/job"),
        "engines.format_s": (total["engines.format"] / jobs, "s/job"),
        "engines.format_bytes": (count("format_bytes") / per_job, "B/job"),
        "engines.extend_calls": (solver_sum(3) / per_job, "count/job"),
        "engines.relaxations": (solver_sum(4) / per_job, "count/job"),
        "engines.rounds": (solver_sum(5) / per_job, "count/job"),
        "engines.relax_per_extend": (_ratio(solver_sum(4), solver_sum(3)), "ratio"),
        "engines.eda_budget_ratio": (_ratio(solver_sum(3, "eda"), solver_sum(6, "eda")), "ratio"),
        "engines.embfa_budget_ratio": (_ratio(solver_sum(3, "embfa"), solver_sum(6, "embfa")), "ratio"),
        "verify.oracle_s": (total["verify.oracle"] / jobs, "s/job"),
        "verify.enumerated_paths": (count("enumerated_paths") / per_job, "count/job"),
        "verify.check_property_s": (total["verify.check_property"] / jobs, "s/job"),
        "verify.check_wisp_s": (total["verify.check_wisp"] / jobs, "s/job"),
        "verify.compare_s": (total["verify.compare"] / jobs, "s/job"),
        "verify.oracle_mismatches": (count("oracle_mismatches") / per_job, "count/job"),
        "cli.solve_s": (cli_s, "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "frac"),
    }
