"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1:11 [--workload NAME]... [--trace 0|1]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, with
``run_seconds`` from BENCHMARK.json, and prints one JSON object per
workload with its jobs attempted and failed, each metric's median,
quartiles and spread (the distance between the quartiles as a share of
the median), and each end-to-end metric's bound beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1:11", help="LO:HI, half-open")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(":"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        units = {}
        attempted = failed = 0
        for seed in range(lo, hi):
            command = [
                sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect", file=sys.stderr)
                return 1
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        report = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
            entry = {"unit": units[name], "median": median, "q1": q1, "q3": q3, "values": series}
            entry["spread"] = (q3 - q1) / median if median else 0.0
            if name in bounds:
                entry["bound"] = bounds[name]
            report[name] = entry
        print(json.dumps({
            "workload": workload, "seeds": f"{lo}:{hi}", "trace": args.trace,
            "attempted": attempted, "failed": failed, "metrics": report,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
