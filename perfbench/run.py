"""minpath benchmark: one workload, closed loop, each layer timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload detour-source --seed 1 --seconds 20 --trace 0

The benchmark imports minpath from ``src/`` of the same checkout and calls
only its public functions. It generates its inputs from ``--seed``, runs
jobs for ``--seconds`` seconds, checks every output, and prints a summary
line and then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts the
jobs that raised or broke a check; a known criterion-3 embfa miss (an
instance whose minima are not weakly inherited) lowers ``ok_frac``
instead and is listed on stderr. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, and the spans are written to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``. Every time it reports
is scaled to a nominal host speed, measured just before and just after
each job by a fixed computation of the benchmark's own (``harness.Host``);
``host.ref_ms`` in the traced output gives the raw speed. The workloads, their
parameters and the seed commit's numbers are in ``perfbench/baseline.json``.

Exit codes: 0 with a result, 2 when the minpath sources are missing, 3 when
an exact count differs between two runs of the same inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "minpath"
    if not (package / "__init__.py").is_file():
        print(f"error: no minpath sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import minpath

    if Path(minpath.__file__).resolve().parent != package.resolve():
        print(f"error: imported minpath from {minpath.__file__}, not {package}", file=sys.stderr)
        return 2

    from harness import DeterminismError, measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), SRC, OUT)
    except DeterminismError as exc:
        print(f"error: exact counts are not deterministic: {exc}", file=sys.stderr)
        return 3
    for kind in ("problems", "known"):
        for line in result[kind][:5]:
            print(line, file=sys.stderr)
    print(result["summary"])
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
