"""Benchmark of the slimabc simulator: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload wide-n31 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the program from
`src/`.  Load comes from one process on one thread, in a closed loop: each
simulation starts when the previous one returns, as `slimabc check` does.

With `--trace 0` it runs the workload for `--seconds` (and at least the
workload's minimum number of runs), checks every run's properties, and
reports the end-to-end metrics.  With `--trace 1` it runs a fixed set of
the workload's jobs twice, untraced and traced, checks that both reports
are byte-identical, and reports the per-layer metrics of the traced runs;
it also re-checks the tracer's counters against a known baseline run.

Every metric is printed with its unit first; the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
holding the metrics BENCHMARK.json declares for the mode.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Put the checkout's `src/` first on the path and import slimabc from it."""
    if not (SRC / "slimabc" / "__init__.py").is_file():
        raise ProgramMissing(f"no slimabc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import slimabc

    if SRC not in Path(slimabc.__file__).resolve().parents:
        raise ProgramMissing(f"slimabc was imported from {slimabc.__file__}, not {SRC}")


def declared_metrics(kind: str) -> List[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def emit(lines: Dict[str, tuple], result_names: List[str], attempted: int,
         failed: int, problems: List[str]) -> dict:
    """Print every metric with its unit; return the result object for `result_names`."""
    for p in problems[:20]:
        print(f"  FAILED {p}")
    for name, (value, unit) in lines.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": lines[n][0], "unit": lines[n][1]} for n in result_names},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    import measure
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        measure.probe_setup(wl, args.seed)
        return 0
    print(f"workload {wl.name} seed {args.seed}: {wl.config}")
    print(f"  why: {wl.why}")
    print(f"  stresses: {', '.join(wl.stresses)}")
    if args.trace:
        metrics, attempted, failed, problems, spans = measure.traced(wl, args.seed)
        print(f"  traced {wl.trace_runs} runs; {spans} spans written to {measure.OUT_DIR}")
        names = declared_metrics("per_layer")
    else:
        metrics, extra, attempted, failed, problems = measure.end_to_end(
            wl, args.seed, args.seconds)
        metrics = {**metrics, **extra}
        names = declared_metrics("end_to_end")
    result = emit(metrics, names, attempted, failed, problems)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
