"""The benchmark's pinned counts run in this suite too.

`perfbench/measure.py` traces one fixed run (n=13, random policy, seed 0)
and compares its share and signature verification counts with pinned
values.  Running it here makes a change that moves one of those counts
fail this suite, not only the benchmark's smoke test.

The second test traces the tiny jobs of every workload and pins one digest
over every per-layer metric that is not a time: call counts, entries,
bytes and ratios.  A change re-pins it only by re-deriving each metric it
moves: it names the metrics that moved, counts at the parent the calls it
removes, and shows that each new value is the old one less that count.
"""
import hashlib
import importlib
import itertools
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of the canonical JSON of {workload: {metric: value}}, seed 7.  Last
# moved when a slot holding its pair stopped checking recovery answers: the
# 18 such answers of abba-harness made its verify_signature calls 91 -> 73
# and record_pair calls 30 -> 12; the two ratios moved with them.
TRACED_COUNTS_DIGEST = "3e808d735a3032963f5fcb76da4005ebbce420cba456ff705aa6de7a359e843d"
TIMES = ("simnet.us_per_step", "trace.overhead_ratio")


def test_baseline_crosscheck_reproduces_pinned_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    assert measure.baseline_crosscheck() == []


def traced_counts(measure, workloads, tracer_mod, speed, seed: int) -> dict:
    counts = {}
    gauge = speed.SpeedGauge()
    for name, wl in workloads.WORKLOADS.items():
        tracer = tracer_mod.Tracer()
        outcomes = []
        for job in itertools.islice(wl.jobs(seed, True), wl.tiny_runs):
            plain, traced, wire, chosen = measure.traced_pair(gauge, tracer, job)
            assert measure.check_pair(job, plain, traced, wire, chosen) == [], name
            outcomes.append(traced)
        metrics = measure.layer_metrics(tracer, outcomes, 1.0, 1, 1.0)
        counts[name] = {k: v for k, (v, _unit) in metrics.items()
                        if not k.endswith(".s") and k not in TIMES}
    return counts


def test_traced_counts_of_every_workload_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    workloads = importlib.import_module("workloads")
    tracer_mod = importlib.import_module("tracer")
    speed = importlib.import_module("speed")
    counts = traced_counts(measure, workloads, tracer_mod, speed, seed=7)
    assert counts["wide-n31"]["protocol.handle.calls"] > 0
    assert counts["abba-harness"]["simnet.harness.calls"] > 0
    blob = json.dumps(counts, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == TRACED_COUNTS_DIGEST, counts
