"""The benchmark's pinned counts run in this suite too.

`perfbench/measure.py` traces one fixed run (n=13, random policy, seed 0)
and compares its share and signature verification counts with pinned
values.  Running it here makes a change that moves one of those counts
fail this suite, not only the benchmark's smoke test.

The second test traces the tiny jobs of every workload and pins one digest
over every per-layer metric that is not a time: call counts, entries,
bytes and ratios.  A speed change must leave each of them as it was.
"""
import hashlib
import importlib
import itertools
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of the canonical JSON of {workload: {metric: value}}, seed 7.
TRACED_COUNTS_DIGEST = "94cdf9c98e8fa5c8933c90953e89e0fd14fd4847418d59096ca68c3a0643c770"
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
