"""The benchmark's baseline cross-check runs in this suite too.

`perfbench/measure.py` traces one fixed run (n=13, random policy, seed 0)
and compares its share and signature verification counts with pinned
values.  Running it here makes a change that moves one of those counts
fail this suite, not only the benchmark's smoke test.
"""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_baseline_crosscheck_reproduces_pinned_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    assert measure.baseline_crosscheck() == []
