"""The benchmark's tracer wraps program methods by name; every name must exist.

`perfbench/tracer.py` replaces methods of the program's classes with timing
wrappers and puts the originals back.  Installing it here makes a renamed or
deleted traced method fail this suite, not only the benchmark's smoke test.
"""
import importlib
from pathlib import Path

from slimabc import BehaviorSpec, abba_harness_run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_every_traced_method(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    try:
        t.install()  # raises KeyError on a traced name the program lacks
        patched = list(t._patches)
        assert patched
        for cls, attr, orig in patched:
            assert cls.__dict__[attr] is not orig, (cls.__name__, attr)
    finally:
        t.uninstall()
    for cls, attr, orig in patched:
        assert cls.__dict__[attr] is orig, (cls.__name__, attr)
    wrapped = {(cls.__name__, attr) for cls, attr, _ in patched}
    assert {("AbbaMachine", "on_prevote"), ("AbbaMachine", "on_mainvote"),
            ("CsState", "on_share"), ("PpbSender", "on_share")} <= wrapped


def test_tracer_counts_each_harness_envelope_once(monkeypatch):
    """Harness parties run on `Party`'s delivery loop but keep their own entry
    points: traced, each handled envelope is counted once, under the harness
    names, and the result is the untraced one."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    args = (7, 2, 4, [1, 0, 1, 1, 0, 0, 1])
    byz = (BehaviorSpec(6, "random-votes"),)
    plain = abba_harness_run(*args, byzantine=byz)
    t = tracer.Tracer()
    with t.installed():
        t.begin_run(range(6))
        traced = abba_harness_run(*args, byzantine=byz)
    assert traced == plain and not plain["stalled"]
    assert t.calls_of("protocol.begin", "protocol.handle") == 0
    assert t.calls_of("simnet.harness.begin") == 7
    assert t.calls_of("simnet.harness.handle") == plain["steps"]  # nobody crashes
    assert t.counts["messages.envelopes"] == plain["messages"]
    assert t.calls_of("messages.size") == 0  # the harness counts no bytes
