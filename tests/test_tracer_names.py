"""The benchmark's tracer wraps program methods by name; every name must exist.

`perfbench/tracer.py` replaces methods of the program's classes with timing
wrappers and puts the originals back.  Installing it here makes a renamed or
deleted traced method fail this suite, not only the benchmark's smoke test.
"""
import importlib
from pathlib import Path

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
