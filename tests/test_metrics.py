"""Report serialization, duplicate accounting, and the log-log fit."""
import csv
import math
import os
import random
import subprocess
import sys

import pytest

import slimabc
from slimabc import RunReport, duplicate_ratio, scaling_fit
from slimabc.metrics import write_csv


def test_duplicate_ratio_edges():
    assert duplicate_ratio([]) == 0.0
    assert duplicate_ratio([[], []]) == 0.0
    assert duplicate_ratio([[b"a", b"b"], [b"c"]]) == 0.0
    assert duplicate_ratio([[b"x", b"x"], [b"x", b"x"]]) == pytest.approx(0.75)
    # half the requests shared between the two batches
    assert duplicate_ratio([[b"a", b"b"], [b"a", b"b"]]) == pytest.approx(0.5)


def test_scaling_fit_recovers_exponent():
    xs = [4, 7, 10, 13]
    for k in (1.0, 2.0, 0.5):
        ys = [3.7 * x ** k for x in xs]
        assert scaling_fit(xs, ys) == pytest.approx(k, abs=1e-9)


def test_scaling_fit_noisy_quadratic():
    xs = [4.0, 7.0, 10.0, 13.0]
    ys = [x ** 2 * (1 + 0.05 * math.sin(x)) for x in xs]
    assert 1.9 < scaling_fit(xs, ys) < 2.1


def test_scaling_fit_needs_two_points():
    with pytest.raises(ValueError):
        scaling_fit([4], [16])
    with pytest.raises(ValueError):
        scaling_fit([4, 7], [16])
    with pytest.raises(ValueError):  # no spread in x: the slope is undefined
        scaling_fit([7, 7], [16, 20])


def test_scaling_fit_matches_polyfit():
    np = pytest.importorskip("numpy")
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randrange(2, 12)
        xs = [rng.uniform(0.5, 5000.0) for _ in range(k)]
        ys = [rng.uniform(1e-3, 1e7) for _ in range(k)]
        ref = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
        assert scaling_fit(xs, ys) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(slimabc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, slimabc; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def make_report(**kw):
    d = dict(config={"n": 4}, stalled=False, steps=10, messages=5, bytes=100,
             finalized_instances=1, phases={1: 4}, rounds={"1:0": 1},
             decisions={"1:0": 1}, duplicate_ratios={1: 0.0}, delivered_total=4,
             log_digest="ab" * 32, lemma=[], censorship=None,
             assertions={"totality": True})
    d.update(kw)
    return RunReport(**d)


def test_report_ok_logic():
    assert make_report().ok
    assert not make_report(stalled=True).ok
    assert not make_report(assertions={"totality": False}).ok


def test_report_json_stable_and_sorted():
    rep = make_report(phases={2: 5, 1: 4}, assertions={"b": True, "a": True})
    s = rep.to_json()
    assert s == make_report(phases={1: 4, 2: 5},
                            assertions={"a": True, "b": True}).to_json()
    assert s.index('"a"') < s.index('"b"')
    d = rep.to_dict()
    assert d["ok"] is True
    assert list(d["phases"]) == ["1", "2"]


def test_write_csv(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(str(path), [{"n": 4, "messages": 9}, {"n": 7, "messages": 30}])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{"n": "4", "messages": "9"}, {"n": "7", "messages": "30"}]
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "empty.csv"), [])
