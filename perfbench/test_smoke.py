"""Smoke test of the benchmark: every workload, at a tiny size, reports every
metric BENCHMARK.json names, with its unit, and all its checks pass.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)


def check_result(result, declared, printed):
    assert result["correct"], printed
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert m["name"] in printed


def test_declared_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics(name, capsys):
    wl = workloads.WORKLOADS[name]
    metrics, extra, attempted, failed, problems = measure.end_to_end(
        wl, seed=1, seconds=0, tiny=True, probes=1)
    declared = SPEC["end_to_end"]
    result = run.emit({**metrics, **extra}, [m["name"] for m in declared],
                      attempted, failed, problems)
    check_result(result, declared, capsys.readouterr().out)
    # end-to-end metrics are never 0, so a relative bound is always defined
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_per_layer_metrics(name, capsys, tmp_path):
    wl = workloads.WORKLOADS[name]
    metrics, attempted, failed, problems, spans = measure.traced(
        wl, seed=1, tiny=True, out_dir=tmp_path)
    declared = SPEC["per_layer"]
    result = run.emit(metrics, [m["name"] for m in declared], attempted, failed, problems)
    check_result(result, declared, capsys.readouterr().out)
    assert spans > 0 and any(tmp_path.glob("*-spans.npz"))
    # Declared busy times are those of layers every workload enters.
    for m in declared:
        if m["unit"] == "s":
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_counters_reproduce_the_baseline():
    assert measure.baseline_crosscheck() == []


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, printing no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
