"""Drive the CLI in-process through main()."""
import csv
import json

import pytest

from slimabc import SimConfig, cli, key_setup, sim_run
from slimabc.config import scenario_dict
from slimabc.simnet import TRACE_FORMAT


def write_scenario(tmp_path, name="scn.json", **kw):
    d = dict(n=4, f=1, seed=0, instances=2, policy="fifo")
    d.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(scenario_dict(SimConfig(**d))))
    return str(path)


def test_run_writes_report(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] and rep["finalized_instances"] == 2
    # without --out the report lands on stdout
    assert cli.main(["run", "--scenario", scn, "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_run_overrides_reach_the_report(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(["run", "--scenario", scn, "--out", str(out), "--seed", "5",
                     "--policy", "random", "--instances", "1"]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["seed"], config["policy"], config["instances"]) == (5, "random", 1)
    assert cli.main(["run", "--scenario", scn, "--policy", "nope"]) == 2
    assert "unknown policy 'nope'" in capsys.readouterr().err


def test_run_stopped_short_exits_1_with_its_report(tmp_path, capsys):
    scn = write_scenario(tmp_path, max_steps=10)
    out = tmp_path / "report.json"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["stalled"] and not rep["ok"] and rep["steps"] == 10
    assert rep["failures"][0].startswith("totality: ")
    assert capsys.readouterr().err == f"run failed: {'; '.join(rep['failures'])}\n"


def test_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "nope"}))
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    assert cli.main(["run", "--scenario", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"n": 4, "f": 1, "policy": "\xe9"}')
    for command in ("run", "check"):
        assert cli.main([command, "--scenario", str(undecodable)]) == 2
        assert "cannot read scenario" in capsys.readouterr().err
    scn = write_scenario(tmp_path, "params.json", policy_params={"fairness_bound": "x"})
    assert cli.main(["run", "--scenario", scn]) == 2
    assert "fairness_bound" in capsys.readouterr().err


def test_run_rejects_unknown_policy_params_keys(tmp_path, capsys):
    scn = write_scenario(tmp_path, policy="adversarial-delay",
                         policy_params={"fairness_bnd": 2, "budgett": 5})
    assert cli.main(["run", "--scenario", scn]) == 2
    assert "unknown policy_params key 'fairness_bnd'" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"f": "1"},
    {"instances": "2"},
    {"overlap": "x"},
    {"byzantine": [{"party": 0, "kind": "crash", "at_step": "x"}]},
    {"policy_params": []},
    {"seed": "abc"},
    {"request_size": 1.5},
    {"max_steps": 2.5},
])
def test_run_rejects_mistyped_scenario_fields(tmp_path, capsys, change):
    d = scenario_dict(SimConfig(n=4, f=1, instances=1))
    d.update(change)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(d))
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("security_param", [-1, 2**32])
def test_run_rejects_security_param_out_of_range(tmp_path, capsys, security_param):
    d = scenario_dict(SimConfig(n=4, f=1, instances=1))
    d["security_param"] = security_param
    path = tmp_path / "sec.json"
    path.write_text(json.dumps(d))
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert "security_param" in capsys.readouterr().err
    with pytest.raises(ValueError):  # the provider refuses it on its own, too
        key_setup(security_param, 4, 0)


def test_check_counts_properties(tmp_path, capsys):
    scn = write_scenario(tmp_path, instances=1)
    assert cli.main(["check", "--scenario", scn, "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "OK 3 seeds" in out
    assert "totality: 3/3" in out


def test_check_names_the_first_failing_seed(tmp_path, capsys):
    scn = write_scenario(tmp_path, instances=1, seed=4, max_steps=10)
    assert cli.main(["check", "--scenario", scn, "--seeds", "2"]) == 1
    out = capsys.readouterr().out
    assert "totality: 0/2" in out and "OK" not in out
    assert out.splitlines()[-1].startswith("FAIL first at seed 4: totality: ")


def test_sweep_exits_1_at_a_failing_point(tmp_path, capsys):
    scn = write_scenario(tmp_path, instances=1, max_steps=10)
    csv_path = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--scenario", scn, "--n-list", "4,7", "--seeds", "2",
                     "--csv", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "run n=4 seed=0 failed\n"
    assert captured.out == "" and not csv_path.exists()  # no summary, no rows


@pytest.mark.parametrize("text, message", [
    (json.dumps(dict(scenario_dict(SimConfig(n=4, f=1)), byzantine={"party": 0})),
     "byzantine must be a list"),
    (json.dumps(dict(scenario_dict(SimConfig(n=4, f=1)), steps=5)), "bad scenario fields"),
    (json.dumps([scenario_dict(SimConfig(n=4, f=1))]), "must be a JSON object"),
])
def test_run_rejects_malformed_scenario_shapes(tmp_path, capsys, text, message):
    path = tmp_path / "shape.json"
    path.write_text(text)
    assert cli.main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_sweep_summary_and_csv(tmp_path, capsys):
    scn = write_scenario(tmp_path, instances=1)
    csv_path = tmp_path / "rows.csv"
    rc = cli.main(["sweep", "--scenario", scn, "--n-list", "4,7",
                   "--l-list", "32,320", "--seeds", "2", "--csv", str(csv_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_list"] == [4, 7]
    assert "message_exponent_vs_n" in summary
    assert summary["message_c_quadratic"] > 0
    assert summary["message_c_max_run"] > 0
    assert summary["l_list"] == [32, 320]
    assert len(summary["mean_bytes_vs_l"]) == 2
    assert summary["bytes_exponent_vs_l"] > 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 n-values x 2 seeds + 2 l-values x 2 seeds
    assert len(rows) == 8
    assert {r["n"] for r in rows} == {"4", "7"}


def test_sweep_rejects_bad_n(tmp_path):
    assert cli.main(["sweep", "--n-list", "5"]) == 2
    assert cli.main(["sweep", "--n-list", "4,oops"]) == 2


def test_check_rejects_no_seeds(tmp_path, capsys):
    scn = write_scenario(tmp_path, instances=1)
    for seeds in ("0", "-3"):
        assert cli.main(["check", "--scenario", scn, "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert "OK" not in captured.out and "--seeds" in captured.err


def test_sweep_rejects_no_seeds(capsys):
    assert cli.main(["sweep", "--n-list", "4", "--seeds", "0"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_sweep_rejects_empty_n_list(capsys):
    assert cli.main(["sweep", "--n-list", ""]) == 2
    assert "--n-list" in capsys.readouterr().err


def test_sweep_rejects_a_single_l_value(capsys):
    assert cli.main(["sweep", "--n-list", "4", "--l-list", "32", "--seeds", "1"]) == 2
    assert "--l-list" in capsys.readouterr().err
    assert cli.main(["sweep", "--n-list", "4,4", "--seeds", "1"]) == 2  # no spread to fit


def test_replay_roundtrip_and_divergence(tmp_path, capsys):
    scn = write_scenario(tmp_path, instances=1, policy="random", seed=11)
    trace = tmp_path / "run.trace"
    assert cli.main(["run", "--scenario", scn, "--trace", str(trace),
                     "--out", str(tmp_path / "r.json")]) == 0
    assert cli.main(["replay", "--trace", str(trace)]) == 0
    assert "replay OK" in capsys.readouterr().out

    lines = trace.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["src"] = (rec["src"] + 1) % 4
    lines[3] = json.dumps(rec)
    trace.write_text("\n".join(lines) + "\n")
    assert cli.main(["replay", "--trace", str(trace)]) == 1
    assert "diverged" in capsys.readouterr().out


def test_sweep_keeps_scenario_policy_params_and_security_param(tmp_path, capsys):
    base = dict(n=4, f=1, seed=5, instances=1, policy="random",
                policy_params={"fairness_bound": 3}, security_param=256)
    scn = write_scenario(tmp_path, **base)
    csv_path = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--scenario", scn, "--n-list", "4", "--l-list", "64,128",
                     "--seeds", "2", "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    l_rows = [r for r in rows if int(r["batch_bytes"]) in (4 * 64, 4 * 128)]
    assert len(l_rows) == 4
    for row in l_rows:
        cfg = SimConfig(**dict(base, seed=int(row["seed"]),
                               request_size=int(row["batch_bytes"]) // 4))
        rep = sim_run(cfg)
        got = tuple(int(row[k]) for k in ("messages", "bytes", "steps"))
        assert got == (rep.messages, rep.bytes, rep.steps)


def _truncate_last_line(lines):
    lines[-1] = lines[-1][: len(lines[-1]) // 2]


def _list_header(lines):
    lines[0] = "[1]"


def _header_without_config(lines):
    lines[0] = json.dumps({"format": TRACE_FORMAT})


@pytest.mark.parametrize("damage", [_truncate_last_line, _list_header, _header_without_config])
def test_replay_rejects_malformed_trace(tmp_path, capsys, damage):
    scn = write_scenario(tmp_path, instances=1)
    trace = tmp_path / "run.trace"
    assert cli.main(["run", "--scenario", scn, "--trace", str(trace),
                     "--out", str(tmp_path / "r.json")]) == 0
    lines = trace.read_text().splitlines()
    damage(lines)
    trace.write_text("\n".join(lines) + "\n")
    assert cli.main(["replay", "--trace", str(trace)]) == 2
    assert "config error" in capsys.readouterr().err
