"""Drive the CLI in-process through main()."""
import csv
import json

from slimabc import SimConfig, cli, sim_run
from slimabc.simnet import scenario_dict


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


def test_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "nope"}))
    assert cli.main(["run", "--scenario", str(bad)]) == 2
    assert cli.main(["run", "--scenario", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err
    scn = write_scenario(tmp_path, "params.json", policy_params={"fairness_bound": "x"})
    assert cli.main(["run", "--scenario", scn]) == 2
    assert "fairness_bound" in capsys.readouterr().err


def test_check_counts_properties(tmp_path, capsys):
    scn = write_scenario(tmp_path, instances=1)
    assert cli.main(["check", "--scenario", scn, "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "OK 3 seeds" in out
    assert "totality: 3/3" in out


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
