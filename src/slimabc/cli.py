"""Command-line front end: run, sweep, check, replay, grid, diff.

Exit codes: 0 success, 1 a run stalled or a property assertion failed
(the report is still written) or `diff` found a report field outside
`--allow` that differs, 2 configuration problems.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from typing import List, Optional

from .config import ConfigError, SimConfig, load_scenario
from .grid import diff_runs, read_runs, write_grid
from .metrics import RunReport, scaling_fit, write_csv
from .simnet import replay_trace, sim_run

def _apply_overrides(cfg: SimConfig, args: argparse.Namespace) -> SimConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    if args.policy is not None:
        cfg.policy = args.policy
    if args.instances is not None:
        cfg.instances = args.instances
    cfg.validate()
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_scenario(args.scenario), args)
    report = sim_run(cfg, trace_path=args.trace)
    payload = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if not report.ok:
        print(f"run failed: {'; '.join(report.failures) or 'stalled'}", file=sys.stderr)
        return 1
    return 0


def _check_seeds(seeds: int) -> None:
    if seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {seeds}")


def cmd_check(args: argparse.Namespace) -> int:
    _check_seeds(args.seeds)
    cfg = load_scenario(args.scenario)
    base_seed = cfg.seed
    failed: List[tuple] = []
    counts: dict = {}
    for k in range(args.seeds):
        cfg.seed = base_seed + k
        report = sim_run(cfg)
        for name, ok in report.assertions.items():
            passed, total = counts.get(name, (0, 0))
            counts[name] = (passed + (1 if ok else 0), total + 1)
        if not report.ok:
            failed.append((cfg.seed, report.failures or ["stalled"]))
    for name in sorted(counts):
        passed, total = counts[name]
        print(f"{name}: {passed}/{total}")
    if failed:
        seed, reasons = failed[0]
        print(f"FAIL first at seed {seed}: {reasons[0]}")
        return 1
    print(f"OK {args.seeds} seeds")
    return 0


def _parse_int_list(option: str, text: str, least: int) -> List[int]:
    """Distinct integers, at least `least` of them, from a comma-separated list."""
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"bad integer list {text!r}") from e
    if len(values) < least:
        raise ConfigError(f"{option} needs at least {least} value(s), got {text!r}")
    if len(set(values)) != len(values):
        raise ConfigError(f"{option} repeats a value: {text!r}")
    return values


def _sweep_point(base: SimConfig, seeds: int, rows: List[dict], label: str,
                 **changes) -> Optional[List[RunReport]]:
    """Run one sweep point on `seeds` seeds, appending a CSV row per run;
    None, with a message on stderr, as soon as a run fails."""
    reports = []
    for k in range(seeds):
        cfg = dataclasses.replace(base, seed=base.seed + k, byzantine=(), **changes)
        report = sim_run(cfg)
        if not report.ok:
            print(f"run {label} seed={cfg.seed} failed", file=sys.stderr)
            return None
        reports.append(report)
        rows.append({
            "n": cfg.n, "f": cfg.f, "seed": cfg.seed,
            "batch_bytes": cfg.batch_size * cfg.request_size,
            "messages": report.messages, "bytes": report.bytes,
            "steps": report.steps,
        })
    return reports


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_seeds(args.seeds)
    ns = _parse_int_list("--n-list", args.n_list, 1)
    ls = _parse_int_list("--l-list", args.l_list, 2) if args.l_list else []
    base = load_scenario(args.scenario) if args.scenario else SimConfig(n=4, f=1)
    rows: List[dict] = []
    mean_messages = []
    mean_bytes = []
    for n in ns:
        f = (n - 1) // 3
        if n != 3 * f + 1 or f < 1:
            raise ConfigError(f"n={n} is not 3f+1")
        reports = _sweep_point(base, args.seeds, rows, f"n={n}", n=n, f=f)
        if reports is None:
            return 1
        mean_messages.append(statistics.fmean(r.messages for r in reports))
        mean_bytes.append(statistics.fmean(r.bytes for r in reports))
    summary = {"n_list": ns, "mean_messages": mean_messages, "mean_bytes": mean_bytes}
    if len(ns) >= 2:
        summary["message_exponent_vs_n"] = scaling_fit(ns, mean_messages)
    # Least-squares c for messages = c*n^2 over the means, padded 25% so it is
    # a per-run bound claim, not a trend line; the max observed ratio ships too.
    ls_c = sum(m * n * n for n, m in zip(ns, mean_messages)) / sum(n ** 4 for n in ns)
    summary["message_c_quadratic"] = round(1.25 * ls_c, 4)
    summary["message_c_max_run"] = round(
        max(r["messages"] / (r["n"] ** 2) for r in rows), 4
    )
    if ls:
        n = ns[-1]
        f = (n - 1) // 3
        per_l = []
        for l in ls:
            reports = _sweep_point(base, args.seeds, rows, f"n={n} l={l}",
                                   n=n, f=f, request_size=l)
            if reports is None:
                return 1
            per_l.append(statistics.fmean(r.bytes for r in reports))
        summary["l_list"] = ls
        summary["mean_bytes_vs_l"] = per_l
        summary["bytes_exponent_vs_l"] = scaling_fit(
            [base.batch_size * l for l in ls], per_l
        )
    if args.csv:
        write_csv(args.csv, rows)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    ok, step, detail = replay_trace(args.trace)
    if ok:
        print("replay OK")
        return 0
    print(f"replay diverged at step {step}: {detail}")
    return 1


def cmd_grid(args: argparse.Namespace) -> int:
    runs = write_grid(args.out)
    print(f"wrote {runs} runs to {args.out}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    try:
        lines, ok = diff_runs(read_runs(args.a), read_runs(args.b), args.allow)
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"not a grid file: {e!r}") from e
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimabc",
        description="committee-based asynchronous atomic broadcast under a "
                    "deterministic adversarial network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and print its report")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--policy")
    p_run.add_argument("--instances", type=int)
    p_run.add_argument("--out", help="write the JSON report here instead of stdout")
    p_run.add_argument("--trace", help="write a step-by-step replay trace (JSONL)")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="run a scenario across seeds, report per-property")
    p_check.add_argument("--scenario", required=True)
    p_check.add_argument("--seeds", type=int, default=10)
    p_check.set_defaults(fn=cmd_check)

    p_sweep = sub.add_parser("sweep", help="scaling sweep over n (and optionally payload size)")
    p_sweep.add_argument("--scenario", help="base parameters (defaults: n=4 fifo honest)")
    p_sweep.add_argument("--n-list", default="4,7,10,13")
    p_sweep.add_argument("--l-list", help="request sizes for the payload scaling fit")
    p_sweep.add_argument("--seeds", type=int, default=3)
    p_sweep.add_argument("--csv", help="write per-run rows to this CSV file")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_rep = sub.add_parser("replay", help="re-execute a trace and verify it matches")
    p_rep.add_argument("--trace", required=True)
    p_rep.set_defaults(fn=cmd_replay)

    p_grid = sub.add_parser("grid", help="run the acceptance grid, one {config, report} "
                                         "JSON line per run")
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(fn=cmd_grid)

    p_diff = sub.add_parser("diff", help="name the report fields that differ between two "
                                         "grid files, run by run; exit 1 on a field not "
                                         "allowed to move")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.add_argument("--allow", nargs="+", action="extend", default=[], metavar="FIELD")
    p_diff.set_defaults(fn=cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
