"""The acceptance grid and the report diff.

The grid is 612 runs: every fair policy against every fault class at
n = 4, 7 and 10, 17 seeds a cell, with exactly f faulty parties whose crash
times are staggered across seeds.  `tests/test_acceptance.py` pins its
reports; `slimabc grid --out PATH` writes them, one `{config, report}` JSON
line per run, and `slimabc diff A B` says which report field of which run
differs between two such files, so a change that should move one field can
show that it moved only that one.
"""
from __future__ import annotations

import itertools
import json
from typing import Iterator, List, Sequence, Tuple

from .config import BehaviorSpec, SimConfig, scenario_dict
from .metrics import RunReport
from .simnet import sim_run

GRID = ((4, 1), (7, 2), (10, 3))
FAIR_POLICIES = ("fifo", "random", "adversarial-delay")
FAULTS = ("honest", "crash", "equivocate-ppb", "corrupt-shares")
SEEDS_PER_CELL = 17  # 12 cells x 17 seeds = 204 >= 200 runs per (n, f)


def grid_config(n: int, f: int, seed: int, policy: str, fault: str) -> SimConfig:
    """One grid-style run: f parties with behavior `fault` ("honest" for
    none), crashing at a step that moves with the seed."""
    byz = ()
    if fault != "honest":
        byz = tuple(BehaviorSpec(p, fault, at_step=(seed * 7) % 40) for p in range(f))
    return SimConfig(n=n, f=f, seed=seed, instances=1, policy=policy,
                     pool_size=16, batch_size=8, request_size=32, byzantine=byz)


def grid_runs() -> Iterator[Tuple[SimConfig, str, RunReport]]:
    """(config, fault, report) of each grid run, in grid order."""
    for (n, f), fault, policy in itertools.product(GRID, FAULTS, FAIR_POLICIES):
        for seed in range(SEEDS_PER_CELL):
            cfg = grid_config(n, f, seed, policy, fault)
            yield cfg, fault, sim_run(cfg)


def write_grid(path: str) -> int:
    """Write one `{config, report}` line per grid run; the number of runs."""
    runs = 0
    with open(path, "w") as fh:
        for cfg, _, report in grid_runs():
            line = {"config": scenario_dict(cfg), "report": report.to_dict()}
            fh.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
            runs += 1
    return runs


def read_runs(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_label(i: int, config: dict) -> str:
    kinds = sorted({b["kind"] for b in config.get("byzantine", [])}) or ["honest"]
    return (f"run {i} (n={config.get('n')} seed={config.get('seed')} "
            f"{config.get('policy')} {'+'.join(kinds)})")


def _is_int(v) -> bool:
    return type(v) is int


def diff_runs(a: Sequence[dict], b: Sequence[dict], allow=()) -> Tuple[List[str], bool]:
    """The lines that describe how the reports of run list `b` differ from
    `a`'s, field by field, and whether every field that differs is in
    `allow` (false too when the two run lists differ)."""
    configs_a, configs_b = [r["config"] for r in a], [r["config"] for r in b]
    if configs_a != configs_b:
        first = next((i for i, (x, y) in enumerate(zip(configs_a, configs_b)) if x != y),
                     min(len(a), len(b)))
        return [f"run lists differ: {len(a)} runs against {len(b)}, first difference at "
                f"run {first}"], False
    lines, ok = [], True
    fields = sorted({name for r in (*a, *b) for name in r["report"]})
    for name in fields:
        moved = [(i, ra["report"].get(name), rb["report"].get(name))
                 for i, (ra, rb) in enumerate(zip(a, b))
                 if ra["report"].get(name) != rb["report"].get(name)]
        if not moved:
            continue
        allowed = name in allow
        ok = ok and allowed
        head = f"{name}: {len(moved)} of {len(a)} runs differ"
        deltas = [y - x for _, x, y in moved if _is_int(x) and _is_int(y)]
        if len(deltas) == len(moved):
            head += f", delta {min(deltas):+d} .. {max(deltas):+d}"
        totals = [[r["report"].get(name) for r in runs] for runs in (a, b)]
        if all(_is_int(v) for values in totals for v in values):
            ta, tb = sum(totals[0]), sum(totals[1])
            head += f", total {ta} -> {tb} ({f'{tb / ta:.4f}' if ta else '-'})"
        lines.append(head + ("" if allowed else " (not allowed)"))
        for i, x, y in moved:
            line = f"  {run_label(i, a[i]['config'])}"
            if _is_int(x) and _is_int(y):
                line += f": {x} -> {y} ({y - x:+d})"
            lines.append(line)
    return lines, ok
