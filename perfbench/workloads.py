"""Benchmark workloads: each one is an endless, deterministic stream of jobs.

A job is one closed-loop simulation: `sim_run` on a `SimConfig`, or
`abba_harness_run` on one agreement instance.  Every simulation seed is
derived from the workload seed and the job's position in the stream, so the
same workload seed always yields the same jobs in the same order.
"""
from __future__ import annotations

import itertools
import json
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from slimabc import BehaviorSpec, SimConfig, sim_run
from slimabc.simnet import abba_harness_run


def sim_seed(workload_seed: int, index: int) -> int:
    return workload_seed * 100_000 + index


@dataclass(frozen=True)
class HarnessJob:
    n: int
    f: int
    seed: int
    inputs: Tuple[int, ...]
    byzantine: Tuple[BehaviorSpec, ...]

    def honest(self) -> List[int]:
        byz = {b.party for b in self.byzantine}
        return [p for p in range(self.n) if p not in byz]


@dataclass
class Outcome:
    """What one job did, and whether every checked property held."""

    ok: bool
    seconds: float = 0.0  # reference seconds (see speed.py), set by the caller that times it
    raw_seconds: float = 0.0  # processor time
    delivered: int = 0
    messages: int = 0
    bytes: Optional[int] = None  # the harness counts none; see measure.harness_bytes
    steps: int = 0
    instances: int = 0
    rounds: List[int] = field(default_factory=list)  # decided round per slot
    report: str = ""  # canonical JSON of the program's result
    detail: str = ""


def run_job(job) -> Outcome:
    """Run one job and check its properties.

    A run that violates a property, stalls or raises is returned as failed
    instead of aborting the benchmark, so the failure share stays
    comparable between commits.
    """
    try:
        result = sim_run(job) if isinstance(job, SimConfig) else _run_harness(job)
    except Exception:  # noqa: BLE001 - a crashing run is a failed run
        return Outcome(False, detail=traceback.format_exc())
    if isinstance(job, SimConfig):
        return _sim_outcome(result)
    return _harness_outcome(job, result)


def _run_harness(job: HarnessJob) -> dict:
    return abba_harness_run(job.n, job.f, job.seed, list(job.inputs),
                            byzantine=job.byzantine, policy="random")


def _sim_outcome(report) -> Outcome:
    return Outcome(
        ok=report.ok,
        delivered=report.delivered_total,
        messages=report.messages,
        bytes=report.bytes,
        steps=report.steps,
        instances=report.finalized_instances,
        rounds=[report.rounds[k] for k in sorted(report.rounds)],
        report=report.to_json(),
        detail="; ".join(report.failures) or ("stalled" if report.stalled else ""),
    )


def _harness_outcome(job: HarnessJob, result: dict) -> Outcome:
    honest = sorted(result["decisions"])
    decided = [result["decisions"][p] for p in honest]
    bits = {d[0] for d in decided if d is not None}
    detail = ""
    if result["stalled"] or any(d is None for d in decided):
        detail = "stalled"
    elif len(bits) > 1:
        detail = f"honest parties disagree: {sorted(bits)}"
    elif sum(job.inputs[p] for p in honest) >= job.f + 1 and bits != {1}:
        detail = "f+1 honest 1-inputs but an honest party decided 0"
    ok = not detail
    return Outcome(
        ok=ok,
        # One harness run agrees on one proven payload: one delivered request.
        delivered=1 if ok else 0,
        messages=result["messages"],
        steps=result["steps"],
        instances=0 if result["stalled"] else 1,
        rounds=[max(d[1] for d in decided if d is not None)] if bits else [],
        report=json.dumps(result, sort_keys=True, separators=(",", ":")),
        detail=detail,
    )


# -- the four workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    stresses: Tuple[str, ...]
    jobs: Callable[[int, bool], Iterator[object]]
    min_runs: int  # runs every measurement makes; deterministic metrics use exactly these
    pass_len: int  # a measurement stops only at a multiple of this many runs
    trace_runs: int  # jobs a traced measurement runs twice, untraced and traced
    has_p90: bool  # at least ten runs lie beyond the 90th percentile
    tiny_runs: int  # runs of the smoke-test size, covering every cell once


def _wide(seed: int, tiny: bool) -> Iterator[SimConfig]:
    n, f, instances = (7, 2, 1) if tiny else (31, 10, 3)
    for i in itertools.count():
        yield SimConfig(n=n, f=f, seed=sim_seed(seed, i), instances=instances,
                        policy="random", pool_size=16, batch_size=8, request_size=32)


def _bulk(seed: int, tiny: bool) -> Iterator[SimConfig]:
    n, f, instances = (4, 1, 1) if tiny else (13, 4, 3)
    for i in itertools.count():
        yield SimConfig(n=n, f=f, seed=sim_seed(seed, i), instances=instances,
                        policy="random", pool_size=16, batch_size=8, request_size=3200)


GRID_SIZES = ((4, 1), (7, 2), (10, 3))
GRID_FAULTS = ("none", "crash", "equivocate-ppb", "corrupt-shares",
               "withhold-suggestions", "random-votes")
GRID_POLICIES = ("random", "adversarial-delay", "targeted-starve")


def _grid_cells(tiny: bool):
    sizes = GRID_SIZES[:1] if tiny else GRID_SIZES
    return list(itertools.product(sizes, GRID_FAULTS, GRID_POLICIES))


def _grid(seed: int, tiny: bool) -> Iterator[SimConfig]:
    cells = _grid_cells(tiny)
    for i in itertools.count():
        (n, f), fault, policy = cells[i % len(cells)]
        s = sim_seed(seed, i)
        byz = ()
        if fault != "none":
            # exactly f faulty parties; crash times staggered across runs
            byz = tuple(BehaviorSpec(p, fault, at_step=(s * 7) % 40) for p in range(f))
        yield SimConfig(n=n, f=f, seed=s, instances=2, policy=policy, pool_size=16,
                        batch_size=8, request_size=32, byzantine=byz)


def _harness(seed: int, tiny: bool) -> Iterator[HarnessJob]:
    n, f = (4, 1) if tiny else (13, 4)
    # f byzantine voters, then f+1 honest 1-inputs, the remaining honest input 0
    inputs = tuple(1 if f <= p < 2 * f + 1 else 0 for p in range(n))
    byz = tuple(BehaviorSpec(p, "random-votes") for p in range(f))
    for i in itertools.count():
        yield HarnessJob(n, f, sim_seed(seed, i), inputs, byz)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wide-n31",
            why="per-envelope work dominates: messages grow as n^2, so dispatch, share "
                "verification, envelope sizing and the scheduler queue scan set the time",
            config="sim_run n=31 f=10, no faults, random policy, 3 instances, pool 16, "
                   "batch 8, 32-byte requests",
            stresses=("protocol", "crypto.verify_share", "crypto.verify_signature",
                      "messages.size", "simnet.loop", "simnet.choose"),
            jobs=_wide, min_runs=11, pass_len=1, trace_runs=2, has_p90=False, tiny_runs=1,
        ),
        Workload(
            name="bulk-n13",
            why="per-byte work dominates: 25 KiB batches make threshold encryption, "
                "ciphertext digests and ciphertext copies set the time",
            config="sim_run n=13 f=4, no faults, random policy, 3 instances, pool 16, "
                   "batch 8, 3200-byte requests",
            stresses=("crypto.tpke_enc", "crypto.tpke_dec", "messages.pairs",
                      "messages.size"),
            jobs=_bulk, min_runs=16, pass_len=1, trace_runs=3, has_p90=False, tiny_runs=1,
        ),
        Workload(
            name="byzantine-grid",
            why="many short faulty runs like slimabc check: rejected verifications, "
                "per-run set-up, behavior filters, recovery and ABBA coin rounds",
            config="sim_run n in {4,7,10}, 2 instances, pool 16, batch 8, 32-byte "
                   "requests; no faults or f parties of one behavior; policies random, "
                   "adversarial-delay, targeted-starve",
            stresses=("crypto.verify_share.rejected", "simnet.filter", "simnet.recorder",
                      "invocation.recover_sent", "abba.rounds_hist"),
            jobs=_grid, min_runs=2 * len(_grid_cells(False)), pass_len=len(_grid_cells(False)),
            trace_runs=len(_grid_cells(False)), has_p90=True,
            tiny_runs=len(_grid_cells(True)),
        ),
        Workload(
            name="abba-harness",
            why="the isolated agreement harness, the only caller of the second event "
                "loop and HarnessParty; ABBA does nearly all the work",
            config="abba_harness_run n=13 f=4, f random-votes parties, f+1 honest "
                   "1-inputs, the other honest parties input 0, random policy",
            stresses=("simnet.harness", "abba", "invocation", "simnet.loop"),
            jobs=_harness, min_runs=200, pass_len=1, trace_runs=100, has_p90=True, tiny_runs=3,
        ),
    )
}

