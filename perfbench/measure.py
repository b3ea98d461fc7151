"""The two kinds of measurement: end-to-end (untraced) and per-layer (traced).

Import this only after `run.load_program()` has put the program on the path.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from slimabc import SimConfig

import workloads
from speed import SpeedGauge
from tracer import ENTRY_HEADER, ENVELOPE_HEADER, STAGES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7

# The counters a traced run of the baseline configuration must reproduce
# (n=13, random policy, 2 instances, batch 8, seed 0).
BASELINE = SimConfig(n=13, f=4, seed=0, instances=2, policy="random", pool_size=16,
                     batch_size=8, request_size=32)
BASELINE_COUNTS = {
    "crypto.verify_share.calls": 9015,
    "crypto.verify_share.distinct": 527,
    "crypto.verify_signature.calls": 3355,
    "crypto.verify_signature.distinct": 35,
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- set-up time ------------------------------------------------------------------------


def probe_setup(wl, seed: int) -> None:
    """Child side of a set-up measurement: build the workload, report ready."""
    next(wl.jobs(seed, False))
    print("ready", flush=True)


def measure_setup(gauge: SpeedGauge, workload: str, seed: int, probes: int):
    """Time from spawning a fresh interpreter to the point its first run could
    start: interpreter start, `import slimabc` and workload generation.
    Returns the median over `probes` fresh interpreters, scaled and raw."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]

    def probe() -> float:
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=BENCH_DIR.parent,
                              text=True) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - start
            p.stdout.read()
            if p.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
        return elapsed

    raw, scaled = [], []
    for _ in range(probes):
        elapsed, _, factor = gauge.timed(probe)
        raw.append(elapsed)
        scaled.append(elapsed * factor)
    return statistics.median(scaled), statistics.median(raw)


def timed_run(gauge: SpeedGauge, job) -> workloads.Outcome:
    outcome, seconds, factor = gauge.timed(lambda: workloads.run_job(job))
    outcome.raw_seconds = seconds
    outcome.seconds = seconds * factor
    return outcome


# -- end-to-end measurement --------------------------------------------------------------


def run_window(gauge: SpeedGauge, wl, seed: int, seconds: float, tiny: bool):
    """Closed loop over the workload's jobs for `seconds` of wall time and at
    least `min_runs` runs, stopping only at the end of a pass."""
    min_runs = wl.tiny_runs if tiny else wl.min_runs
    pass_len = 1 if tiny else wl.pass_len
    jobs = wl.jobs(seed, tiny)
    done = []
    start = time.perf_counter()
    while (len(done) < min_runs or len(done) % pass_len
           or time.perf_counter() - start < seconds):
        job = next(jobs)
        done.append((job, timed_run(gauge, job)))
    return done, min_runs


def harness_bytes(jobs_outcomes) -> List[str]:
    """Fill in the bytes the harness does not count, by replaying each job,
    untimed, with wire accounting.  Returns the jobs that did not replay
    identically."""
    problems = []
    tracer = Tracer()
    with tracer.installed(wire_only=True):
        for job, outcome in jobs_outcomes:
            before = tracer.wire_bytes()
            tracer.begin_run(job.honest())
            replay = workloads.run_job(job)
            outcome.bytes = tracer.wire_bytes() - before
            if replay.report != outcome.report:
                problems.append(f"harness seed {job.seed} did not replay identically")
    return problems


def end_to_end(wl, seed: int, seconds: float, tiny: bool = False,
               probes: int = SETUP_PROBES):
    """Returns (metrics, extra lines, attempted, failed, problems)."""
    gauge = SpeedGauge()
    setup, setup_raw = measure_setup(gauge, wl.name, seed, probes)
    done, min_runs = run_window(gauge, wl, seed, seconds, tiny)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    outcomes = [o for _, o in done]
    problems = [f"run {i} (seed {job.seed}): {o.detail}"
                for i, (job, o) in enumerate(done) if not o.ok]
    fixed = done[:min_runs]  # deterministic metrics use exactly these runs
    if isinstance(fixed[0][0], workloads.HarnessJob):
        problems += harness_bytes(fixed)
    fixed_out = [o for _, o in fixed]
    times = [o.seconds for o in outcomes]
    rounds = [r for o in fixed_out for r in o.rounds]

    def per_run_geomean(num, den) -> float:
        # A geometric mean of per-run ratios: the grid mixes system sizes whose
        # ratios differ severalfold, and a few schedules that lean on fairness
        # overrides take far more steps than the rest.
        ratios = [ratio(num(o), den(o)) for o in fixed_out]
        return math.exp(statistics.fmean(math.log(r) for r in ratios)) if all(ratios) else 0.0

    metrics = {
        "run_s_p50": (statistics.median(times), "s"),
        "reqs_per_s": (ratio(sum(o.delivered for o in outcomes), sum(times)), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "msgs_per_req": (per_run_geomean(lambda o: o.messages, lambda o: o.delivered),
                         "envelopes/req"),
        "bytes_per_req": (per_run_geomean(lambda o: o.bytes, lambda o: o.delivered), "B/req"),
        "steps_per_instance": (per_run_geomean(lambda o: o.steps, lambda o: o.instances),
                               "steps"),
        "abba_rounds_mean": (ratio(sum(rounds), len(rounds)), "rounds"),
    }
    failed = sum(1 for o in outcomes if not o.ok)
    raw_times = [o.raw_seconds for o in outcomes]
    extra = {
        "run_s_p50.raw": (statistics.median(raw_times), "s"),
        "setup_s.raw": (setup_raw, "s"),
        "fail_share": (ratio(failed, len(outcomes)), "ratio"),
        "runs": (len(outcomes), "count"),
        "runs_for_counts": (min_runs, "count"),
    }
    if wl.has_p90 and not tiny:
        extra["run_s_p90"] = (p90(times), "s")
        extra["run_s_p90.raw"] = (p90(raw_times), "s")
    return metrics, extra, len(outcomes), failed, problems


# -- traced measurement -----------------------------------------------------------------


def traced_pair(gauge: SpeedGauge, tracer: Tracer, job):
    """Run a job untraced, then traced.  Returns both outcomes, and the traced
    run's wire bytes and policy choices, for the checks."""
    plain = timed_run(gauge, job)
    wire_before = tracer.wire_bytes()
    choose_before = tracer.calls_of("simnet.choose")
    with tracer.installed():
        tracer.begin_run(job.honest())
        with tracer.span("simnet.run", "simnet.loop"):
            measured = timed_run(gauge, job)
    return (plain, measured, tracer.wire_bytes() - wire_before,
            tracer.calls_of("simnet.choose") - choose_before)


def check_pair(job, plain, traced, wire: int, chosen: int) -> List[str]:
    problems = []
    if not plain.ok or not traced.ok:
        problems.append(f"seed {job.seed}: {plain.detail or traced.detail}")
    if plain.report != traced.report:
        problems.append(f"seed {job.seed}: traced report differs from the untraced one")
    if not isinstance(job, SimConfig) or not traced.report:
        return problems
    # Every envelope of a fault-free run reaches Party.handle, so the stage
    # accounting must rebuild the report's byte count exactly.
    if not job.byzantine and wire != traced.bytes:
        problems.append(f"seed {job.seed}: stage bytes {wire} != report bytes {traced.bytes}")
    # Each step either asks the policy or is a fairness override.
    overrides = json.loads(traced.report)["fairness_overrides"]
    if traced.steps - chosen != overrides:
        problems.append(f"seed {job.seed}: {traced.steps - chosen} unchosen steps != "
                        f"{overrides} fairness overrides")
    return problems


def baseline_crosscheck() -> List[str]:
    """Trace the baseline configuration and compare with its known counts."""
    tracer = Tracer()
    plain, traced, wire, chosen = traced_pair(SpeedGauge(), tracer, BASELINE)
    problems = check_pair(BASELINE, plain, traced, wire, chosen)
    got = {
        "crypto.verify_share.calls": tracer.calls_of("crypto.verify_share"),
        "crypto.verify_share.distinct": tracer.counts["crypto.verify_share.distinct"],
        "crypto.verify_signature.calls": tracer.calls_of("crypto.verify_signature"),
        "crypto.verify_signature.distinct": tracer.counts["crypto.verify_signature.distinct"],
    }
    for key, want in BASELINE_COUNTS.items():
        if got[key] != want:
            problems.append(f"baseline {key} = {got[key]}, expected {want}")
    return problems


def layer_metrics(t: Tracer, outcomes, plain_seconds: float, plain_steps: int,
                  traced_seconds: float) -> Dict[str, tuple]:
    c, calls = t.counts, t.calls_of
    m = {}

    def fn(name: str, *extra: str) -> None:
        m[f"{name}.calls"] = (calls(name), "count")
        for key in extra:
            m[f"{name}.{key}"] = (c[f"{name}.{key}"], "B" if key == "bytes" else "count")
        m[f"{name}.s"] = (t.busy_of(name), "s")

    fn("crypto.verify_share", "rejected")
    m["crypto.verify_share.useful_ratio"] = (
        ratio(c["crypto.verify_share.distinct"], calls("crypto.verify_share")), "ratio")
    fn("crypto.verify_signature")
    m["crypto.verify_signature.useful_ratio"] = (
        ratio(c["crypto.verify_signature.distinct"], calls("crypto.verify_signature")),
        "ratio")
    fn("crypto.combine_shares")
    fn("crypto.sig_share")
    m["crypto.coin.calls"] = (calls(*(f"crypto.{f}" for f in (
        "coin_share", "coin_share_verify", "coin_toss_bit", "coin_toss_committee"))), "count")
    m["crypto.coin.s"] = (t.group_busy_of("crypto.coin"), "s")
    fn("crypto.tpke_enc", "bytes")
    fn("crypto.tpke_dec", "bytes")
    fn("crypto.tpke_dec_share_verify")
    m["crypto.s"] = (t.group_busy_of("crypto"), "s")

    fn("messages.size")
    for stage in STAGES:
        m[f"messages.{stage}.entries"] = (c[f"messages.{stage}.entries"], "count")
        m[f"messages.{stage}.bytes"] = (c[f"messages.{stage}.bytes"], "B")
    m["messages.entry_header.bytes"] = (ENTRY_HEADER * c["messages.entries"], "B")
    m["messages.envelope_header.bytes"] = (ENVELOPE_HEADER * c["messages.envelopes"], "B")

    fn("committee.on_share")
    m["ppb.on_payload.calls"] = (calls("ppb.on_payload"), "count")
    m["ppb.on_share.calls"] = (calls("ppb.on_share"), "count")
    m["ppb.s"] = (t.group_busy_of("ppb"), "s")

    for handler in ("on_preprocess", "on_prevote", "on_mainvote", "on_coin_share",
                    "on_decision"):
        m[f"abba.{handler}.calls"] = (calls(f"abba.{handler}"), "count")
    m["abba.s"] = (t.group_busy_of("abba"), "s")
    rounds = [r for o in outcomes for r in o.rounds]
    for r in (1, 2, 3):
        m[f"abba.rounds_hist.{r}"] = (rounds.count(r), "count")
    m["abba.rounds_hist.4plus"] = (sum(1 for x in rounds if x >= 4), "count")

    m["invocation.record_pair.calls"] = (calls("invocation.record_pair"), "count")
    m["invocation.record_pair.useful_ratio"] = (
        ratio(c["invocation.record_pair.adopted"], calls("invocation.record_pair")), "ratio")
    m["invocation.on_v.calls"] = (calls("invocation.on_v"), "count")
    m["invocation.on_dec_share.calls"] = (calls("invocation.on_dec_share"), "count")
    m["invocation.recover_sent"] = (c["invocation.recover_sent"], "count")
    m["invocation.s"] = (t.group_busy_of("invocation"), "s")

    fn("protocol.handle")
    m["protocol.s"] = (t.group_self_of("protocol"), "s")
    m["protocol.entries_per_envelope"] = (
        ratio(c["messages.entries"], c["messages.envelopes"]), "entries")

    steps = sum(o.steps for o in outcomes)
    m["simnet.loop.s"] = (t.group_self_of("simnet.loop"), "s")
    m["simnet.us_per_step"] = (1e6 * ratio(plain_seconds, plain_steps), "us")
    m["simnet.choose.s"] = (t.group_busy_of("simnet.choose"), "s")
    for group, names in (
        ("simnet.filter", ("simnet.filter",)),
        ("simnet.recorder", [n for n in t.names if n.startswith("simnet.recorder.")]),
        ("simnet.harness", ("simnet.harness.begin", "simnet.harness.handle")),
    ):
        m[f"{group}.calls"] = (calls(*names), "count")
        m[f"{group}.s"] = (t.group_busy_of(group), "s")
    m["simnet.pending_mean"] = (
        ratio(c["simnet.pending.sum"], c["simnet.pending.samples"]), "steps")
    m["simnet.pending_max"] = (c["simnet.pending.max"], "envelopes")
    m["simnet.fairness_override_share"] = (ratio(steps - calls("simnet.choose"), steps),
                                           "ratio")
    m["trace.overhead_ratio"] = (ratio(traced_seconds, plain_seconds), "ratio")
    return m


def traced(wl, seed: int, tiny: bool = False, out_dir: Path = OUT_DIR):
    """Returns (metrics, attempted, failed, problems, spans recorded)."""
    count = wl.tiny_runs if tiny else wl.trace_runs
    tracer = Tracer()
    problems = baseline_crosscheck()
    failed = 1 if problems else 0
    outcomes = []
    plain_seconds = traced_seconds = 0.0
    plain_steps = 0
    gauge = SpeedGauge()
    for job in itertools.islice(wl.jobs(seed, tiny), count):
        plain, measured, wire, chosen = traced_pair(gauge, tracer, job)
        job_problems = check_pair(job, plain, measured, wire, chosen)
        failed += 1 if job_problems else 0
        problems += job_problems
        outcomes.append(measured)
        plain_seconds += plain.seconds
        plain_steps += plain.steps
        traced_seconds += measured.seconds
    metrics = layer_metrics(tracer, outcomes, plain_seconds, plain_steps, traced_seconds)
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{wl.name}-seed{seed}"
    tracer.write_spans(f"{stem}-spans.npz")
    with open(f"{stem}-layers.json", "w") as fh:
        json.dump({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, fh,
                  indent=1, sort_keys=True)
    return metrics, count + 1, failed, problems, len(tracer.span_name)
