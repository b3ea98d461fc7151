"""Deterministic adversarial network simulator: the event loop.

One global event loop, `deliver`, delivers exactly one envelope per step,
in the order an `adversary` policy chooses; a fairness bound guarantees
every envelope is eventually delivered, the standard liveness assumption.
Everything is driven by seeded generators, so a (config, seed) pair replays
bit-identically: `sim_run` can write a step trace that `replay_trace`
re-executes.  `abba_harness_run` runs the same loop over one agreement slot.

Self-addressed messages are handled synchronously inside the party and
never traverse the queue; traffic metrics count only envelopes sent by
honest parties, at the moment they are delivered.
"""
from __future__ import annotations

import json
import random
from typing import Callable, List, Optional, Tuple

from .adversary import BEHAVIORS, POLICIES, TargetingPolicy
from .adversary import (  # noqa: F401  read as simnet.X by perfbench's tracer
    AdversarialDelayPolicy, Behavior, CrashBehavior, FifoPolicy, RandomPolicy, SilentBehavior,
    TargetedStarvePolicy)
from .committee import Committee
from .config import BehaviorSpec, ConfigError, SimConfig, config_from_dict, scenario_dict
from .crypto import Ciphertext, ThresholdSignature, key_setup
from .invocation import SlotInvocation
from .messages import BROADCAST, Envelope, RecoverResp, VMsg
from .metrics import RunReport
from .ppb import ppb_sign_bytes
from .protocol import InstanceState, Party, wire_envelopes
from .recorder import RunRecorder

TRACE_FORMAT = "slimabc-trace-1"


def deliver(parties: List[Party], cfg: SimConfig, recorder: Optional[RunRecorder] = None,
            on_step: Optional[Callable[[int, Envelope], None]] = None
            ) -> Tuple[int, int, int, int, bool]:
    """Start every party, then deliver one queued envelope per step until all
    honest parties have finished, the queue is empty or `cfg.max_steps` is
    reached.  The config's byzantine specs, seed, policy and policy params
    set the behaviors and the delivery order.

    `parties[p]` is party p: a `Party`, or a `HarnessParty` for the agreement
    harness.  `on_step(step, env)` runs after each delivery.  Returns
    (steps, honest envelopes, honest bytes, fairness overrides, stalled);
    bytes are counted only when a recorder is given."""
    seed, params = cfg.seed, cfg.policy_params
    behaviors = {
        spec.party: BEHAVIORS[spec.kind](spec, parties[spec.party].crypto,
                                         random.Random(f"{seed}|byz|{spec.party}"))
        for spec in cfg.byzantine
    }
    pol = POLICIES[cfg.policy](params, random.Random(f"{seed}|policy"))
    targeting = isinstance(pol, TargetingPolicy)
    fairness_bound = params.get("fairness_bound", 64 * len(parties))
    max_steps = cfg.max_steps
    honest = {p for p in range(len(parties)) if p not in behaviors}
    pending: List[Envelope] = []
    if recorder is not None:
        recorder.attach(parties, pending)

    def outbound(pid: int, step: int, envs: List[Envelope]) -> None:
        b = behaviors.get(pid)
        if b is not None:
            envs = b.filter(step, envs)
        for env in envs:
            if env.sender != pid:  # behaviors cannot spoof the sender
                env = Envelope(pid, env.instance, env.entries, env.dst)
            env.enqueued = step
            if targeting and pol.target is None:
                pol.note_enqueue(env)
            pending.append(env)

    for p in parties:
        b = behaviors.get(p.pid)
        if b is None or not b.crashed(0):
            outbound(p.pid, 0, p.begin())
    # A party's state changes only while it handles an envelope, so each
    # step only the receiver can leave this set.
    unfinished = {p for p in honest if not parties[p].finished}
    step = messages = nbytes = fairness_overrides = 0
    while pending and step < max_steps and unfinished:
        step += 1
        if step - pending[0].enqueued > fairness_bound:
            idx = 0
            fairness_overrides += 1
        else:
            idx = pol.choose(pending)
        env = pending.pop(idx)
        if env.sender in honest:
            messages += 1
            if recorder is not None:
                nbytes += env.size()
        dst = env.dst
        b = behaviors.get(dst)
        if b is None or not b.crashed(step):
            party = parties[dst]
            if recorder is not None:
                recorder.current_env = env  # read only while the receiver handles it
            outs = party.handle(env)
            if party.finished:
                unfinished.discard(dst)
            if outs or b is not None:  # a byzantine receiver's filter runs every step
                outbound(dst, step, outs)
        if on_step is not None:
            on_step(step, env)
    return step, messages, nbytes, fairness_overrides, bool(unfinished)


def sim_run(cfg: SimConfig, trace_path: Optional[str] = None,
            step_callback: Optional[Callable[[dict], None]] = None) -> RunReport:
    cfg.validate()
    provider = key_setup(cfg.security_param, cfg.n, cfg.seed)
    recorder = RunRecorder(cfg, provider)
    parties = [Party(p, provider.party_handle(p), cfg, observer=recorder) for p in range(cfg.n)]
    trace = open(trace_path, "w") if trace_path else None
    on_step = None
    if trace or step_callback:
        def on_step(step: int, env: Envelope) -> None:
            rec = {
                "step": step,
                "src": env.sender,
                "dst": env.dst,
                "size": env.size(),
                "digest": parties[env.dst].state_digest()[:8].hex(),
            }
            if trace:
                trace.write(json.dumps(rec, sort_keys=True) + "\n")
            if step_callback:
                step_callback(rec)

    try:
        if trace:
            trace.write(json.dumps({"format": TRACE_FORMAT, "config": scenario_dict(cfg)},
                                   sort_keys=True) + "\n")
        steps, messages, nbytes, fairness_overrides, stalled = deliver(
            parties, cfg, recorder, on_step)
    finally:
        if trace:
            trace.close()
    return recorder.finish(steps, messages, nbytes, stalled, fairness_overrides)


def replay_trace(path: str) -> Tuple[bool, Optional[int], str]:
    """Re-execute a trace's config and compare per-step records.

    Returns (ok, first_divergent_step, detail)."""
    try:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except ValueError as e:  # undecodable text or a malformed JSON line
        raise ConfigError(f"cannot parse trace {path}: {e}") from e
    header = lines[0] if lines else None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT \
            or not isinstance(header.get("config"), dict):
        raise ConfigError("not a trace file")
    cfg = config_from_dict(header["config"])
    records, replayed = lines[1:], []
    sim_run(cfg, step_callback=replayed.append)
    for want, got in zip(records, replayed):
        if want != got:
            return False, got["step"], f"expected {want}, got {got}"
    if len(replayed) > len(records):
        return False, replayed[len(records)]["step"], "trace ended early"
    if len(replayed) < len(records):
        return False, len(replayed) + 1, "replay ended early"
    return True, None, ""


# -- single-slot agreement harness ----------------------------------------------------------


def make_proven_pair(provider, instance: int, slot: int,
                     payload: bytes) -> Tuple[Ciphertext, ThresholdSignature]:
    """Dealer-side constructor of a broadcast-proven pair, for harness setups."""
    ct = provider.tpke_enc(payload)
    msg = ppb_sign_bytes(instance, slot, ct.ct_digest())
    shares = [provider.sig_share(p, msg) for p in range(provider.n - provider.f)]
    return ct, provider.combine_shares(msg, shares)


class HarnessParty(Party):
    """A party whose one instance is one agreement slot: instance 1 starts
    with the fixed committee (0,), without coin, provable broadcast or
    batches, and the party is finished once the slot's outcome is ready.
    Given the proven pair it inputs 1, else 0.  `begin` is its own, and
    `handle` is `Party.handle` bound under this class's own name, so
    perfbench's tracer, which wraps each class's entry points apart, counts
    each envelope once.  The harness counts no bytes, so its flush sizes no
    envelope."""

    def __init__(self, pid: int, crypto, cfg: SimConfig,
                 pair: Optional[Tuple[Ciphertext, ThresholdSignature]]):
        super().__init__(pid, crypto, cfg)
        self.pair = pair
        self.instance = 1
        self.inv = SlotInvocation(1, 0, crypto, self._owner)
        self.inst = InstanceState(committee=Committee(1, (0,)), slots={0: self.inv})

    def begin(self) -> List[Envelope]:
        inv, pair, out = self.inv, self.pair, self._out
        if pair is None:
            inv.inv_start(0, None, None, out)
        else:
            inv.inv_start(1, *pair, out)
        self._multicast(out)
        if pair is not None:
            # No proposal layer here, so holders diffuse the pair themselves;
            # 1-claims are bare and non-holders need the evidence to vote.
            self._emit(BROADCAST, RecoverResp(1, 0, *pair))
        self._emit(BROADCAST, VMsg(1, 0, inv.u))
        return self._settle()

    handle = Party.handle

    def slot_ready(self, inv: SlotInvocation) -> None:
        self.finished = True

    def _flush(self) -> List[Envelope]:
        wire, self._wire = self._wire, []
        return wire_envelopes(self.pid, self.n, wire)


def abba_harness_run(n: int, f: int, seed: int, inputs: List[int],
                     byzantine: Tuple[BehaviorSpec, ...] = (),
                     policy: str = "random", policy_params: Optional[dict] = None,
                     max_steps: int = 50_000) -> dict:
    """Run one biased-agreement instance in isolation; 1-inputters hold a proven pair."""
    cfg = SimConfig(n, f, seed, policy=policy, policy_params=policy_params or {},
                    byzantine=byzantine, max_steps=max_steps)
    cfg.validate()
    if len(inputs) != n:
        raise ConfigError("need one input bit per party")
    if any(type(inputs[p]) is not int or inputs[p] not in (0, 1) for p in range(n)):
        raise ConfigError("input bits must be the ints 0 or 1")
    provider = key_setup(cfg.security_param, n, seed)
    pair = make_proven_pair(provider, 1, 0, b"harness-payload")
    parties = [
        HarnessParty(p, provider.party_handle(p), cfg, pair if inputs[p] == 1 else None)
        for p in range(n)
    ]
    steps, messages, _, _, stalled = deliver(parties, cfg)
    honest = cfg.honest()
    return {
        "decisions": {p: parties[p].inv.decided for p in honest},
        "inputs": {p: inputs[p] for p in honest},
        "messages": messages,
        "steps": steps,
        "stalled": stalled,
    }
