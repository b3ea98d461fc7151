"""Deterministic adversarial network simulator.

One global event loop: exactly one envelope is delivered per step, the
delivery order chosen by a pluggable policy.  Everything is driven by
seeded generators, so a (config, seed) pair replays bit-identically.

Policies model the asynchronous adversary (reorder, delay, starve); a
fairness bound guarantees every envelope is eventually delivered, which
is the standard liveness assumption.  Byzantine parties run the honest
state machine wrapped in an outbound filter (drop, corrupt, equivocate,
mutate votes) — filters cannot forge the envelope sender, mirroring
authenticated channels.

Self-addressed messages are handled synchronously inside the party and
never traverse the queue; traffic metrics count only envelopes sent by
honest parties, at the moment they are delivered.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .crypto import Ciphertext, ThresholdSignature, key_setup
from .invocation import SLOT_HANDLERS, SlotInvocation
from .messages import (
    AbbaMainvote,
    AbbaPrevote,
    Envelope,
    PpbPayload,
    Proposal,
    Recover,
    RecoverResp,
    Suggestion,
    VMsg,
)
from .metrics import RunReport, duplicate_ratio
from .ppb import ppb_sign_bytes
from .protocol import Observer, Party, ProtocolConfig, instance_pool

SCENARIO_FORMAT = "slimabc-scenario-1"
TRACE_FORMAT = "slimabc-trace-1"

POLICIES = ("fifo", "random", "adversarial-delay", "targeted-starve")
BEHAVIORS = (
    "crash",
    "silent",
    "equivocate-ppb",
    "corrupt-shares",
    "withhold-suggestions",
    "random-votes",
)


class ConfigError(Exception):
    pass


class StalledError(Exception):
    pass


@dataclass(frozen=True)
class BehaviorSpec:
    party: int
    kind: str
    at_step: int = 0  # crash only


@dataclass
class SimConfig:
    n: int
    f: int
    seed: int = 0
    instances: int = 1
    policy: str = "fifo"
    policy_params: dict = field(default_factory=dict)
    byzantine: Tuple[BehaviorSpec, ...] = ()
    pool_size: int = 16
    batch_size: int = 4
    request_size: int = 32
    overlap: float = 0.0
    max_steps: int = 200_000
    security_param: int = 128

    def validate(self) -> None:
        validate_run(self.n, self.f, self.byzantine, self.policy, self.policy_params)
        if self.instances < 1:
            raise ConfigError("instances must be >= 1")
        if min(self.pool_size, self.batch_size, self.request_size) < 1:
            raise ConfigError("pool, batch and request sizes must be >= 1")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError("overlap must be within [0, 1]")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            instances=self.instances,
            pool_size=self.pool_size,
            batch_size=self.batch_size,
            request_size=self.request_size,
            overlap=self.overlap,
            seed=self.seed,
        )

    def honest(self) -> List[int]:
        byz = {b.party for b in self.byzantine}
        return [p for p in range(self.n) if p not in byz]


def validate_run(n: int, f: int, byzantine: Tuple[BehaviorSpec, ...], policy: str,
                 policy_params: dict) -> None:
    """Checks shared by `sim_run` and `abba_harness_run`; raises ConfigError."""
    if f < 1 or n != 3 * f + 1:
        raise ConfigError(f"need n = 3f+1 with f >= 1, got n={n} f={f}")
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}")
    for key, least in (("fairness_bound", 1), ("budget", 0)):
        value = policy_params.get(key, least)
        if type(value) is not int or value < least:
            raise ConfigError(f"policy_params {key} must be an integer >= {least}, got {value!r}")
    if len(byzantine) > f:
        raise ConfigError(f"at most f={f} byzantine parties")
    seen = set()
    for spec in byzantine:
        if spec.kind not in BEHAVIORS:
            raise ConfigError(f"unknown behavior {spec.kind!r}")
        if not 0 <= spec.party < n:
            raise ConfigError(f"behavior party {spec.party} out of range")
        if spec.party in seen:
            raise ConfigError(f"duplicate behavior for party {spec.party}")
        seen.add(spec.party)


def scenario_dict(cfg: SimConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["byzantine"] = [dataclasses.asdict(b) for b in cfg.byzantine]
    d["format"] = SCENARIO_FORMAT
    return d


def config_from_dict(d: dict) -> SimConfig:
    d = dict(d)
    fmt = d.pop("format", SCENARIO_FORMAT)
    if fmt != SCENARIO_FORMAT:
        raise ConfigError(f"unsupported scenario format {fmt!r}")
    try:
        byz = tuple(BehaviorSpec(**b) for b in d.pop("byzantine", []))
        cfg = SimConfig(byzantine=byz, **d)
    except TypeError as e:
        raise ConfigError(f"bad scenario fields: {e}") from e
    cfg.validate()
    return cfg


def load_scenario(path: str) -> SimConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read scenario {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    return config_from_dict(data)


# -- delivery policies ------------------------------------------------------------


@dataclass
class QueueItem:
    enqueued: int
    env: Envelope
    deferrals: int = 0


def _pair_entries(env: Envelope, instance: int, slot: int) -> bool:
    for m in env.entries:
        if isinstance(m, (Proposal, Suggestion, RecoverResp)) and m.instance == instance \
                and m.slot == slot:
            return True
        if isinstance(m, VMsg) and m.ciphertext is not None and m.instance == instance \
                and m.slot == slot:
            return True
    return False


class FifoPolicy:
    def note_enqueue(self, item: QueueItem) -> None:
        pass

    def choose(self, pending: List[QueueItem], step: int) -> int:
        return 0


class RandomPolicy:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def note_enqueue(self, item: QueueItem) -> None:
        pass

    def choose(self, pending: List[QueueItem], step: int) -> int:
        return self.rng.randrange(len(pending))


class AdversarialDelayPolicy:
    """Defers every envelope touching the first proposed slot `budget` times."""

    def __init__(self, budget: int = 12):
        self.budget = budget
        self.target: Optional[Tuple[int, int]] = None  # (instance, slot)

    def note_enqueue(self, item: QueueItem) -> None:
        if self.target is None:
            for m in item.env.entries:
                if isinstance(m, Proposal):
                    self.target = (m.instance, m.slot)
                    return

    def _targeted(self, item: QueueItem) -> bool:
        return self.target is not None and any(
            getattr(m, "slot", None) == self.target[1] and m.instance == self.target[0]
            for m in item.env.entries
        )

    def choose(self, pending: List[QueueItem], step: int) -> int:
        for i, item in enumerate(pending):
            if self._targeted(item) and item.deferrals < self.budget:
                item.deferrals += 1
                continue
            return i
        return 0


class TargetedStarvePolicy:
    """Holds the first proposed slot's pair dissemination back while anything
    else is deliverable, so that slot's agreement must run without it."""

    def __init__(self):
        self.target: Optional[Tuple[int, int]] = None

    def note_enqueue(self, item: QueueItem) -> None:
        if self.target is None:
            for m in item.env.entries:
                if isinstance(m, Proposal):
                    self.target = (m.instance, m.slot)
                    return

    def choose(self, pending: List[QueueItem], step: int) -> int:
        if self.target is not None:
            inst, slot = self.target
            for i, item in enumerate(pending):
                if not _pair_entries(item.env, inst, slot):
                    return i
        return 0


def make_policy(name: str, params: dict, rng: random.Random):
    if name == "fifo":
        return FifoPolicy()
    if name == "random":
        return RandomPolicy(rng)
    if name == "adversarial-delay":
        return AdversarialDelayPolicy(budget=params.get("budget", 12))
    if name == "targeted-starve":
        return TargetedStarvePolicy()
    raise ConfigError(f"unknown policy {name!r}")


# -- byzantine behaviors -------------------------------------------------------------


def _flip_share(msg):
    share = msg.share
    mutated = bytes([share.share_bytes[0] ^ 0xFF]) + share.share_bytes[1:]
    return dataclasses.replace(msg, share=dataclasses.replace(share, share_bytes=mutated))


class Behavior:
    def __init__(self, spec: BehaviorSpec, crypto, rng: random.Random):
        self.spec = spec
        self.crypto = crypto
        self.rng = rng

    def crashed(self, step: int) -> bool:
        return False

    def filter(self, step: int, envs: List[Envelope]) -> List[Envelope]:
        out = []
        for env in envs:
            entries = tuple(
                e for e in (self.mutate(step, env.dst, m) for m in env.entries) if e is not None
            )
            if entries:
                out.append(Envelope(env.sender, env.instance, entries, dst=env.dst))
        return out

    def mutate(self, step: int, dst: int, msg):
        return msg


class CrashBehavior(Behavior):
    def crashed(self, step: int) -> bool:
        return step >= self.spec.at_step

    def filter(self, step: int, envs: List[Envelope]) -> List[Envelope]:
        return [] if self.crashed(step) else envs


class SilentBehavior(Behavior):
    def filter(self, step: int, envs: List[Envelope]) -> List[Envelope]:
        return []


class EquivocatePpbBehavior(Behavior):
    """Send a diverging ciphertext to every odd-numbered destination."""

    def mutate(self, step: int, dst: int, msg):
        if isinstance(msg, PpbPayload) and dst % 2 == 1:
            alt = self.crypto.tpke_enc(b"EQV" + msg.instance.to_bytes(8, "big"))
            return dataclasses.replace(msg, ciphertext=alt)
        return msg


class CorruptSharesBehavior(Behavior):
    def mutate(self, step: int, dst: int, msg):
        if hasattr(msg, "share"):
            return _flip_share(msg)
        return msg


class WithholdSuggestionsBehavior(Behavior):
    def mutate(self, step: int, dst: int, msg):
        if isinstance(msg, (Proposal, Suggestion)):
            return None
        return msg


class RandomVotesBehavior(Behavior):
    def mutate(self, step: int, dst: int, msg):
        if isinstance(msg, AbbaPrevote):
            return dataclasses.replace(msg, bit=self.rng.randrange(2))
        if isinstance(msg, AbbaMainvote):
            return dataclasses.replace(msg, value=self.rng.choice((0, 1, 2)))
        if isinstance(msg, VMsg) and msg.u == 0 and self.rng.random() < 0.3:
            return dataclasses.replace(msg, u=1)  # claim 1 without shipping a pair
        return msg


def make_behavior(spec: BehaviorSpec, crypto, rng: random.Random) -> Behavior:
    cls = {
        "crash": CrashBehavior,
        "silent": SilentBehavior,
        "equivocate-ppb": EquivocatePpbBehavior,
        "corrupt-shares": CorruptSharesBehavior,
        "withhold-suggestions": WithholdSuggestionsBehavior,
        "random-votes": RandomVotesBehavior,
    }[spec.kind]
    return cls(spec, crypto, rng)


# -- run recording and property checking ------------------------------------------------


class RunRecorder(Observer):
    def __init__(self, cfg: SimConfig, provider):
        self.cfg = cfg
        self.provider = provider
        self.honest = set(cfg.honest())
        self.parties: List[Party] = []
        self.pending: List[QueueItem] = []
        self.current_env: Optional[Envelope] = None
        self.committees: Dict[int, Dict[int, tuple]] = {}
        self.inputs: Dict[Tuple[int, int], Dict[int, int]] = {}
        self.decisions: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
        self.phases: Dict[int, int] = {}
        self.rounds: Dict[Tuple[int, int], int] = {}
        self.swept: Set[int] = set()
        self.lemma: List[dict] = []
        self.failures: List[str] = []

    def attach(self, parties: List[Party], pending: List[QueueItem]) -> None:
        self.parties = parties
        self.pending = pending

    # Observer hooks ------------------------------------------------------------

    def on_committee(self, party, instance, committee) -> None:
        if party in self.honest:
            self.committees.setdefault(instance, {})[party] = committee.members

    def on_sweep(self, party, instance) -> None:
        if party not in self.honest or instance in self.swept:
            return
        self.swept.add(instance)
        self._lemma_snapshot(instance)

    def on_abba_input(self, party, instance, slot, bit) -> None:
        if party in self.honest:
            self.inputs.setdefault((instance, slot), {})[party] = bit

    def on_slot_decided(self, party, instance, slot, bit, round_) -> None:
        if party in self.honest:
            self.decisions.setdefault((instance, slot), {})[party] = (bit, round_)
            key = (instance, slot)
            self.rounds[key] = max(self.rounds.get(key, 0), round_)

    def on_finalized(self, party, instance, outputs, rounds, phases) -> None:
        if party in self.honest:
            self.phases[instance] = max(self.phases.get(instance, 0), phases)

    # Lemma introspection ---------------------------------------------------------

    def _lemma_snapshot(self, instance: int) -> None:
        committee = next(iter(self.committees.get(instance, {}).values()), ())
        per_slot = {}
        for slot in committee:
            held = {p for p in range(self.cfg.n) if slot in self.parties[p].held_pairs(instance)}
            effective = set(held)
            envs: List[Envelope] = [i.env for i in self.pending]
            if self.current_env is not None:
                envs.append(self.current_env)
            for env in envs:
                if env.sender in self.honest and env.dst not in effective:
                    if _pair_entries(env, instance, slot):
                        effective.add(env.dst)
            per_slot[slot] = (len(held), len(effective))
        best_held = max((h for h, _ in per_slot.values()), default=0)
        best_eff = max((e for _, e in per_slot.values()), default=0)
        self.lemma.append(
            {
                "instance": instance,
                "best_held": best_held,
                "best_effective": best_eff,
                "lemma1": best_eff >= 2,
                "lemma2": best_eff >= 2 * self.cfg.f + 1,
                "per_slot": {str(s): list(v) for s, v in sorted(per_slot.items())},
            }
        )

    # Final assertions --------------------------------------------------------------

    def _fail(self, name: str, detail: str) -> None:
        self.failures.append(f"{name}: {detail}")

    def finish(self, steps: int, messages: int, nbytes: int, stalled: bool,
               fairness_overrides: int) -> RunReport:
        honest = sorted(self.honest)
        parties = self.parties
        asserts: Dict[str, bool] = {}

        committees_ok = all(
            len({members for members in per.values()}) == 1 for per in self.committees.values()
        )
        asserts["committee_agreement"] = committees_ok
        if not committees_ok:
            self._fail("committee_agreement", "honest parties derived different committees")

        logs = [parties[p].log for p in honest]
        if stalled:
            shortest = min(len(lg) for lg in logs)
            agree = all(lg[:shortest] == logs[0][:shortest] for lg in logs)
        else:
            agree = all(lg == logs[0] for lg in logs)
        asserts["agreement"] = agree
        if not agree:
            self._fail("agreement", "honest delivery logs diverge")

        prefix_ok = True
        for lg in logs:
            k = min(len(lg), len(logs[0]))
            if lg[:k] != logs[0][:k]:
                prefix_ok = False
        asserts["total_order"] = prefix_ok
        if not prefix_ok:
            self._fail("total_order", "logs are not prefix-consistent")

        asserts["totality"] = not stalled
        if stalled:
            self._fail("totality", "some honest party did not finish all instances")

        dedup_ok = all(len({r for (_, _, r) in lg}) == len(lg) for lg in logs)
        asserts["delivery_dedup"] = dedup_ok
        if not dedup_ok:
            self._fail("delivery_dedup", "a request was delivered twice")

        content_ok = True
        decided_one_ok = True
        finalized = min((len(parties[p].outputs_by_instance) for p in honest), default=0)
        for inst in range(1, finalized + 1):
            ref = parties[honest[0]]
            outputs = ref.outputs_by_instance[inst]
            if not any(
                bit == 1
                for (i, s), per in self.decisions.items()
                if i == inst
                for bit, _ in per.values()
            ):
                decided_one_ok = False
                self._fail("validity_decided_one", f"instance {inst}: no slot decided 1")
            committee = next(iter(self.committees.get(inst, {}).values()), ())
            for slot, batch in outputs.items():
                pair = ref.archive.get(inst, {}).get(slot)
                if slot not in committee:
                    content_ok = False
                    self._fail("validity_content", f"instance {inst} slot {slot} not in committee")
                elif pair is None:
                    content_ok = False
                    self._fail("validity_content", f"instance {inst} slot {slot} missing pair")
                elif self.provider.tpke_enc(batch.encode()).ct_digest() != pair[0].ct_digest():
                    content_ok = False
                    self._fail(
                        "validity_content",
                        f"instance {inst} slot {slot} batch does not re-encrypt to the "
                        f"broadcast ciphertext",
                    )
                if batch.proposer != slot or batch.instance != inst:
                    content_ok = False
                    self._fail("validity_content", f"instance {inst} slot {slot} binding broken")
        asserts["validity_content"] = content_ok
        asserts["validity_decided_one"] = decided_one_ok

        if not self.cfg.byzantine:
            nonempty = all(
                parties[honest[0]].outputs_by_instance.get(i) for i in range(1, finalized + 1)
            )
            asserts["validity_nonempty"] = bool(nonempty) if finalized else not stalled
            if not asserts["validity_nonempty"]:
                self._fail("validity_nonempty", "fault-free instance delivered nothing")

        abba_agree = True
        for (inst, slot), per in self.decisions.items():
            bits = {bit for bit, _ in per.values()}
            if len(bits) > 1:
                abba_agree = False
                self._fail("abba_agreement", f"instance {inst} slot {slot} decided {bits}")
        asserts["abba_agreement"] = abba_agree

        abba_valid = True
        for (inst, slot), per in self.decisions.items():
            bits = {bit for bit, _ in per.values()}
            if bits == {0}:
                if not any(b == 0 for b in self.inputs.get((inst, slot), {}).values()):
                    abba_valid = False
                    self._fail(
                        "abba_validity", f"instance {inst} slot {slot}: 0 without honest 0-input"
                    )
            if bits == {1}:
                held = any(slot in parties[p].held_pairs(inst) for p in honest)
                if not held and not any(
                    b == 1 for b in self.inputs.get((inst, slot), {}).values()
                ):
                    abba_valid = False
                    self._fail(
                        "abba_validity",
                        f"instance {inst} slot {slot}: 1 without honest 1-input or proven pair",
                    )
        asserts["abba_validity"] = abba_valid

        biased_ok = True
        for (inst, slot), per in self.inputs.items():
            ones = sum(1 for b in per.values() if b == 1)
            if ones >= self.cfg.f + 1:
                decided = self.decisions.get((inst, slot), {})
                if decided and any(bit != 1 for bit, _ in decided.values()):
                    biased_ok = False
                    self._fail(
                        "biased_validity",
                        f"instance {inst} slot {slot}: {ones} honest 1-inputs but decided 0",
                    )
        asserts["biased_validity"] = biased_ok

        asserts["lemma1"] = all(entry["lemma1"] for entry in self.lemma)
        asserts["lemma2"] = all(entry["lemma2"] for entry in self.lemma)
        for entry in self.lemma:
            if not entry["lemma1"] or not entry["lemma2"]:
                self._fail("lemma", f"instance {entry['instance']}: {entry}")

        ratios = {}
        ref = parties[honest[0]]
        for inst, outputs in ref.outputs_by_instance.items():
            ratios[inst] = duplicate_ratio([b.requests for b in outputs.values()])

        censorship = None
        if self.cfg.overlap > 0 and round(self.cfg.overlap * self.cfg.pool_size) >= 1:
            marked = instance_pool(self.cfg.protocol_config(), 1, 0)[0]
            delivered_at = next(
                (inst for inst, slot, r in ref.log if r == marked), None
            )
            censorship = {"marked_delivered_instance": delivered_at}

        h = hashlib.sha256()
        for inst, slot, req in ref.log:
            h.update(inst.to_bytes(8, "big") + slot.to_bytes(2, "big") + req)

        # Each party holds this recorder as its observer; letting go of the
        # parties breaks that cycle, so reference counting frees a finished run.
        self.parties, self.pending = [], []
        return RunReport(
            config=scenario_dict(self.cfg),
            stalled=stalled,
            steps=steps,
            messages=messages,
            bytes=nbytes,
            finalized_instances=finalized,
            phases=dict(self.phases),
            rounds={f"{i}:{s}": r for (i, s), r in self.rounds.items()},
            decisions={
                f"{i}:{s}": next(iter(per.values()))[0] for (i, s), per in self.decisions.items()
            },
            duplicate_ratios=ratios,
            delivered_total=len(ref.log),
            log_digest=h.hexdigest(),
            lemma=self.lemma,
            censorship=censorship,
            assertions=asserts,
            failures=self.failures,
            fairness_overrides=fairness_overrides,
        )


# -- the event loop ---------------------------------------------------------------------


def sim_run(cfg: SimConfig, trace_path: Optional[str] = None,
            step_callback: Optional[Callable[[dict], None]] = None) -> RunReport:
    cfg.validate()
    provider = key_setup(cfg.security_param, cfg.n, cfg.n - cfg.f, cfg.seed)
    recorder = RunRecorder(cfg, provider)
    pcfg = cfg.protocol_config()
    parties = [Party(p, provider.party_handle(p), pcfg, observer=recorder) for p in range(cfg.n)]
    behaviors = {
        spec.party: make_behavior(
            spec, provider.party_handle(spec.party),
            random.Random(f"{cfg.seed}|byz|{spec.party}"),
        )
        for spec in cfg.byzantine
    }
    policy = make_policy(cfg.policy, cfg.policy_params, random.Random(f"{cfg.seed}|policy"))
    fairness_bound = cfg.policy_params.get("fairness_bound", 64 * cfg.n)
    honest = set(cfg.honest())

    pending: List[QueueItem] = []
    recorder.attach(parties, pending)

    def push(env: Envelope, step: int) -> None:
        item = QueueItem(step, env)
        policy.note_enqueue(item)
        pending.append(item)

    def outbound(pid: int, step: int, envs: List[Envelope]) -> None:
        b = behaviors.get(pid)
        if b is not None:
            envs = b.filter(step, envs)
        for env in envs:
            if env.sender != pid:  # behaviors cannot spoof the sender
                env = Envelope(pid, env.instance, env.entries, dst=env.dst)
            push(env, step)

    trace = open(trace_path, "w") if trace_path else None
    fairness_overrides = 0
    step = 0
    messages = 0
    nbytes = 0
    try:
        if trace:
            trace.write(json.dumps({"format": TRACE_FORMAT, "config": scenario_dict(cfg)},
                                   sort_keys=True) + "\n")
        for p in parties:
            b = behaviors.get(p.pid)
            if b is not None and b.crashed(0):
                continue
            outbound(p.pid, 0, p.begin())
        # A party's state changes only while it handles an envelope, so each
        # step only the receiver can leave this set.
        unfinished = {p for p in honest if not parties[p].finished}

        while pending and step < cfg.max_steps and unfinished:
            step += 1
            if step - pending[0].enqueued > fairness_bound:
                idx = 0
                fairness_overrides += 1
            else:
                idx = policy.choose(pending, step)
            item = pending.pop(idx)
            env = item.env
            if env.sender in honest:
                messages += 1
                nbytes += env.size()
            b = behaviors.get(env.dst)
            if b is None or not b.crashed(step):
                recorder.current_env = env
                outs = parties[env.dst].handle(env)
                recorder.current_env = None
                if parties[env.dst].finished:
                    unfinished.discard(env.dst)
                outbound(env.dst, step, outs)
            if trace or step_callback:
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
        stalled = bool(unfinished)
    finally:
        if trace:
            trace.close()
    return recorder.finish(step, messages, nbytes, stalled, fairness_overrides)


def replay_trace(path: str) -> Tuple[bool, Optional[int], str]:
    """Re-execute a trace's config and compare per-step records.

    Returns (ok, first_divergent_step, detail)."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("format") != TRACE_FORMAT:
        raise ConfigError("not a trace file")
    cfg = config_from_dict(lines[0]["config"])
    records = lines[1:]
    state = {"i": 0, "bad": None, "detail": ""}

    def cb(rec: dict) -> None:
        i = state["i"]
        state["i"] = i + 1
        if state["bad"] is not None:
            return
        if i >= len(records):
            state["bad"] = rec["step"]
            state["detail"] = "trace ended early"
        elif records[i] != rec:
            state["bad"] = rec["step"]
            state["detail"] = f"expected {records[i]}, got {rec}"

    sim_run(cfg, step_callback=cb)
    if state["bad"] is None and state["i"] != len(records):
        state["bad"] = state["i"] + 1
        state["detail"] = "replay ended early"
    return state["bad"] is None, state["bad"], state["detail"]


# -- single-slot agreement harness ----------------------------------------------------------


def make_proven_pair(provider, instance: int, slot: int,
                     payload: bytes) -> Tuple[Ciphertext, ThresholdSignature]:
    """Dealer-side constructor of a broadcast-proven pair, for harness setups."""
    ct = provider.tpke_enc(payload)
    msg = ppb_sign_bytes(instance, slot, ct.ct_digest())
    shares = [provider.sig_share(p, msg) for p in range(provider.n - provider.f)]
    return ct, provider.combine_shares(msg, shares)


class HarnessParty:
    """Single-slot wrapper: one agreement invocation, no committees or batches."""

    def __init__(self, pid: int, crypto, input_bit: int,
                 pair: Optional[Tuple[Ciphertext, ThresholdSignature]]):
        self.pid = pid
        self.crypto = crypto
        self.input_bit = input_bit
        self.pair = pair
        self.inv = SlotInvocation(1, 0, crypto)
        self._wire: List[Tuple[int, object]] = []

    @property
    def finished(self) -> bool:
        return self.inv.outcome_ready

    def held_pairs(self, instance: int) -> Set[int]:
        return {0} if self.inv.pair is not None else set()

    def _emit_all(self, msgs) -> None:
        for m in msgs:
            self._wire.append(m)

    def begin(self) -> List[Envelope]:
        if self.input_bit == 1:
            self._emit_all(self.inv.inv_start(1, *self.pair))
            # No proposal layer here, so holders diffuse the pair themselves;
            # 1-claims are bare and non-holders need the evidence to vote.
            self._wire.append(RecoverResp(1, 0, *self.pair))
        else:
            self._emit_all(self.inv.inv_start(0))
        v = self.inv.take_v()
        if v is not None:
            self._wire.append(v)
        return self._flush()

    def handle(self, env: Envelope) -> List[Envelope]:
        for msg in env.entries:
            self._dispatch(env.sender, msg)
        return self._flush()

    def _dispatch(self, sender: int, msg) -> None:
        inv = self.inv
        kind = type(msg)
        handler = SLOT_HANDLERS.get(kind)
        if handler is not None:
            out: List[object] = []
            getattr(inv, handler)(sender, msg, out)
            self._emit_all(out)
        elif kind is Recover and inv.pair is not None:
            self._wire.append(("unicast", sender, RecoverResp(1, 0, *inv.pair)))

    def _flush(self) -> List[Envelope]:
        n = self.crypto.n
        grouped: Dict[int, List[object]] = {}
        selfq: List[object] = []
        while self._wire:
            entry = self._wire.pop(0)
            if isinstance(entry, tuple) and entry and entry[0] == "unicast":
                _, dst, msg = entry
                if dst == self.pid:
                    selfq.append(msg)
                else:
                    grouped.setdefault(dst, []).append(msg)
            else:
                selfq.append(entry)
                for q in range(n):
                    if q != self.pid:
                        grouped.setdefault(q, []).append(entry)
            for msg in selfq:
                self._dispatch(self.pid, msg)
            selfq.clear()
        return [
            Envelope(self.pid, 1, tuple(msgs), dst=dst) for dst, msgs in grouped.items()
        ]


def abba_harness_run(n: int, f: int, seed: int, inputs: List[int],
                     byzantine: Tuple[BehaviorSpec, ...] = (),
                     policy: str = "random", policy_params: Optional[dict] = None,
                     max_steps: int = 50_000) -> dict:
    """Run one biased-agreement instance in isolation; 1-inputters hold a proven pair."""
    params = policy_params or {}
    validate_run(n, f, byzantine, policy, params)
    if len(inputs) != n:
        raise ConfigError("need one input bit per party")
    if any(inputs[p] not in (0, 1) for p in range(n)):
        raise ConfigError("input bits must be 0 or 1")
    provider = key_setup(128, n, n - f, seed)
    pair = make_proven_pair(provider, 1, 0, b"harness-payload")
    byz = {spec.party for spec in byzantine}
    parties = [
        HarnessParty(p, provider.party_handle(p), inputs[p], pair if inputs[p] == 1 else None)
        for p in range(n)
    ]
    behaviors = {
        spec.party: make_behavior(spec, provider.party_handle(spec.party),
                                  random.Random(f"{seed}|byz|{spec.party}"))
        for spec in byzantine
    }
    pol = make_policy(policy, params, random.Random(f"{seed}|policy"))
    fairness_bound = params.get("fairness_bound", 64 * n)
    honest = [p for p in range(n) if p not in byz]
    pending: List[QueueItem] = []

    def push(env: Envelope, step: int) -> None:
        pending.append(QueueItem(step, env))
        pol.note_enqueue(pending[-1])

    def outbound(pid: int, step: int, envs: List[Envelope]) -> None:
        b = behaviors.get(pid)
        if b is not None:
            envs = b.filter(step, envs)
        for env in envs:
            if env.sender != pid:
                env = Envelope(pid, env.instance, env.entries, dst=env.dst)
            push(env, step)

    step = messages = 0
    for p in parties:
        b = behaviors.get(p.pid)
        if b is not None and b.crashed(0):
            continue
        outbound(p.pid, 0, p.begin())
    unfinished = {p for p in honest if not parties[p].finished}  # see sim_run
    while pending and step < max_steps and unfinished:
        step += 1
        if step - pending[0].enqueued > fairness_bound:
            idx = 0
        else:
            idx = pol.choose(pending, step)
        item = pending.pop(idx)
        env = item.env
        if env.sender not in byz:
            messages += 1
        b = behaviors.get(env.dst)
        if b is None or not b.crashed(step):
            outs = parties[env.dst].handle(env)
            if parties[env.dst].finished:
                unfinished.discard(env.dst)
            outbound(env.dst, step, outs)
    stalled = bool(unfinished)
    return {
        "decisions": {p: parties[p].inv.decided for p in honest},
        "inputs": {p: inputs[p] for p in honest},
        "messages": messages,
        "steps": step,
        "stalled": stalled,
    }
