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
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from .committee import Committee
from .crypto import Ciphertext, ThresholdSignature, key_setup
from .invocation import SlotInvocation
from .messages import (
    BROADCAST,
    AbbaMainvote,
    AbbaPrevote,
    Envelope,
    PpbPayload,
    Proposal,
    RecoverResp,
    Suggestion,
    VMsg,
)
from .metrics import RunReport, duplicate_ratio
from .ppb import ppb_sign_bytes
from .protocol import InstanceState, Observer, Party, instance_pool, wire_envelopes

SCENARIO_FORMAT = "slimabc-scenario-1"
TRACE_FORMAT = "slimabc-trace-1"

POLICY_PARAMS = {"fairness_bound": 1, "budget": 0}  # key -> least allowed value

# JSON type of each config field other than `byzantine`; any field not named
# here is an integer.  bool is never accepted where a number is meant.
FIELD_TYPES = {"policy": str, "policy_params": dict, "overlap": (int, float), "kind": str}


class ConfigError(Exception):
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
        """Raise ConfigError unless this config can run: every field, and each
        behavior spec's, has its JSON type, and every value is in range."""
        for obj in (self, *self.byzantine):
            for fld in dataclasses.fields(obj):
                if fld.name == "byzantine":
                    continue
                value = getattr(obj, fld.name)
                want = FIELD_TYPES.get(fld.name, int)
                if type(value) is bool or not isinstance(value, want):
                    raise ConfigError(f"config field {fld.name} has the wrong type: {value!r}")
        n, f = self.n, self.f
        if f < 1 or n != 3 * f + 1:
            raise ConfigError(f"need n = 3f+1 with f >= 1, got n={n} f={f}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        for key in self.policy_params:
            if key not in POLICY_PARAMS:
                raise ConfigError(f"unknown policy_params key {key!r}")
        for key, least in POLICY_PARAMS.items():
            value = self.policy_params.get(key, least)
            if type(value) is not int or value < least:
                raise ConfigError(
                    f"policy_params {key} must be an integer >= {least}, got {value!r}")
        if len(self.byzantine) > f:
            raise ConfigError(f"at most f={f} byzantine parties")
        seen = set()
        for spec in self.byzantine:
            if spec.kind not in BEHAVIORS:
                raise ConfigError(f"unknown behavior {spec.kind!r}")
            if not 0 <= spec.party < n:
                raise ConfigError(f"behavior party {spec.party} out of range")
            if spec.party in seen:
                raise ConfigError(f"duplicate behavior for party {spec.party}")
            seen.add(spec.party)
        if self.instances < 1:
            raise ConfigError("instances must be >= 1")
        if min(self.pool_size, self.batch_size, self.request_size) < 1:
            raise ConfigError("pool, batch and request sizes must be >= 1")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError("overlap must be within [0, 1]")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if not 1 <= self.security_param < 2**32:
            raise ConfigError("security_param must be in 1..2**32-1")

    def honest(self) -> List[int]:
        byz = {b.party for b in self.byzantine}
        return [p for p in range(self.n) if p not in byz]


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
    byz_list = d.pop("byzantine", [])
    if not isinstance(byz_list, list):
        raise ConfigError("scenario field byzantine must be a list")
    try:
        byz = tuple(BehaviorSpec(**b) for b in byz_list)
        cfg = SimConfig(byzantine=byz, **d)
    except TypeError as e:
        raise ConfigError(f"bad scenario fields: {e}") from e
    cfg.validate()
    return cfg


def load_scenario(path: str) -> SimConfig:
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8
            data = json.load(fh)
    except (OSError, ValueError) as e:  # unreadable, undecodable or malformed JSON
        raise ConfigError(f"cannot read scenario {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    return config_from_dict(data)


# -- delivery policies ------------------------------------------------------------


def _carries_pair(m) -> bool:
    """Whether entry `m` carries a slot's (ciphertext, proof) pair."""
    return isinstance(m, (Proposal, Suggestion, RecoverResp)) \
        or (isinstance(m, VMsg) and m.pair is not None)


class Policy:
    """Picks which pending envelope is delivered next (`choose` returns its
    index in the queue, a list of `Envelope`s in the order they were queued).
    Every policy is built as cls(policy_params, rng)."""

    def __init__(self, params: dict, rng: random.Random):
        self.rng = rng


class FifoPolicy(Policy):
    def choose(self, pending: List[Envelope]) -> int:
        return 0


class RandomPolicy(Policy):
    """Draws each index as `rng.randrange(len(pending))` does, without its
    call frames: `len(pending).bit_length()` random bits, drawn again while
    the result is out of range, so the sequence of choices is the same."""

    def __init__(self, params: dict, rng: random.Random):
        super().__init__(params, rng)
        self._getrandbits = rng.getrandbits

    def choose(self, pending: List[Envelope]) -> int:
        n = len(pending)
        k = n.bit_length()
        getrandbits = self._getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r


class TargetingPolicy(Policy):
    """Targets the (instance, slot) of the first proposal enqueued; the event
    loop shows it each queued envelope until the target is set.  The target
    never changes once set, so each queued envelope is classified against it
    once, by `touches` into `Envelope.targeted`, the first time `choose`
    looks at it: one queued before the first proposal can touch the target
    too."""

    target: Optional[Tuple[int, int]] = None

    def note_enqueue(self, env: Envelope) -> None:
        if self.target is None:
            for m in env.entries:
                if isinstance(m, Proposal):
                    self.target = (m.instance, m.slot)
                    return


class AdversarialDelayPolicy(TargetingPolicy):
    """Defers every envelope touching the target slot `budget` times."""

    def __init__(self, params: dict, rng: random.Random):
        super().__init__(params, rng)
        self.budget = params.get("budget", 12)

    def touches(self, env: Envelope) -> bool:
        inst, slot = self.target
        for m in env.entries:
            if m.slot == slot and m.instance == inst:
                return True
        return False

    def choose(self, pending: List[Envelope]) -> int:
        if self.target is None:
            return 0
        budget = self.budget
        for i, env in enumerate(pending):
            targeted = env.targeted
            if targeted is None:
                targeted = env.targeted = self.touches(env)
            if targeted and env.deferrals < budget:
                env.deferrals += 1
                continue
            return i
        return 0


class TargetedStarvePolicy(TargetingPolicy):
    """Holds the target slot's pair dissemination back while anything else
    is deliverable, so that slot's agreement must run without it."""

    def touches(self, env: Envelope) -> bool:
        inst, slot = self.target
        for m in env.entries:
            if m.slot == slot and m.instance == inst and _carries_pair(m):
                return True
        return False

    def choose(self, pending: List[Envelope]) -> int:
        if self.target is not None:
            for i, env in enumerate(pending):
                targeted = env.targeted
                if targeted is None:
                    targeted = env.targeted = self.touches(env)
                if not targeted:
                    return i
        return 0


POLICIES = {
    "fifo": FifoPolicy,
    "random": RandomPolicy,
    "adversarial-delay": AdversarialDelayPolicy,
    "targeted-starve": TargetedStarvePolicy,
}


# -- byzantine behaviors -------------------------------------------------------------


def _with_last(obj, value):
    """A copy of record `obj` with its last field set to `value`: every
    share-carrying message kind keeps its share last, and every share type
    its share bytes."""
    return type(obj)(*obj[:-1], value)


def _flip_share(msg):
    share = msg.share
    raw = share.share_bytes
    return _with_last(msg, _with_last(share, bytes([raw[0] ^ 0xFF]) + raw[1:]))


class Behavior:
    def __init__(self, spec: BehaviorSpec, crypto, rng: random.Random):
        self.spec = spec
        self.crypto = crypto
        self.rng = rng

    def crashed(self, step: int) -> bool:
        return False

    def filter(self, step: int, envs: List[Envelope]) -> List[Envelope]:
        """Pass each envelope through `mutate`, entry by entry: an envelope
        whose entries all come back as they were is passed on as is; one left
        with no entries is dropped."""
        out = []
        mutate = self.mutate
        for env in envs:
            dst, entries, changed = env.dst, [], False
            for m in env.entries:
                e = mutate(step, dst, m)
                if e is not m:
                    changed = True
                    if e is None:
                        continue
                entries.append(e)
            if not changed:
                out.append(env)
            elif entries:
                out.append(Envelope(env.sender, env.instance, tuple(entries), dst))
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
            return PpbPayload(msg.instance, msg.slot, alt)
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
        kind = type(msg)
        if kind is AbbaPrevote:
            return AbbaPrevote(msg.instance, msg.slot, msg.round, self.rng.randrange(2),
                               msg.justification, msg.share)
        if kind is AbbaMainvote:
            return AbbaMainvote(msg.instance, msg.slot, msg.round, self.rng.choice((0, 1, 2)),
                                msg.justification, msg.share)
        if kind is VMsg and msg.u == 0 and self.rng.random() < 0.3:
            # claim 1 without shipping a pair
            return VMsg(msg.instance, msg.slot, 1, msg.ciphertext, msg.proof)
        return msg


BEHAVIORS = {
    "crash": CrashBehavior,
    "silent": SilentBehavior,
    "equivocate-ppb": EquivocatePpbBehavior,
    "corrupt-shares": CorruptSharesBehavior,
    "withhold-suggestions": WithholdSuggestionsBehavior,
    "random-votes": RandomVotesBehavior,
}


# -- run recording and property checking ------------------------------------------------


class RunContext(NamedTuple):
    """What the property checks read of a finished run."""
    stalled: bool
    honest: List[int]  # sorted
    logs: List[list]  # the honest parties' delivery logs, in `honest` order
    ref: Party  # the first honest party; the report shows its outputs
    finalized: int  # instances every honest party finalized


class RunRecorder(Observer):
    def __init__(self, cfg: SimConfig, provider):
        self.cfg = cfg
        self.provider = provider
        self.honest = set(cfg.honest())
        self.parties: List[Party] = []
        self.pending: List[Envelope] = []
        self.current_env: Optional[Envelope] = None  # the envelope being handled
        self.committees: Dict[int, Dict[int, tuple]] = {}
        self.inputs: Dict[Tuple[int, int], Dict[int, int]] = {}
        self.decisions: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
        self.phases: Dict[int, int] = {}
        self.swept: Set[int] = set()
        self.lemma: List[dict] = []
        self.failures: List[str] = []

    def attach(self, parties: List[Party], pending: List[Envelope]) -> None:
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

    def on_finalized(self, party, instance, outputs, rounds, phases) -> None:
        if party in self.honest:
            self.phases[instance] = max(self.phases.get(instance, 0), phases)

    # Lemma introspection ---------------------------------------------------------

    def _lemma_snapshot(self, instance: int) -> None:
        committee = next(iter(self.committees.get(instance, {}).values()), ())
        held_by = [party.held_pairs(instance) for party in self.parties]
        # One pass over the queue and the envelope being handled: the parties
        # each slot's pair is on its way to from an honest sender.
        envs = list(self.pending)
        if self.current_env is not None:
            envs.append(self.current_env)
        inflight: Dict[int, Set[int]] = {}
        for env in envs:
            if env.sender in self.honest:
                for m in env.entries:
                    if m.instance == instance and _carries_pair(m):
                        inflight.setdefault(m.slot, set()).add(env.dst)
        per_slot = {}
        for slot in committee:
            held = {p for p, slots in enumerate(held_by) if slot in slots}
            per_slot[slot] = (len(held), len(held | inflight.get(slot, set())))
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

    # Property checks ---------------------------------------------------------------
    # Each yields (property, detail) per violation, in report order; a violation
    # breaks the key named after its property, or the keys listed after detail.

    def context(self, stalled: bool) -> RunContext:
        honest = sorted(self.honest)
        parties = self.parties
        return RunContext(stalled, honest, [parties[p].log for p in honest], parties[honest[0]],
                          min((len(parties[p].outputs_by_instance) for p in honest), default=0))

    def check_committees(self, run: RunContext):
        if any(len(set(per.values())) != 1 for per in self.committees.values()):
            yield "committee_agreement", "honest parties derived different committees"

    def check_agreement(self, run: RunContext):
        logs = run.logs
        k = min(len(lg) for lg in logs) if run.stalled else None  # a stalled run: shared prefix
        if any(lg[:k] != logs[0][:k] for lg in logs):
            yield "agreement", "honest delivery logs diverge"

    def check_total_order(self, run: RunContext):
        first = run.logs[0]
        # of two logs, the shorter is a prefix of the longer
        if any(lg[:len(first)] != first[:len(lg)] for lg in run.logs):
            yield "total_order", "logs are not prefix-consistent"

    def check_totality(self, run: RunContext):
        if run.stalled:
            yield "totality", "some honest party did not finish all instances"

    def check_dedup(self, run: RunContext):
        if any(len({r for (_, _, r) in lg}) != len(lg) for lg in run.logs):
            yield "delivery_dedup", "a request was delivered twice"

    def check_validity(self, run: RunContext):  # both validity keys, instance by instance
        for inst in range(1, run.finalized + 1):
            if not any(bit == 1 for (i, _), per in self.decisions.items() if i == inst
                       for bit, _ in per.values()):
                yield "validity_decided_one", f"instance {inst}: no slot decided 1"
            committee = next(iter(self.committees.get(inst, {}).values()), ())
            # The first honest party's batches are re-encrypted; every other party's
            # outputs are compared with the ones that passed there.
            passed = None  # slot -> (batch, pair) of the first party's sound outputs
            for p in run.honest:
                party, sound = self.parties[p], {}
                at = "" if passed is None else f" at party {p}"
                for slot, batch in party.outputs_by_instance[inst].items():
                    pair, faults = party.archive.get(inst, {}).get(slot), []
                    if slot not in committee:
                        faults.append("not in committee")
                    elif pair is None:
                        faults.append("missing pair")
                    elif passed is not None:
                        if passed.get(slot, (batch, pair)) != (batch, pair):
                            faults.append(f"differs from party {run.honest[0]}")
                    elif self.provider.tpke_enc(batch.encode()).ct_digest() != pair[0].ct_digest():
                        faults.append("batch does not re-encrypt to the broadcast ciphertext")
                    if batch.proposer != slot or batch.instance != inst:
                        faults.append("binding broken")
                    for fault in faults:
                        yield "validity_content", f"instance {inst} slot {slot}{at} {fault}"
                    if not faults:
                        sound[slot] = (batch, pair)
                if passed is None:
                    passed = sound

    def check_nonempty(self, run: RunContext):
        outputs = run.ref.outputs_by_instance
        if (run.stalled and not run.finalized) \
                or not all(outputs.get(i) for i in range(1, run.finalized + 1)):
            yield "validity_nonempty", "fault-free instance delivered nothing"

    def check_abba_agreement(self, run: RunContext):
        for (inst, slot), per in self.decisions.items():
            bits = {bit for bit, _ in per.values()}
            if len(bits) > 1:
                yield "abba_agreement", f"instance {inst} slot {slot} decided {bits}"

    def check_abba_validity(self, run: RunContext):
        for (inst, slot), per in self.decisions.items():
            bits = {bit for bit, _ in per.values()}
            inputs = self.inputs.get((inst, slot), {}).values()
            if bits == {0} and 0 not in inputs:
                yield "abba_validity", f"instance {inst} slot {slot}: 0 without honest 0-input"
            if bits == {1} and 1 not in inputs \
                    and not any(slot in self.parties[p].held_pairs(inst) for p in run.honest):
                yield ("abba_validity",
                       f"instance {inst} slot {slot}: 1 without honest 1-input or proven pair")

    def check_biased_validity(self, run: RunContext):
        for (inst, slot), per in self.inputs.items():
            ones = list(per.values()).count(1)
            decided = self.decisions.get((inst, slot), {}).values()
            if ones >= self.cfg.f + 1 and any(bit != 1 for bit, _ in decided):
                yield ("biased_validity",
                       f"instance {inst} slot {slot}: {ones} honest 1-inputs but decided 0")

    def check_lemmas(self, run: RunContext):
        for entry in self.lemma:
            broken = [key for key in ("lemma1", "lemma2") if not entry[key]]
            if broken:
                yield ("lemma", f"instance {entry['instance']}: {entry}", *broken)

    # (check, the assertion keys it owns), in the order the failures are reported
    CHECKS = (
        (check_committees, ("committee_agreement",)),
        (check_agreement, ("agreement",)),
        (check_total_order, ("total_order",)),
        (check_totality, ("totality",)),
        (check_dedup, ("delivery_dedup",)),
        (check_validity, ("validity_content", "validity_decided_one")),
        (check_nonempty, ("validity_nonempty",)),
        (check_abba_agreement, ("abba_agreement",)),
        (check_abba_validity, ("abba_validity",)),
        (check_biased_validity, ("biased_validity",)),
        (check_lemmas, ("lemma1", "lemma2")),
    )

    def finish(self, steps: int, messages: int, nbytes: int, stalled: bool,
               fairness_overrides: int) -> RunReport:
        run = self.context(stalled)
        asserts: Dict[str, bool] = {}
        for check, keys in self.CHECKS:
            if check is RunRecorder.check_nonempty and self.cfg.byzantine:
                continue  # a faulty run may rightly deliver nothing
            asserts.update(dict.fromkeys(keys, True))
            for prop, detail, *broken in check(self, run):
                asserts.update(dict.fromkeys(broken or (prop,), False))
                self.failures.append(f"{prop}: {detail}")

        ratios = {inst: duplicate_ratio([b.requests for b in outputs.values()])
                  for inst, outputs in run.ref.outputs_by_instance.items()}
        censorship = None
        if self.cfg.overlap > 0 and round(self.cfg.overlap * self.cfg.pool_size) >= 1:
            marked = instance_pool(self.cfg, 1, 0)[0]
            delivered_at = next((inst for inst, _, r in run.ref.log if r == marked), None)
            censorship = {"marked_delivered_instance": delivered_at}

        h = hashlib.sha256()
        for inst, slot, req in run.ref.log:
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
            finalized_instances=run.finalized,
            phases=dict(self.phases),
            rounds={
                f"{i}:{s}": max(round_ for _, round_ in per.values())
                for (i, s), per in self.decisions.items()
            },
            decisions={
                f"{i}:{s}": next(iter(per.values()))[0] for (i, s), per in self.decisions.items()
            },
            duplicate_ratios=ratios,
            delivered_total=len(run.ref.log),
            log_digest=h.hexdigest(),
            lemma=self.lemma,
            censorship=censorship,
            assertions=asserts,
            failures=self.failures,
            fairness_overrides=fairness_overrides,
        )


# -- the event loop ---------------------------------------------------------------------


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
    Given the proven pair it inputs 1, else 0.  Entries go through
    `Party._deliver`, but `begin` and `handle` are its own: perfbench's
    tracer times each class's entry points apart, so a call through to
    `Party`'s would count an envelope twice.  The harness counts no bytes,
    so its flush sizes no envelope."""

    def __init__(self, pid: int, crypto, cfg: SimConfig,
                 pair: Optional[Tuple[Ciphertext, ThresholdSignature]]):
        super().__init__(pid, crypto, cfg)
        self.pair = pair
        self.instance = 1
        self.inv = SlotInvocation(1, 0, crypto, self._owner)
        self.inst = InstanceState(committee=Committee(1, (0,)), slots={0: self.inv})

    def begin(self) -> List[Envelope]:
        inv, out = self.inv, self._out
        if self.pair is not None:
            self._multicast(inv.inv_start(1, *self.pair, out))
            # No proposal layer here, so holders diffuse the pair themselves;
            # 1-claims are bare and non-holders need the evidence to vote.
            self._emit(BROADCAST, RecoverResp(1, 0, *self.pair))
        else:
            self._multicast(inv.inv_start(0, None, None, out))
        self._emit(BROADCAST, inv.take_v())
        return self._settle()

    def handle(self, env: Envelope) -> List[Envelope]:
        self._deliver(env.sender, env.entries)
        return self._settle()

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
