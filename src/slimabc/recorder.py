"""The run recorder, an `Observer` of every party: it records what honest
parties report (committees, ABBA inputs and decisions, phases) and a lemma
snapshot per instance, and `finish` runs its table of checkers (`CHECKS`)
into a `RunReport`.  Each checker yields the violations of one property and
can be called on its own with `recorder.context(stalled)`."""
from __future__ import annotations

import hashlib
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .config import SimConfig, scenario_dict
from .messages import Envelope, carries_pair
from .metrics import RunReport, duplicate_ratio
from .protocol import Observer, Party, instance_pool


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

    def on_finalized(self, party, instance, phases) -> None:
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
                    if m.instance == instance and carries_pair(m):
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
