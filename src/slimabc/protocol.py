"""Atomic broadcast orchestration.

Instances run sequentially.  Per instance: every party contributes a
committee-selection coin share; the f+1 elected members encrypt a batch
sampled from their pending pool and run provable broadcast for it; a
member holding its proof multicasts the (ciphertext, proof) pair, every
party relays the first valid pair it sees (once), and after 2f+1
distinct pair senders each party fixes a 1-bit claim per slot and runs
one binary agreement per slot.  Slots decided 1 are threshold-decrypted
and their batches delivered in slot order, deduplicated byte-exactly
against everything delivered before.

Messages for future instances are buffered; traffic for finished
instances is dropped, except recovery requests, which are served from
the archive of proven pairs so a lagging party can always catch up.
"""
from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .committee import Committee, CsState
from .crypto import Ciphertext, PartyCrypto, ThresholdSignature
from .invocation import SLOT_HANDLERS, SlotInvocation
from .messages import (
    BROADCAST,
    CsShare,
    Envelope,
    Message,
    PpbPayload,
    PpbShare,
    Proposal,
    Recover,
    RecoverResp,
    Suggestion,
    entries_size,
)
from .ppb import PpbReceiver, PpbSender

BATCH_MAGIC = b"RB1"


@dataclass(frozen=True)
class RequestBatch:
    """Canonical payload of one slot: proposer-bound, instance-bound."""

    proposer: int
    instance: int
    requests: Tuple[bytes, ...]

    def encode(self) -> bytes:
        parts = [BATCH_MAGIC, struct.pack(">HQH", self.proposer, self.instance, len(self.requests))]
        for r in self.requests:
            parts.append(struct.pack(">I", len(r)))
            parts.append(r)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "RequestBatch":
        if data[:3] != BATCH_MAGIC or len(data) < 15:
            raise ValueError("bad batch header")
        proposer, instance, count = struct.unpack(">HQH", data[3:15])
        off = 15
        requests = []
        for _ in range(count):
            if off + 4 > len(data):
                raise ValueError("truncated batch")
            (ln,) = struct.unpack(">I", data[off : off + 4])
            off += 4
            if off + ln > len(data):
                raise ValueError("truncated request")
            requests.append(data[off : off + ln])
            off += ln
        if off != len(data):
            raise ValueError("trailing bytes in batch")
        return cls(proposer, instance, tuple(requests))


@dataclass
class ProtocolConfig:
    instances: int
    pool_size: int
    batch_size: int
    request_size: int
    overlap: float
    seed: int


def instance_pool(cfg: ProtocolConfig, instance: int, party: int) -> List[bytes]:
    """Fresh requests entering this party's pending pool for one instance.

    The first round(overlap * pool_size) requests are shared verbatim by
    every party; the rest are private to the party.
    """
    shared_n = round(cfg.overlap * cfg.pool_size)
    shared = random.Random(f"{cfg.seed}|pool|{instance}|shared")
    private = random.Random(f"{cfg.seed}|pool|{instance}|{party}")
    pool = [shared.randbytes(cfg.request_size) for _ in range(shared_n)]
    pool += [private.randbytes(cfg.request_size) for _ in range(cfg.pool_size - shared_n)]
    return pool


def sample_batch(cfg: ProtocolConfig, party: int, instance: int,
                 pending: List[bytes]) -> Tuple[bytes, ...]:
    rng = random.Random(f"{cfg.seed}|batch|{party}|{instance}")
    k = min(cfg.batch_size, len(pending))
    idx = sorted(rng.sample(range(len(pending)), k))  # keep pool order canonical
    return tuple(pending[i] for i in idx)


class Observer:
    """No-op hooks; the simulator subclasses what it needs."""

    def on_committee(self, party: int, instance: int, committee: Committee) -> None: ...

    def on_proof(self, party: int, instance: int, slot: int) -> None: ...

    def on_sweep(self, party: int, instance: int) -> None: ...

    def on_abba_input(self, party: int, instance: int, slot: int, bit: int) -> None: ...

    def on_slot_decided(self, party: int, instance: int, slot: int, bit: int,
                        round_: int) -> None: ...

    def on_finalized(self, party: int, instance: int, outputs: Dict[int, RequestBatch],
                     rounds: Dict[int, int], phases: int) -> None: ...

    def on_finished(self, party: int) -> None: ...


@dataclass
class InstanceState:
    cs: CsState
    committee: Optional[Committee] = None
    ppb_recv: Optional[PpbReceiver] = None
    ppb_send: Optional[PpbSender] = None
    my_ciphertext: Optional[Ciphertext] = None
    slots: Dict[int, SlotInvocation] = field(default_factory=dict)
    sugg_senders: Set[int] = field(default_factory=set)
    relayed: bool = False
    swept: bool = False
    buffer: List[Tuple[int, Message]] = field(default_factory=list)  # pre-committee


class Party:
    def __init__(self, pid: int, crypto: PartyCrypto, cfg: ProtocolConfig,
                 observer: Optional[Observer] = None):
        self.pid = pid
        self.crypto = crypto
        self.cfg = cfg
        self.observer = observer or Observer()
        self.n = crypto.n
        self.f = crypto.f
        self.instance = 0
        self.finished = False
        self.pending: List[bytes] = []
        self.log: List[Tuple[int, int, bytes]] = []  # (instance, slot, request)
        self.delivered: Set[bytes] = set()
        self.outputs_by_instance: Dict[int, Dict[int, RequestBatch]] = {}
        self.archive: Dict[int, Dict[int, Tuple[Ciphertext, ThresholdSignature]]] = {}
        self.inst: Optional[InstanceState] = None
        self._future: Dict[int, List[Tuple[int, Message]]] = {}
        self._wire: List[Tuple[int, Message]] = []
        self._selfq: List[Message] = []

    # -- lifecycle -------------------------------------------------------------

    def begin(self) -> List[Envelope]:
        self._start_instance(1)
        self._drain_selfq()
        while self._maybe_finalize():
            self._drain_selfq()
        return self._flush()

    def handle(self, env: Envelope) -> List[Envelope]:
        for msg in env.entries:
            self._route(env.sender, msg)
        self._drain_selfq()
        while self._maybe_finalize():
            self._drain_selfq()
        return self._flush()

    def _start_instance(self, number: int) -> None:
        self.instance = number
        self.pending.extend(instance_pool(self.cfg, number, self.pid))
        self.inst = InstanceState(cs=CsState(number, self.crypto))
        share = self.inst.cs.start()
        self._emit(BROADCAST, CsShare(number, share))
        committee = self.inst.cs.committee  # f+1 buffered shares can already settle it
        if committee is not None:
            self._on_committee(committee)
        for sender, msg in self._future.pop(number, []):
            self._route(sender, msg)

    # -- emission / delivery plumbing -------------------------------------------

    def _emit(self, dst: int, msg: Message) -> None:
        if dst == BROADCAST:
            self._wire.append((BROADCAST, msg))
            self._selfq.append(msg)
        elif dst == self.pid:
            self._selfq.append(msg)
        else:
            self._wire.append((dst, msg))

    def _drain_selfq(self) -> None:
        while self._selfq:
            self._route(self.pid, self._selfq.pop(0))

    def _flush(self) -> List[Envelope]:
        wire, self._wire = self._wire, []
        if not wire:
            return []
        instance = wire[0][1].instance
        if all(dst == BROADCAST and msg.instance == instance for dst, msg in wire):
            # One envelope body for all n-1 peers: share its entries and size.
            entries = tuple(msg for _, msg in wire)
            size = entries_size(entries)
            return [
                Envelope(self.pid, instance, entries, dst=q, _size=size)
                for q in range(self.n)
                if q != self.pid
            ]
        grouped: Dict[Tuple[int, int], List[Message]] = {}
        for dst, msg in wire:
            if dst == BROADCAST:
                for q in range(self.n):
                    if q != self.pid:
                        grouped.setdefault((q, msg.instance), []).append(msg)
            else:
                grouped.setdefault((dst, msg.instance), []).append(msg)
        return [
            Envelope(dst=dst, sender=self.pid, instance=inst, entries=tuple(msgs))
            for (dst, inst), msgs in grouped.items()
        ]

    # -- routing ------------------------------------------------------------------

    def _route(self, sender: int, msg: Message) -> None:
        if msg.instance > self.instance:
            self._future.setdefault(msg.instance, []).append((sender, msg))
            return
        if msg.instance < self.instance:
            if type(msg) is Recover:
                self._serve_recover(sender, msg)
            return
        self._dispatch(sender, msg)

    def _dispatch(self, sender: int, msg: Message) -> None:
        inst = self.inst
        kind = type(msg)
        if kind is CsShare:
            committee = inst.cs.on_share(sender, msg.share)
            if committee is not None and inst.committee is None:
                self._on_committee(committee)
            return
        if kind is Recover:
            self._serve_recover(sender, msg)
            return
        if inst.committee is None:
            inst.buffer.append((sender, msg))
            return
        handler = SLOT_HANDLERS.get(kind)
        if handler is not None:
            inv = inst.slots.get(msg.slot)
            if inv is not None:
                self._slot_call(inv, getattr(inv, handler), sender, msg)
        elif kind is PpbPayload:
            if msg.slot != sender:
                return
            share = inst.ppb_recv.on_payload(sender, msg.ciphertext)
            if share is not None:
                self._emit(sender, PpbShare(self.instance, sender, share))
        elif kind is PpbShare:
            if inst.ppb_send is None or msg.slot != self.pid:
                return
            proof = inst.ppb_send.on_share(sender, msg.share)
            if proof is not None:
                inst.relayed = True  # own proposal doubles as this party's relay
                self.observer.on_proof(self.pid, self.instance, self.pid)
                self._emit(
                    BROADCAST,
                    Proposal(self.instance, self.pid, inst.my_ciphertext, proof.sig),
                )
        elif kind is Proposal:
            if msg.slot != sender:
                return
            self._on_pair(sender, msg.slot, msg.ciphertext, msg.proof)
        elif kind is Suggestion:
            if msg.relayer != sender:
                return
            self._on_pair(sender, msg.slot, msg.ciphertext, msg.proof)

    def _slot_call(self, inv: SlotInvocation, op, *args):
        """Run `op(*args, out)` on one slot, multicast its emissions `out`,
        report input and decision transitions, and return op's result."""
        had_input = inv.input_bit is not None
        had_decision = inv.decided is not None
        out: List[Message] = []
        result = op(*args, out)
        for m in out:
            self._emit(BROADCAST, m)
        if not had_input and inv.input_bit is not None:
            self.observer.on_abba_input(self.pid, self.instance, inv.slot, inv.input_bit)
        if not had_decision and inv.decided is not None:
            self.observer.on_slot_decided(
                self.pid, self.instance, inv.slot, inv.decided[0], inv.decided[1]
            )
        return result

    # -- phase transitions ---------------------------------------------------------

    def _on_committee(self, committee: Committee) -> None:
        inst = self.inst
        inst.committee = committee
        self.observer.on_committee(self.pid, self.instance, committee)
        inst.ppb_recv = PpbReceiver(
            self.instance, self.crypto, committee, validator=self.crypto.ciphertext_wellformed
        )
        for member in committee.members:
            inst.slots[member] = SlotInvocation(self.instance, member, self.crypto)
        if self.pid in committee:
            batch = RequestBatch(
                self.pid, self.instance, sample_batch(self.cfg, self.pid, self.instance, self.pending)
            )
            inst.my_ciphertext = self.crypto.tpke_enc(batch.encode())
            inst.ppb_send = PpbSender(self.instance, self.crypto, committee, inst.my_ciphertext)
            self._emit(BROADCAST, PpbPayload(self.instance, self.pid, inst.my_ciphertext))
        buffered, inst.buffer = inst.buffer, []
        for sender, msg in buffered:
            self._dispatch(sender, msg)

    def _on_pair(self, sender: int, slot: int, ciphertext: Ciphertext,
                 proof: ThresholdSignature) -> None:
        inst = self.inst
        inv = inst.slots.get(slot)
        if inv is None:
            return
        if not self._slot_call(inv, inv.record_pair, ciphertext, proof):
            return
        inst.sugg_senders.add(sender)
        if not inst.relayed:
            inst.relayed = True
            self._emit(BROADCAST, Suggestion(self.instance, slot, ciphertext, proof, self.pid))
        if not inv.started:
            self._slot_call(inv, inv.inv_start, 1, ciphertext, proof)
        self._maybe_sweep()

    def _maybe_sweep(self) -> None:
        inst = self.inst
        if inst.swept or len(inst.sugg_senders) < 2 * self.f + 1:
            return
        inst.swept = True
        self.observer.on_sweep(self.pid, self.instance)
        for slot in sorted(inst.slots):
            inv = inst.slots[slot]
            if not inv.started:
                self._slot_call(inv, inv.inv_start, 0, None, None)
            v = inv.take_v()
            if v is not None:
                self._emit(BROADCAST, v)

    def _serve_recover(self, sender: int, msg: Recover) -> None:
        pair = None
        if msg.instance == self.instance and self.inst is not None:
            inv = self.inst.slots.get(msg.slot)
            pair = inv.pair if inv is not None else None
        elif msg.instance < self.instance:
            pair = self.archive.get(msg.instance, {}).get(msg.slot)
        if pair is not None:
            self._emit(sender, RecoverResp(msg.instance, msg.slot, pair[0], pair[1]))

    # -- finalization -----------------------------------------------------------------

    def _maybe_finalize(self) -> bool:
        inst = self.inst
        if (
            self.finished
            or inst is None
            or inst.committee is None
            or not all(inv.outcome_ready for inv in inst.slots.values())
        ):
            return False
        outputs: Dict[int, RequestBatch] = {}
        rounds: Dict[int, int] = {}
        pairs: Dict[int, Tuple[Ciphertext, ThresholdSignature]] = {}
        for slot in sorted(inst.slots):
            inv = inst.slots[slot]
            rounds[slot] = inv.decided[1]
            if inv.decided[0] != 1:
                continue
            pairs[slot] = inv.pair
            try:
                batch = RequestBatch.decode(inv.plaintext)
            except ValueError:
                continue  # provable but invalid content: excluded everywhere alike
            if batch.proposer != slot or batch.instance != self.instance:
                continue
            outputs[slot] = batch
        for slot in sorted(outputs):
            for req in outputs[slot].requests:
                if req not in self.delivered:
                    self.delivered.add(req)
                    self.log.append((self.instance, slot, req))
        self.pending = [r for r in self.pending if r not in self.delivered]
        self.outputs_by_instance[self.instance] = outputs
        self.archive[self.instance] = pairs
        inst.ppb_recv.abandon()
        phases = 4 + max(rounds.values())
        self.observer.on_finalized(self.pid, self.instance, outputs, rounds, phases)
        finished_instance = self.instance
        if finished_instance >= self.cfg.instances:
            self.finished = True
            self.inst = None
            self.instance = finished_instance + 1
            self.observer.on_finished(self.pid)
        else:
            self._start_instance(finished_instance + 1)
        return True

    # -- introspection ------------------------------------------------------------------

    def held_pairs(self, instance: int) -> Set[int]:
        """Slots of `instance` whose full (ciphertext, proof) pair this party holds."""
        if instance == self.instance and self.inst is not None:
            return {s for s, inv in self.inst.slots.items() if inv.pair is not None}
        return set(self.archive.get(instance, {}))

    def state_digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(struct.pack(">HQI", self.pid, self.instance, len(self.log)))
        for entry in self.log[-4:]:
            h.update(struct.pack(">QH", entry[0], entry[1]))
            h.update(entry[2])
        inst = self.inst
        if inst is not None:
            h.update(b"C" if inst.committee else b"-")
            h.update(b"S" if inst.swept else b"-")
            h.update(struct.pack(">H", len(inst.sugg_senders)))
            for slot in sorted(inst.slots):
                inv = inst.slots[slot]
                h.update(
                    struct.pack(
                        ">HBBHB",
                        slot,
                        inv.u,
                        1 if inv.started else 0,
                        inv.abba.round,
                        7 if inv.decided is None else inv.decided[0],
                    )
                )
        return h.digest()
