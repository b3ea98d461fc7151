"""Atomic broadcast orchestration.

Instances run sequentially.  Per instance: every party contributes a
committee-selection coin share; the f+1 elected members encrypt a batch
sampled from their pending pool and run provable broadcast for it; a
member holding its proof multicasts the (ciphertext, proof) pair, every
party relays the first valid pair it sees (once), each leaving the
ciphertext out for the peers known to hold it, and after 2f+1
distinct pair senders each party fixes a 1-bit claim per slot and runs
one binary agreement per slot.  Slots decided 1 are threshold-decrypted
and their batches delivered in slot order, deduplicated byte-exactly
against everything delivered before.  A batch is decoded once per distinct
plaintext: the parties that deliver it share one immutable `RequestBatch`,
its request objects and its log entries, and the shared decode is released
with the last party that holds it, so nothing outlives the run.

Messages a party cannot handle yet (for a later configured instance, or
for the current one before its committee is known) wait in one buffer per
instance, one copy per sender and entry.  Traffic for finished instances
is dropped, except recovery requests, which are served from the archive of
proven pairs so a lagging party can always catch up; traffic for instances
past the configured count is dropped too.  A party answers each sender's
recovery request for a slot once, so copies cannot amplify traffic.
"""
from __future__ import annotations

import hashlib
import random
import struct
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .committee import CsState
from .config import SimConfig
from .crypto import Ciphertext, PartyCrypto, ThresholdSignature
from .invocation import SLOT_HANDLERS, SlotInvocation, SlotOwner
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
    VARINT,
    VMsg,
    entries_size,
    read_varint,
)
from .ppb import PpbReceiver, PpbSender

BATCH_MAGIC = b"RB2"

# One outbound item of a step: a bare message goes to every peer, a
# `(dst, msg)` pair to peer dst only.
WireItem = Union[Message, Tuple[int, Message]]


@dataclass(frozen=True)
class RequestBatch:
    """Canonical payload of one slot: proposer-bound, instance-bound.

    Its bytes are `BATCH_MAGIC`, then the proposer, the instance and the
    request count, then each request's length and bytes, every integer a
    `messages.VARINT`.  `decode` accepts only that encoding: no overlong
    varint, no truncation, no trailing bytes."""

    proposer: int
    instance: int
    requests: Tuple[bytes, ...]

    @cached_property
    def log_entries(self) -> Tuple[Tuple[int, int, bytes], ...]:
        """One `(instance, slot, request)` log entry per request, the slot
        being the proposer's; built once, so every party that delivers this
        batch appends the same tuples."""
        return tuple((self.instance, self.proposer, r) for r in self.requests)

    def encode(self) -> bytes:
        parts = [BATCH_MAGIC, VARINT(self.proposer), VARINT(self.instance),
                 VARINT(len(self.requests))]
        for r in self.requests:
            parts += (VARINT(len(r)), r)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "RequestBatch":
        if data[:3] != BATCH_MAGIC:
            raise ValueError("bad batch header")
        proposer, off = read_varint(data, 3)
        instance, off = read_varint(data, off)
        count, off = read_varint(data, off)
        requests = []
        for _ in range(count):  # each request takes at least its length byte
            ln, off = read_varint(data, off)
            if off + ln > len(data):
                raise ValueError("truncated request")
            requests.append(data[off : off + ln])
            off += ln
        if off != len(data):
            raise ValueError("trailing bytes in batch")
        return cls(proposer, instance, tuple(requests))


# The batch decoded from each plaintext that some party still holds.  Every
# party of a run decrypts a slot to one shared plaintext, so they all share
# one batch and its request objects; an entry goes with its last holder, and
# a plaintext that fails to decode is never entered.  Decoding is a pure
# function of the bytes and a batch is immutable, so runs that meet in this
# table see exactly what they would have decoded themselves.
_decoded: "weakref.WeakValueDictionary[bytes, RequestBatch]" = weakref.WeakValueDictionary()


def decode_shared(plaintext: bytes) -> RequestBatch:
    """`RequestBatch.decode(plaintext)`, made once per distinct plaintext
    while any holder keeps the batch; a malformed one raises every time."""
    batch = _decoded.get(plaintext)
    if batch is None:
        batch = _decoded[plaintext] = RequestBatch.decode(plaintext)
    return batch


def instance_pool(cfg: SimConfig, instance: int, party: int) -> List[bytes]:
    """Fresh requests entering this party's pending pool for one instance.

    The first round(overlap * pool_size) requests are shared verbatim by
    every party; the rest are private to the party.
    """
    shared_n = round(cfg.overlap * cfg.pool_size)
    pool = []
    if shared_n > 0:  # seeding a generator costs more than drawing a request
        shared = random.Random(f"{cfg.seed}|pool|{instance}|shared")
        pool += [shared.randbytes(cfg.request_size) for _ in range(shared_n)]
    private = random.Random(f"{cfg.seed}|pool|{instance}|{party}")
    pool += [private.randbytes(cfg.request_size) for _ in range(cfg.pool_size - shared_n)]
    return pool


def sample_batch(cfg: SimConfig, party: int, instance: int,
                 pending: List[bytes]) -> Tuple[bytes, ...]:
    rng = random.Random(f"{cfg.seed}|batch|{party}|{instance}")
    k = min(cfg.batch_size, len(pending))
    idx = sorted(rng.sample(range(len(pending)), k))  # keep pool order canonical
    return tuple(pending[i] for i in idx)


def wire_envelopes(pid: int, peers: Tuple[int, ...], wire: List[WireItem],
                   sized: bool = False) -> List[Envelope]:
    """Group one step's wire items from `pid` into envelopes, one per (peer,
    instance) in order of first use; a bare message reaches every peer in
    `peers`, which are all parties but `pid`, in ascending order.  Peers
    whose entry lists hold the same objects share one entries tuple, and
    with `sized` one precomputed wire size: a step that only broadcast
    within one instance builds one, and a pair step (`Party._multicast_pair`)
    at most two, the full and the proof-only list."""
    if not wire:
        return []
    head = wire[0]
    if type(head) is not tuple:
        instance = head.instance
        for m in wire:
            if type(m) is tuple or m.instance != instance:
                break
        else:
            entries = tuple(wire)
            size = entries_size(entries) if sized else None
            return Envelope.fanout(pid, instance, entries, peers, size)
    grouped: Dict[Tuple[int, int], List[Message]] = {}
    for item in wire:
        if type(item) is tuple:
            dst, msg = item
            grouped.setdefault((dst, msg.instance), []).append(msg)
        else:
            instance = item.instance
            for q in peers:
                grouped.setdefault((q, instance), []).append(item)
    # Keyed by the entries' identities, which every list holds alive here.
    shared: Dict[Tuple[int, ...], Tuple[tuple, Optional[int]]] = {}
    envs = []
    for (dst, instance), msgs in grouped.items():
        key = tuple(map(id, msgs))
        body = shared.get(key)
        if body is None:
            entries = tuple(msgs)
            body = shared[key] = (entries, entries_size(entries) if sized else None)
        envs.append(Envelope(pid, instance, body[0], dst, body[1]))
    return envs


class Observer:
    """No-op hooks; the simulator subclasses what it needs."""

    def on_committee(self, party: int, instance: int, committee: Tuple[int, ...]) -> None: ...

    def on_sweep(self, party: int, instance: int) -> None: ...

    def on_abba_input(self, party: int, instance: int, slot: int, bit: int) -> None: ...

    def on_slot_decided(self, party: int, instance: int, slot: int, bit: int,
                        round_: int) -> None: ...

    def on_finalized(self, party: int, instance: int, phases: int) -> None: ...


@dataclass
class InstanceState:
    cs: Optional[CsState] = None  # None where the committee is fixed (agreement harness)
    committee: Optional[Tuple[int, ...]] = None  # the members, in coin order
    ppb_recv: Optional[PpbReceiver] = None
    ppb_send: Optional[PpbSender] = None
    slots: Dict[int, SlotInvocation] = field(default_factory=dict)
    ready: Set[int] = field(default_factory=set)  # slots whose outcome_ready holds
    sugg_senders: Set[int] = field(default_factory=set)
    relayed: bool = False
    swept: bool = False


class Party(SlotOwner):
    def __init__(self, pid: int, crypto: PartyCrypto, cfg: SimConfig,
                 observer: Optional[Observer] = None):
        self.pid = pid
        self.crypto = crypto
        self.cfg = cfg
        self.observer = observer or Observer()
        self.n = crypto.n
        self._peers = (*range(pid), *range(pid + 1, self.n))  # every other party
        self.instance = 0
        self.finished = False
        self.pending: List[bytes] = []  # drawn requests not yet delivered
        self._undrawn: List[int] = []  # started instances whose pools are not drawn
        self.log: List[Tuple[int, int, bytes]] = []  # (instance, slot, request)
        self.delivered: Set[bytes] = set()
        self.outputs_by_instance: Dict[int, Dict[int, RequestBatch]] = {}
        self.archive: Dict[int, Dict[int, Tuple[Ciphertext, ThresholdSignature]]] = {}
        self.inst: Optional[InstanceState] = None
        # Entries this party cannot handle yet, per instance: later instances,
        # and the current one's until its committee is known.  Each maps
        # (sender, entry) to None, so a copy from one sender is kept once,
        # and replays in arrival order.
        self._future: Dict[int, Dict[Tuple[int, Message], None]] = {}
        # (sender, instance, slot) of each `Recover` answered: one answer each.
        self._answered: Set[Tuple[int, int, int]] = set()
        self._wire: List[WireItem] = []
        self._selfq: List[Message] = []
        self._out: List[Message] = []  # a slot handler's emissions, emptied after each
        self._due = False  # a slot reported ready since the last finalize check
        # Slot-level message type -> SlotInvocation function, resolved once here.
        self._handlers = {kind: getattr(SlotInvocation, name)
                          for kind, name in SLOT_HANDLERS.items()}
        # Slots report to a weak proxy: an unfinished party's live slots would
        # otherwise hold it in a reference cycle.
        self._owner = weakref.proxy(self)

    # -- lifecycle -------------------------------------------------------------

    def begin(self) -> List[Envelope]:
        self._start_instance(1)
        return self._settle()

    def handle(self, env: Envelope) -> List[Envelope]:
        self._deliver(env.sender, env.entries)
        if self._selfq or self._due or self._wire:
            return self._settle()
        return []  # a quiet step: most handled envelopes emit nothing

    def _settle(self) -> List[Envelope]:
        """End a step: deliver own copies, finalize while a slot has reported
        ready (starting the next instance replays its buffered traffic, which
        can finish that one too), and flush the wire.  Most handled entries
        emit nothing, so each part runs only when it has something to do."""
        selfq = self._selfq
        while True:
            if selfq:
                # _deliver walks the live queue, so own copies queued meanwhile
                # are delivered too; the instance cannot end before it is empty.
                self._deliver(self.pid, selfq)
                selfq.clear()
            if not self._due:
                break
            self._due = False
            if not self._maybe_finalize():
                break
        return self._flush() if self._wire else []

    def _start_instance(self, number: int) -> None:
        self.instance = number
        self._undrawn.append(number)
        self.inst = InstanceState(cs=CsState(number, self.crypto))
        self._emit(BROADCAST, CsShare(number, self.inst.cs.own))
        for sender, msg in self._future.pop(number, ()):
            self._deliver(sender, (msg,))

    # -- emission / delivery plumbing -------------------------------------------

    def _emit(self, dst: int, msg: Message) -> None:
        if dst == BROADCAST:
            self._wire.append(msg)
            self._selfq.append(msg)
        elif dst == self.pid:
            self._selfq.append(msg)
        else:
            self._wire.append((dst, msg))

    def _multicast(self, out: List[Message]) -> None:
        """Broadcast a slot's emissions `out` and empty it for reuse."""
        if out:
            self._wire += out
            self._selfq += out
            out.clear()

    def _multicast_pair(self, msg: Union[Proposal, Suggestion], holders) -> None:
        """Broadcast pair message `msg`, leaving its ciphertext out for the
        peers in `holders`, which hold it already: one item per peer, in
        ascending order, so the envelopes are those of a plain broadcast."""
        self._selfq.append(msg)
        proof_only = msg._replace(ciphertext=None)
        self._wire += [(q, proof_only if q in holders else msg) for q in self._peers]

    def _held_ciphertext(self, slot: int) -> Optional[Ciphertext]:
        """The ciphertext this party holds for `slot` of the current instance,
        to fill in a proof-only pair message: the held pair's, else the
        payload it countersigned; None if neither, or if the instance runs
        no provable broadcast (the agreement harness)."""
        inv = self.inst.slots.get(slot)
        if inv is not None and inv.pair is not None:
            return inv.pair[0]
        recv = self.inst.ppb_recv
        return None if recv is None else recv.countersigned.get(slot)

    def _flush(self) -> List[Envelope]:
        wire, self._wire = self._wire, []
        return wire_envelopes(self.pid, self._peers, wire, sized=True)

    # -- routing ------------------------------------------------------------------

    def _deliver(self, sender: int, msgs: Iterable[Message]) -> None:
        """Route entries from one sender in order; this is the only place
        that decides an entry's fate.  A party *handles* an entry of its
        current instance once the committee is known, and a `CsShare` or
        `Recover` of it at once: slot-level entries go straight to their
        slot's handler, which appends its emissions to one reused list, and
        party-level ones to `_dispatch`.  It *parks* an entry of a later
        configured instance, or of the current one before its committee,
        keeping the first copy of each (sender, entry) in arrival order.  It
        *serves* a `Recover` of a past instance, and *drops* everything
        else, including a slot-level entry for a slot outside the committee."""
        inst = self.inst
        current = self.instance
        # No instance is live before `begin` and once the last one finished.
        live = None if inst is None else current
        handlers = self._handlers
        out = self._out
        for msg in msgs:
            instance = msg.instance
            if instance == live:
                handler = handlers.get(type(msg))
                if handler is not None:
                    inv = inst.slots.get(msg.slot)
                    if inv is not None:
                        handler(inv, sender, msg, out)
                        if out:  # _multicast, inlined: this runs once per entry
                            self._wire += out
                            self._selfq += out
                            out.clear()
                        continue
                    if inst.committee is not None:
                        continue  # a slot outside the committee
                elif inst.committee is not None or type(msg) is CsShare or type(msg) is Recover:
                    self._dispatch(sender, msg)
                    continue
            elif not current < instance <= self.cfg.instances:
                if instance < current and type(msg) is Recover:
                    self._serve_recover(sender, msg)
                continue
            self._future.setdefault(instance, {}).setdefault((sender, msg))

    def _dispatch(self, sender: int, msg: Message) -> None:
        """Handle one party-level entry of the current instance; all but a
        `CsShare` or `Recover` come once the committee is known."""
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
        if kind is PpbPayload:
            if msg.slot != sender or inst.ppb_recv is None:
                return
            share = inst.ppb_recv.on_payload(sender, msg.ciphertext)
            if share is not None:
                self._emit(sender, PpbShare(self.instance, sender, share))
        elif kind is PpbShare:
            if inst.ppb_send is None or msg.slot != self.pid:
                return
            send = inst.ppb_send
            proof = send.on_share(sender, msg.share)
            if proof is not None:
                inst.relayed = True  # own proposal doubles as this party's relay
                self._multicast_pair(Proposal(self.instance, self.pid, send.ciphertext, proof),
                                     send.signers)
        elif kind is Proposal or kind is Suggestion:
            if kind is Proposal and msg.slot != sender:
                return
            ciphertext = msg.ciphertext or self._held_ciphertext(msg.slot)
            if ciphertext is not None:
                self._on_pair(sender, msg.slot, ciphertext, msg.proof)

    # -- slot transitions, reported by each SlotInvocation as they happen -----------

    def slot_input(self, inv: SlotInvocation) -> None:
        self.observer.on_abba_input(self.pid, inv.instance, inv.slot, inv.u)

    def slot_decided(self, inv: SlotInvocation) -> None:
        bit, round_ = inv.decided
        self.observer.on_slot_decided(self.pid, inv.instance, inv.slot, bit, round_)

    def slot_ready(self, inv: SlotInvocation) -> None:
        self.inst.ready.add(inv.slot)
        self._due = True

    # -- phase transitions ---------------------------------------------------------

    def _on_committee(self, committee: Tuple[int, ...]) -> None:
        inst = self.inst
        inst.committee = committee
        self.observer.on_committee(self.pid, self.instance, committee)
        inst.ppb_recv = PpbReceiver(self.instance, self.crypto, committee)
        for member in committee:
            inst.slots[member] = SlotInvocation(self.instance, member, self.crypto, self._owner)
        if self.pid in committee:
            # Pools are drawn only to propose: a past instance's filtered as
            # every finalize since its start would have, the current one's not.
            for number in self._undrawn:
                pool = instance_pool(self.cfg, number, self.pid)
                self.pending += pool if number == self.instance else [
                    r for r in pool if r not in self.delivered]
            self._undrawn.clear()
            batch = RequestBatch(
                self.pid, self.instance, sample_batch(self.cfg, self.pid, self.instance, self.pending)
            )
            ciphertext = self.crypto.tpke_enc(batch.encode())
            inst.ppb_send = PpbSender(self.instance, self.crypto, committee, ciphertext)
            self._emit(BROADCAST, PpbPayload(self.instance, self.pid, ciphertext))
        for sender, msg in self._future.pop(self.instance, ()):
            self._deliver(sender, (msg,))

    def _on_pair(self, sender: int, slot: int, ciphertext: Ciphertext,
                 proof: ThresholdSignature) -> None:
        inst = self.inst
        inv = inst.slots.get(slot)
        if inv is None:
            return
        out = self._out
        recorded = inv.record_pair(ciphertext, proof, out)
        self._multicast(out)
        if not recorded:
            return
        inst.sugg_senders.add(sender)
        if not inst.relayed:
            inst.relayed = True
            self._multicast_pair(Suggestion(self.instance, slot, ciphertext, proof),
                                 (slot, sender))
        if inv.u is None:
            inv.inv_start(1, ciphertext, proof, out)
            self._multicast(out)
        self._maybe_sweep()

    def _maybe_sweep(self) -> None:
        inst = self.inst
        if inst.swept or len(inst.sugg_senders) < self.crypto.t_sig:
            return
        inst.swept = True
        self.observer.on_sweep(self.pid, self.instance)
        out = self._out
        for slot in sorted(inst.slots):
            inv = inst.slots[slot]
            if inv.u is None:
                inv.inv_start(0, None, None, out)
                self._multicast(out)
            self._emit(BROADCAST, VMsg(self.instance, slot, inv.u))

    def _serve_recover(self, sender: int, msg: Recover) -> None:
        key = (sender, msg.instance, msg.slot)
        if key in self._answered:
            return
        pair = None
        if msg.instance == self.instance and self.inst is not None:
            inv = self.inst.slots.get(msg.slot)
            pair = inv.pair if inv is not None else None
        elif msg.instance < self.instance:
            pair = self.archive.get(msg.instance, {}).get(msg.slot)
        if pair is not None:
            self._answered.add(key)
            self._emit(sender, RecoverResp(msg.instance, msg.slot, pair[0], pair[1]))

    # -- finalization -----------------------------------------------------------------

    def _maybe_finalize(self) -> bool:
        inst = self.inst
        # Each slot reports its outcome into inst.ready (slot_ready); the
        # instance is done once every slot is there.
        if inst is None or inst.committee is None or len(inst.ready) < len(inst.slots):
            return False
        outputs: Dict[int, RequestBatch] = {}
        pairs: Dict[int, Tuple[Ciphertext, ThresholdSignature]] = {}
        for slot in sorted(inst.slots):
            inv = inst.slots[slot]
            if inv.decided[0] != 1:
                continue
            pairs[slot] = inv.pair
            try:
                batch = decode_shared(inv.plaintext)
            except ValueError:
                continue  # provable but invalid content: excluded everywhere alike
            if batch.proposer != slot or batch.instance != self.instance:
                continue
            outputs[slot] = batch
        for slot in sorted(outputs):
            for entry in outputs[slot].log_entries:
                req = entry[2]
                if req not in self.delivered:
                    self.delivered.add(req)
                    self.log.append(entry)
        self.pending = [r for r in self.pending if r not in self.delivered]
        self.outputs_by_instance[self.instance] = outputs
        self.archive[self.instance] = pairs
        phases = 4 + max(inv.decided[1] for inv in inst.slots.values())
        self.observer.on_finalized(self.pid, self.instance, phases)
        finished_instance = self.instance
        if finished_instance >= self.cfg.instances:
            self.finished = True
            self.inst = None
            self.instance = finished_instance + 1
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
                        inv.u or 0,
                        inv.u is not None,
                        inv.abba.round,
                        7 if inv.decided is None else inv.decided[0],
                    )
                )
        return h.digest()
