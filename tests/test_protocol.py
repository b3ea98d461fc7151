"""Batches, pools, and the orchestrated full stack at small n."""
import dataclasses
import gc
import hashlib
import inspect
import itertools
import typing
import weakref
from collections import Counter
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimabc import BehaviorSpec, Party, RequestBatch, SimConfig, sim_run
from slimabc.adversary import BEHAVIORS, POLICIES
from slimabc.committee import CsState
from slimabc.crypto import key_setup
from slimabc.grid import GRID, grid_config
from slimabc.invocation import SLOT_HANDLERS, SlotInvocation
from slimabc.abba import mainvote_bytes
from slimabc.messages import (
    BROADCAST,
    AbbaDecision,
    CsShare,
    DecShare,
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
)
from slimabc import protocol
from slimabc.protocol import (BATCH_MAGIC, InstanceState, decode_shared, instance_pool,
                              sample_batch)
from slimabc.ppb import ppb_sign_bytes
from slimabc.recorder import RunRecorder
from slimabc.simnet import HarnessParty, deliver, make_proven_pair


def cfg(**kw):
    base = dict(instances=1, pool_size=16, batch_size=4, request_size=32,
                overlap=0.0, seed=9)
    base.update(kw)
    return SimConfig(n=4, f=1, **base)


# -- batch codec ---------------------------------------------------------------

def test_batch_roundtrip():
    b = RequestBatch(3, 7, (b"alpha", b"", b"\x00" * 40))
    assert RequestBatch.decode(b.encode()) == b


def test_batch_decode_rejects_garbage():
    good = RequestBatch(0, 1, (b"x",)).encode()
    for data in (b"", b"XXX" + good[3:], good + b"!", good[:-1], good[:7]):
        with pytest.raises(ValueError):
            RequestBatch.decode(data)
        for _party in range(4):  # each party that sees it fails alike
            with pytest.raises(ValueError):
                decode_shared(data)
        assert data not in protocol._decoded


def test_batch_binds_proposer_and_instance():
    b = RequestBatch.decode(RequestBatch(2, 5, (b"r",)).encode())
    assert (b.proposer, b.instance) == (2, 5)


drawn_batches = st.builds(
    RequestBatch, st.integers(0, 0xFFFF), st.integers(0, 2**64 - 1),
    st.lists(st.binary(max_size=40), max_size=6).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(drawn_batches, st.binary(min_size=1, max_size=8))
def test_batch_encoding_is_the_only_decodable_one(batch, extra):
    """Shared decodes are keyed by plaintext bytes, which is sound only while
    decode inverts encode and accepts no neighbouring byte string."""
    data = batch.encode()
    assert RequestBatch.decode(data) == batch
    for cut in range(len(data)):
        with pytest.raises(ValueError):
            RequestBatch.decode(data[:cut])
    with pytest.raises(ValueError):
        RequestBatch.decode(data + extra)


def overlong(v: int) -> bytes:
    """`v` as a varint one byte longer than its canonical encoding."""
    b = VARINT(v)
    return b[:-1] + bytes([b[-1] | 0x80, 0])


def test_batch_decode_rejects_an_overlong_varint():
    good = RequestBatch(0, 1, (b"x",)).encode()
    assert good == BATCH_MAGIC + b"\x00\x01\x01\x01x"  # proposer, instance, count, length
    with pytest.raises(ValueError):
        RequestBatch.decode(BATCH_MAGIC + b"\x80\x00\x01\x01\x01x")


@settings(max_examples=100, deadline=None)
@given(drawn_batches, st.data())
def test_batch_decode_rejects_each_overlong_integer(batch, data):
    """Each integer of a batch, the proposer, the instance, the count or a
    request length, is refused when encoded one byte too long."""
    ints = [batch.proposer, batch.instance, len(batch.requests)]
    ints += [len(r) for r in batch.requests]
    k = data.draw(st.integers(0, len(ints) - 1))

    def encoded(long_at):
        parts = [overlong(v) if i == long_at else VARINT(v) for i, v in enumerate(ints)]
        head, lengths = parts[:3], parts[3:]
        return BATCH_MAGIC + b"".join(head + [b + r for b, r in zip(lengths, batch.requests)])

    assert encoded(None) == batch.encode()
    with pytest.raises(ValueError):
        RequestBatch.decode(encoded(k))


def test_a_run_shares_its_decoded_batches():
    """Honest parties hold one decode of each slot's plaintext, and one
    object per distinct request; dropping the run releases all of them."""
    cfg = SimConfig(n=4, f=1, seed=5, instances=2, policy="random", pool_size=16,
                    batch_size=8, request_size=3200)
    provider = key_setup(cfg.security_param, cfg.n, cfg.seed)
    rec = RunRecorder(cfg, provider)
    parties = [Party(p, provider.party_handle(p), cfg, observer=rec) for p in range(cfg.n)]
    assert not deliver(parties, cfg, rec)[-1]
    for i in (1, 2):
        outputs = [p.outputs_by_instance[i] for p in parties]
        assert outputs[0] and all(o.keys() == outputs[0].keys() for o in outputs)
        for slot, batch in outputs[0].items():
            assert all(o[slot] is batch for o in outputs)
    requests = [r for p in parties for _, _, r in p.log]
    assert len({id(r) for r in requests}) == len(set(requests))
    batches = [b for i in (1, 2) for b in parties[0].outputs_by_instance[i].values()]
    plaintexts = [b.encode() for b in batches]
    held = [weakref.ref(b) for b in batches]
    del parties, rec, provider, outputs, batch, batches, requests
    gc.collect()
    assert not any(ref() is not None for ref in held)
    assert not any(pt in protocol._decoded for pt in plaintexts)


def test_honest_parties_share_their_log_entries():
    """Each log entry is built once per decoded batch, so every honest
    party's log holds party 0's entry objects, in the same order."""
    cfg = SimConfig(n=4, f=1, seed=3, instances=2, policy="random", pool_size=16,
                    batch_size=8, request_size=32, overlap=0.5)
    provider = key_setup(cfg.security_param, cfg.n, cfg.seed)
    rec = RunRecorder(cfg, provider)
    parties = [Party(p, provider.party_handle(p), cfg, observer=rec) for p in range(cfg.n)]
    assert not deliver(parties, cfg, rec)[-1]
    ref = parties[0].log
    assert ref
    for p in parties[1:]:
        assert len(p.log) == len(ref)
        assert all(mine is theirs for mine, theirs in zip(p.log, ref))


# -- request pools --------------------------------------------------------------

def test_pool_deterministic_per_party_and_instance():
    c = cfg()
    assert instance_pool(c, 1, 0) == instance_pool(c, 1, 0)
    assert instance_pool(c, 1, 0) != instance_pool(c, 2, 0)
    assert instance_pool(c, 1, 0) != instance_pool(c, 1, 1)


def test_pool_overlap_shares_a_prefix():
    c = cfg(overlap=0.5)
    pools = [instance_pool(c, 1, p) for p in range(4)]
    shared = round(0.5 * c.pool_size)
    for p in pools[1:]:
        assert p[:shared] == pools[0][:shared]
        assert p[shared:] != pools[0][shared:]


def test_pool_overlap_extremes():
    full = [instance_pool(cfg(overlap=1.0), 1, p) for p in range(4)]
    assert len({tuple(p) for p in full}) == 1
    none = [instance_pool(cfg(overlap=0.0), 1, p) for p in range(4)]
    assert len({tuple(p) for p in none}) == 4


def test_pool_bytes_pinned():
    """Pools with and without a shared part (0.02 rounds to none), as drawn
    before the shared generator was seeded only when used."""
    h = hashlib.sha256()
    for overlap in (0.0, 0.02, 0.5, 1.0):
        for instance in (1, 2):
            for p in range(4):
                h.update(b"".join(instance_pool(cfg(overlap=overlap), instance, p)))
    assert h.hexdigest() == "ced5507b15c032f6f7797beaebd486a05986ea852b4dcbc192466ae488995018"


def test_sample_batch_is_sorted_subset():
    c = cfg()
    pool = instance_pool(c, 1, 2)
    batch = sample_batch(c, 2, 1, pool)
    assert len(batch) == c.batch_size
    idx = [pool.index(r) for r in batch]
    assert idx == sorted(idx)
    # smaller pool than batch_size: take what is there
    assert len(sample_batch(c, 2, 1, pool[:2])) == 2


def eager_start_instance(self, number):
    """The reference for lazy drawing: `Party._start_instance` as it was when
    every party drew its pool at every instance start."""
    self.instance = number
    self.pending.extend(instance_pool(self.cfg, number, self.pid))
    self.inst = InstanceState(cs=CsState(number, self.crypto))
    self._emit(BROADCAST, CsShare(number, self.inst.cs.own))
    for sender, msg in self._future.pop(number, ()):
        self._deliver(sender, (msg,))


def statements(fn):
    """`fn`'s source lines, stripped, without its def line and docstring."""
    lines = inspect.getsource(fn).split('"""')[-1].splitlines()
    return [line.strip() for line in lines
            if line.strip() and not line.lstrip().startswith("def ")]


# Request sizes 1 and 2 make different parties' requests collide, so a
# drawn pool can hold requests delivered before it was drawn.
LAZY_SLICE = [dataclasses.replace(grid_config(n, f, seed, policy, fault), instances=4,
                                  pool_size=6, batch_size=4, request_size=size,
                                  overlap=overlap)
              for size in (1, 2, 32) for overlap in (0.0, 0.5, 1.0)
              for (n, f) in ((4, 1), (7, 2))
              for fault in ("honest", "crash", "random-votes", "equivocate-ppb")
              for policy in POLICIES for seed in range(2)]


def test_lazy_pools_report_as_eager_pools(monkeypatch):
    """A party draws its started instances' pools only when it proposes, a
    past one filtered against what is delivered and the current one as it
    is; every report equals the one of drawing every pool at every instance
    start and filtering `pending` at every finalize."""
    eager = "self.pending.extend(instance_pool(self.cfg, number, self.pid))"
    assert statements(Party._start_instance) == [
        "self._undrawn.append(number)" if line == eager else line
        for line in statements(eager_start_instance)], "the reference has drifted"
    lazy = [sim_run(c).to_json() for c in LAZY_SLICE]
    monkeypatch.setattr(Party, "_start_instance", eager_start_instance)
    assert [sim_run(c).to_json() for c in LAZY_SLICE] == lazy


def test_a_pool_is_drawn_only_when_its_party_proposes(monkeypatch):
    """Each party draws each instance's pool once, by the last instance whose
    committee holds it, and a party outside every committee draws none."""
    drawn = Counter()

    def counted(cfg, instance, party):
        drawn[party, instance] += 1
        return instance_pool(cfg, instance, party)

    monkeypatch.setattr(protocol, "instance_pool", counted)
    c = SimConfig(n=7, f=2, seed=3, instances=4, policy="random", pool_size=6, batch_size=4)
    provider = key_setup(c.security_param, c.n, c.seed)
    rec = RunRecorder(c, provider)
    parties = [Party(p, provider.party_handle(p), c, observer=rec) for p in range(c.n)]
    assert not deliver(parties, c, rec)[-1]
    committees = {i: per[0] for i, per in rec.committees.items()}
    assert sorted(committees) == [1, 2, 3, 4]
    last = {p: max((i for i, m in committees.items() if p in m), default=0)
            for p in range(c.n)}
    outside = [p for p in range(c.n) if last[p] == 0]
    assert outside, "every party proposed: pick a seed that leaves one out"
    assert all(party not in outside for party, _ in drawn)
    assert drawn == Counter({(p, i): 1 for p in range(c.n) for i in range(1, last[p] + 1)})


# -- full stack ----------------------------------------------------------------

def test_honest_instances_deliver_identically():
    rep = sim_run(SimConfig(n=4, f=1, seed=3, instances=3, policy="fifo"))
    assert rep.ok, rep.failures
    assert rep.finalized_instances == 3
    assert rep.delivered_total > 0


def test_delivered_log_never_duplicates_across_instances():
    # overlap=1 makes every party push the same requests; the pending-pool
    # pruning plus delivery dedupe must still keep the log duplicate-free
    rep = sim_run(SimConfig(n=4, f=1, seed=5, instances=4, policy="random",
                            overlap=1.0, pool_size=6, batch_size=3))
    assert rep.ok, rep.failures


def test_phases_metric_reported_per_instance():
    rep = sim_run(SimConfig(n=4, f=1, seed=1, instances=2, policy="fifo"))
    assert set(rep.phases) == {1, 2}
    assert all(v >= 4 for v in rep.phases.values())  # 4 fixed phases + rounds


def test_state_digest_distinguishes_parties_mid_run():
    from slimabc.crypto import key_setup

    provider = key_setup(128, 4, 2)
    pcfg = cfg(instances=1)
    parties = [Party(i, provider.party_handle(i), pcfg) for i in range(4)]
    for p in parties:
        p.begin()
    # before any message exchange all digests match except for party id
    digests = {p.state_digest() for p in parties}
    assert len(digests) == 4


# -- dispatch table and envelope grouping --------------------------------------------

PARTY_KINDS = {CsShare, Recover, PpbPayload, PpbShare, Proposal, Suggestion}


def test_dispatch_table_covers_every_message_kind():
    assert set(SLOT_HANDLERS).isdisjoint(PARTY_KINDS)
    assert set(SLOT_HANDLERS) | PARTY_KINDS == set(typing.get_args(Message))
    for name in SLOT_HANDLERS.values():
        assert callable(SlotInvocation.__dict__[name])


def test_dispatch_calls_handlers_wrapped_before_the_run(monkeypatch):
    """Parties resolve their handlers when built, so a wrapper put on the
    class before `sim_run` is what every slot-level entry goes through."""
    run = cfg(seed=4, instances=2, policy="random")
    plain = sim_run(run).to_json()
    called = []
    for name in SLOT_HANDLERS.values():
        def wrapper(inv, sender, msg, out, _orig=SlotInvocation.__dict__[name], _name=name):
            called.append(_name)
            return _orig(inv, sender, msg, out)
        monkeypatch.setattr(SlotInvocation, name, wrapper)
    assert sim_run(run).to_json() == plain
    assert {"on_v", "on_preprocess", "on_prevote", "on_mainvote", "on_decision",
            "on_dec_share"} <= set(called)


def reference_flush(party: Party, wire) -> List[Envelope]:
    """Per-peer grouping of one step's wire items (a bare message for every
    peer, `(dst, msg)` for one), as every step was flushed before
    broadcast-only steps shared one envelope body."""
    grouped: Dict[Tuple[int, int], List[Message]] = {}
    for item in wire:
        dst, msg = item if type(item) is tuple else (BROADCAST, item)
        if dst == BROADCAST:
            for q in range(party.n):
                if q != party.pid:
                    grouped.setdefault((q, msg.instance), []).append(msg)
        else:
            grouped.setdefault((dst, msg.instance), []).append(msg)
    return [
        Envelope(dst=dst, sender=party.pid, instance=inst, entries=tuple(msgs))
        for (dst, inst), msgs in grouped.items()
    ]


FLUSH_N = 4
FLUSH_PROVIDER = key_setup(128, FLUSH_N, 4)
FLUSH_PARTY = FLUSH_PROVIDER.party_handle(1)
FLUSH_PAIR = make_proven_pair(FLUSH_PROVIDER, 1, 0, b"flush")
PAIR = -2  # marks a `_multicast_pair` item: (PAIR, message, holders)

emit_items = st.tuples(
    st.sampled_from([BROADCAST] * 3 + list(range(FLUSH_N))),  # pid 1 is self
    st.builds(VMsg, st.sampled_from([1, 2]), st.integers(0, 3), st.integers(0, 1)),
    st.booleans(),  # a Recover for the same slot instead of the claim
).map(lambda t: (t[0], Recover(t[1].instance, t[1].slot) if t[2] else t[1]))
pair_items = st.tuples(
    st.just(PAIR),
    st.builds(lambda kind, instance, slot: kind(instance, slot, *FLUSH_PAIR),
              st.sampled_from([Proposal, Suggestion]), st.sampled_from([1, 2]),
              st.integers(0, 3)),
    st.frozensets(st.integers(0, FLUSH_N - 1)),  # the peers known to hold the ciphertext
)
wire_entries = st.lists(st.one_of(emit_items, pair_items), max_size=8)


def check_flush(party, entries, sized: bool) -> None:
    """Emit `entries` and check `party._flush()`: it groups the wire as
    `reference_flush` does; peers whose entry lists hold the same objects
    share one entries tuple, so a broadcast-only step of one instance sends
    one and a pair step at most two (full and proof-only); and a sized
    flush sizes every envelope."""
    for item in entries:
        if item[0] == PAIR:
            party._multicast_pair(item[1], item[2])
        else:
            party._emit(*item)
    expected = reference_flush(party, list(party._wire))
    got = party._flush()
    assert party._wire == []
    assert [(e.sender, e.instance, e.dst) for e in got] == \
        [(e.sender, e.instance, e.dst) for e in expected]
    for e, ref in zip(got, expected):
        assert e.entries == ref.entries
        assert e._size == (len(e.encode()) if sized else None)
        assert e.size() == len(e.encode()) == len(ref.encode())
    distinct = {id(e.entries) for e in got}
    assert len(distinct) == len({tuple(map(id, e.entries)) for e in got})
    wired = [item for item in entries if item[0] != party.pid]  # own copies stay off the wire
    if got and len({item[1].instance for item in wired}) == 1 and \
            all(item[0] in (BROADCAST, PAIR) for item in wired):
        pairs = sum(item[0] == PAIR for item in wired)
        if pairs <= 1:
            assert len(distinct) <= 1 + pairs


@settings(max_examples=150, deadline=None)
@given(entries=wire_entries)
def test_flush_matches_per_peer_grouping(entries):
    check_flush(Party(1, FLUSH_PARTY, cfg()), entries, sized=True)


@settings(max_examples=150, deadline=None)
@given(entries=wire_entries)
def test_harness_flush_matches_per_peer_grouping(entries):
    # the unsized flush groups as the sized one
    check_flush(HarnessParty(1, FLUSH_PARTY, cfg(), None), entries, sized=False)


# -- finalization on slot transitions and instance bounds ---------------------------

def test_ready_slots_follow_outcomes_after_every_handle(monkeypatch):
    orig = Party.handle
    sizes = []

    def checked_handle(self, env):
        out = orig(self, env)
        inst = self.inst
        if inst is not None:
            assert inst.ready == {s for s, inv in inst.slots.items() if inv.outcome_ready}
            sizes.append((len(inst.ready), len(inst.slots)))
        return out

    monkeypatch.setattr(Party, "handle", checked_handle)
    rep = sim_run(SimConfig(n=7, f=2, seed=12, instances=2, policy="random"))
    assert rep.ok and rep.finalized_instances == 2
    assert any(0 < ready < slots for ready, slots in sizes)  # partly ready was seen


OBSERVER_HOOKS = ("on_committee", "on_sweep", "on_abba_input", "on_slot_decided",
                  "on_finalized")
# sha256 over every observer hook call, in call order, of the runs below.
# The grid digest sees only each run's aggregates; this pins when each
# party reports an input, a decision or a finalized instance.
OBSERVER_STREAM_DIGEST = "ceeeb61f68d4253030507dcfc84722e68e43769778fe00311b015450212a1916"


def test_observer_stream_pinned(monkeypatch):
    h = hashlib.sha256()
    for name in OBSERVER_HOOKS:
        def hook(self, *args, _name=name, _orig=getattr(RunRecorder, name)):
            ints = ",".join(str(a) for a in args if type(a) is int)
            h.update(f"{_name}({ints})".encode())
            return _orig(self, *args)
        monkeypatch.setattr(RunRecorder, name, hook)
    runs = 0
    for (n, f), fault, policy, seed in itertools.product(
            ((4, 1), (7, 2), (10, 3)), BEHAVIORS, POLICIES, range(3)):
        byz = tuple(BehaviorSpec(p, fault, at_step=(seed * 7) % 40) for p in range(f))
        sim_run(SimConfig(n=n, f=f, seed=seed, instances=2, policy=policy, byzantine=byz))
        h.update(b"|")
        runs += 1
    assert runs == 216
    assert h.hexdigest() == OBSERVER_STREAM_DIGEST


def run_parties(parties, queue):
    """FIFO delivery among honest parties until every one has finished."""
    while queue:
        env = queue.pop(0)
        queue.extend(parties[env.dst].handle(env))
    assert all(p.finished for p in parties)


def test_traffic_past_the_last_instance_is_dropped():
    provider = key_setup(128, 4, 6)
    pcfg = cfg(instances=1)
    parties = [Party(i, provider.party_handle(i), pcfg) for i in range(4)]
    queue = [env for p in parties for env in p.begin()]
    early = Envelope(1, 2, (VMsg(2, 0, 1), CsShare(3, None)), dst=0)
    assert parties[0].handle(early) == []
    assert parties[0]._future == {}  # no instance 2 or 3 will ever run
    run_parties(parties, queue)
    done = parties[0]
    log = list(done.log)
    for instance in (1, 2, 5):
        assert done.handle(Envelope(1, instance, (VMsg(instance, 0, 1),), dst=0)) == []
    assert done._future == {} and done.log == log
    # a finished party still serves recovery for the instances it ran
    slot = next(iter(done.archive[1]))
    (resp,) = done.handle(Envelope(2, 1, (Recover(1, slot),), dst=0))
    assert resp.dst == 2 and resp.entries[0].ciphertext == done.archive[1][slot][0]


def test_each_recovery_request_is_answered_once():
    """A party answers one sender's `Recover` for a slot once, however many
    copies arrive, and still answers another sender; a request that came
    before the party held the pair does not count as answered."""
    provider = key_setup(128, 4, 6)
    parties = [Party(i, provider.party_handle(i), cfg(instances=1)) for i in range(4)]
    party = parties[0]
    queue = [env for p in parties for env in p.begin()]
    while party.inst.committee is None:
        env = queue.pop(0)
        queue.extend(parties[env.dst].handle(env))
    early = tuple(Recover(1, s) for s, inv in party.inst.slots.items() if inv.pair is None)
    assert party.handle(Envelope(1, 1, early, dst=0)) == []  # no pair to answer with yet
    run_parties(parties, queue)
    slot = next(iter(party.archive[1]))
    assert Recover(1, slot) in early
    answer = RecoverResp(1, slot, *party.archive[1][slot])
    flood = Envelope(1, 1, (Recover(1, slot),) * 1000, dst=0)
    (resp,) = party.handle(flood)
    assert resp.dst == 1 and resp.entries == (answer,)
    assert party.handle(flood) == []
    (resp,) = party.handle(Envelope(2, 1, (Recover(1, slot),), dst=0))
    assert resp.dst == 2 and resp.entries == (answer,)


def test_a_recovery_answer_to_a_holder_is_not_checked_again(monkeypatch):
    """A slot that holds its pair takes a `RecoverResp` without checking it:
    no `record_pair`, no well-formedness or signature check, and its party's
    state is as it was.  A slot without the pair still adopts the answer."""
    provider = key_setup(128, 4, 6)
    parties = [Party(i, provider.party_handle(i), cfg(instances=1)) for i in range(4)]
    queue = [env for p in parties for env in p.begin()]

    def holder_and_lacker():
        for p, q in itertools.permutations(parties, 2):
            for slot, inv in (p.inst.slots.items() if p.inst and q.inst else ()):
                if inv.pair is not None and q.inst.slots[slot].pair is None:
                    return p, q, slot
        return None

    while (found := holder_and_lacker()) is None:
        env = queue.pop(0)
        queue.extend(parties[env.dst].handle(env))
    holder, lacker, slot = found
    pair = holder.inst.slots[slot].pair
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(SlotInvocation, "record_pair",
                        counting("record_pair", SlotInvocation.record_pair))
    for p in (holder, lacker):
        for name in ("ciphertext_wellformed", "verify_signature"):
            monkeypatch.setattr(p.crypto, name, counting(name, getattr(p.crypto, name)))
    answer = (RecoverResp(1, slot, *pair),)
    digest = holder.state_digest()
    assert holder.handle(Envelope(lacker.pid, 1, answer, dst=holder.pid)) == []
    assert calls == Counter() and holder.state_digest() == digest
    assert holder.inst.slots[slot].pair is pair
    lacker.handle(Envelope(holder.pid, 1, answer, dst=lacker.pid))
    assert calls == Counter(record_pair=1, ciphertext_wellformed=1, verify_signature=1)
    assert lacker.inst.slots[slot].pair == pair


def test_a_parked_entry_is_kept_once_per_sender():
    """Copies of an entry from one sender take one place among the parked
    entries, which keep the order of first arrival; another sender's copy
    is an entry of its own."""
    provider = key_setup(128, 4, 6)
    party = Party(0, provider.party_handle(0), cfg(instances=2))
    party.begin()
    for _ in range(10_000):
        assert party.handle(Envelope(1, 2, (VMsg(2, 0, 1), Recover(2, 0)), dst=0)) == []
    assert list(party._future[2]) == [(1, VMsg(2, 0, 1)), (1, Recover(2, 0))]
    party.handle(Envelope(2, 2, (Recover(2, 0),), dst=0))
    assert len(party._future[2]) == 3


# -- the routing rule -------------------------------------------------------------

ROUTING_CFG = cfg(instances=2)


def elected(provider, instance: int) -> Tuple[int, ...]:
    """The committee every party elects for `instance`."""
    cs = CsState(instance, provider.party_handle(0))
    cs.on_share(1, CsState(instance, provider.party_handle(1)).own)
    return cs.committee


class RoutedParties:
    """Four parties under FIFO delivery, party 0 brought to one routing
    state; party 0's calls to `SlotInvocation.on_v`, `CsState.on_share` and
    `Party._serve_recover` log the entry (or coin share) each one got."""

    def __init__(self, state: str, monkeypatch):
        self.handled: List[object] = []
        log = self.handled

        def on_v(inv, sender, msg, out, _orig=SlotInvocation.on_v):
            if inv.crypto.party == 0:
                log.append(msg)
            return _orig(inv, sender, msg, out)

        def on_share(cs, sender, share, _orig=CsState.on_share):
            if cs.crypto.party == 0 and sender != 0:
                log.append(share)
            return _orig(cs, sender, share)

        def serve_recover(party, sender, msg, _orig=Party._serve_recover):
            if party.pid == 0:
                log.append(msg)
            return _orig(party, sender, msg)

        monkeypatch.setattr(SlotInvocation, "on_v", on_v)
        monkeypatch.setattr(CsState, "on_share", on_share)
        monkeypatch.setattr(Party, "_serve_recover", serve_recover)
        self.provider = key_setup(128, 4, 6)
        self.parties = [Party(i, self.provider.party_handle(i), ROUTING_CFG) for i in range(4)]
        self.party = self.parties[0]
        self.queue = [env for p in self.parties[1:] for env in p.begin()]
        if state != "unbegun":
            self.queue += self.party.begin()
        if state == "committee":
            self.advance(1)
        elif state == "second":
            self.advance(2)
        elif state == "finished":
            run_parties(self.parties, self.queue)

    def advance(self, instance: int) -> None:
        """Deliver until party 0 is in `instance` with its committee known."""
        party = self.party
        if party.instance == 0:
            self.queue += party.begin()
        while not (party.instance == instance and party.inst.committee is not None):
            env = self.queue.pop(0)
            self.queue.extend(self.parties[env.dst].handle(env))

    def was_handled(self, msg) -> bool:
        obj = msg.share if type(msg) is CsShare else msg
        return any(seen is obj for seen in self.handled)

    def entry(self, name: str) -> Message:
        kind, instance = name[:-1], int(name[-1])
        if kind == "v":
            return VMsg(instance, elected(self.provider, instance)[0], 1)
        if kind == "cs":
            return CsShare(instance, CsState(instance, self.provider.party_handle(1)).own)
        slot = next(iter(self.party.archive.get(instance, {0: None})))
        return Recover(instance, slot)


ROUTES = [
    # party 0's state, the entry from party 1 (kind and instance), its fate
    ("unbegun", "v1", "park"),
    ("unbegun", "v2", "park"),
    ("unbegun", "v3", "drop"),
    ("unbegun", "recover1", "park"),
    ("no_committee", "v1", "park"),
    ("no_committee", "cs1", "handle"),
    ("no_committee", "recover1", "handle"),
    ("no_committee", "v2", "park"),
    ("no_committee", "v3", "drop"),
    ("committee", "v1", "handle"),
    ("committee", "recover1", "handle"),
    ("committee", "v2", "park"),
    ("committee", "cs3", "drop"),
    ("second", "recover1", "serve"),
    ("second", "v1", "drop"),
    ("second", "cs1", "drop"),
    ("second", "v2", "handle"),
    ("second", "v3", "drop"),
    ("finished", "recover1", "serve"),
    ("finished", "recover2", "serve"),
    ("finished", "v2", "drop"),
    ("finished", "cs2", "drop"),
    ("finished", "recover3", "drop"),
]


@pytest.mark.parametrize("state,name,fate", ROUTES)
def test_routing_rule(state, name, fate, monkeypatch):
    """A party handles an entry of its current instance once the committee
    is known (a `CsShare` or `Recover` at once), parks a later configured
    instance's entry or the current one's before the committee, serves a
    `Recover` of a past instance, and drops everything else.  A parked entry
    reaches its handler once its instance is current with the committee known."""
    run = RoutedParties(state, monkeypatch)
    party, msg = run.party, run.entry(name)
    run.handled.clear()  # electing the committee to name a slot went through on_share
    parked = {k: list(v) for k, v in party._future.items()}
    out = party.handle(Envelope(1, msg.instance, (msg,), dst=0))
    if fate == "park":
        assert (1, msg) in party._future[msg.instance] and not run.handled
        assert out == []
        run.advance(msg.instance)
        assert run.was_handled(msg)
        assert (1, msg) not in party._future.get(msg.instance, ())
    elif fate == "handle":
        assert run.was_handled(msg)
        assert (1, msg) not in party._future.get(msg.instance, ())
    elif fate == "serve":
        assert run.handled == [msg]
        ((dst, entries),) = [(e.dst, e.entries) for e in out]
        assert dst == 1 and [(type(m), m.instance, m.slot) for m in entries] == \
            [(RecoverResp, msg.instance, msg.slot)]
    else:
        assert out == [] and not run.handled
        assert {k: list(v) for k, v in party._future.items()} == parked


# -- party-level intake checks ------------------------------------------------------

def at_committee(member: bool):
    """A committee member (or a non-member) of a one-instance run that has
    received one other coin share, so it knows instance 1's committee and
    has handled nothing else.  Returns the provider, the party and the
    committee's members."""
    provider = key_setup(128, 4, 6)
    members = elected(provider, 1)
    pid = next(p for p in range(4) if (p in members) == member)
    party = Party(pid, provider.party_handle(pid), cfg(instances=1))
    party.begin()
    other = (pid + 1) % 4
    share = CsState(1, provider.party_handle(other)).own
    party.handle(Envelope(other, 1, (CsShare(1, share),), dst=pid))
    assert party.inst.committee == members
    return provider, party, members


def handle(party: Party, sender: int, *entries: Message) -> List[Envelope]:
    return party.handle(Envelope(sender, 1, entries, dst=party.pid))


def test_slot_entry_outside_the_committee_is_dropped():
    """A slot-level entry for a slot outside the committee is dropped, not
    parked: no later committee can make it handleable."""
    _, party, members = at_committee(True)
    outside = next(p for p in range(4) if p not in members)
    assert handle(party, members[1], VMsg(1, outside, 1)) == []
    assert party._future == {}


def test_payload_is_countersigned_for_its_senders_slot_only():
    """A payload that names another slot than its sender's is not
    countersigned, and does not use up the sender's one countersignature."""
    provider, party, (sender, other) = at_committee(False)
    ct = provider.tpke_enc(b"payload")
    assert handle(party, sender, PpbPayload(1, other, ct)) == []
    (env,) = handle(party, sender, PpbPayload(1, sender, ct))
    assert env.dst == sender and [type(m) for m in env.entries] == [PpbShare]


def test_countersignature_reaching_a_non_member_is_dropped():
    provider, party, members = at_committee(False)
    assert party.inst.ppb_send is None
    share = provider.sig_share(members[0], b"PPB")
    assert handle(party, members[0], PpbShare(1, party.pid, share)) == []


def test_proposal_names_its_senders_slot():
    """A proven pair proposed by another party than its slot's is ignored:
    the slot does not adopt it and the sender does not count as a
    suggestion sender."""
    provider, party, members = at_committee(False)
    sender, slot = members
    pair = make_proven_pair(provider, 1, slot, b"proposal")
    assert handle(party, sender, Proposal(1, slot, *pair)) == []
    assert party.inst.slots[slot].pair is None and party.inst.sugg_senders == set()


def test_pair_for_a_non_member_slot_is_dropped():
    provider, party, members = at_committee(True)
    slot = next(p for p in range(4) if p not in members)
    pair = make_proven_pair(provider, 1, slot, b"outside")
    assert handle(party, members[1], Suggestion(1, slot, *pair)) == []
    assert party.inst.sugg_senders == set() and slot not in party.inst.slots


def test_pair_with_a_failing_proof_counts_no_suggestion_sender():
    """A suggested pair whose proof fails is not adopted, its sender does
    not count toward the 2f+1 suggestion senders, and the slot does not
    start."""
    provider, party, (slot, other) = at_committee(False)
    ct, _ = make_proven_pair(provider, 1, slot, b"suggested")
    _, wrong = make_proven_pair(provider, 1, other, b"another slot")
    assert handle(party, other, Suggestion(1, slot, ct, wrong)) == []
    inv = party.inst.slots[slot]
    assert inv.pair is None and inv.u is None
    assert party.inst.sugg_senders == set() and not party.inst.relayed


def sent_pairs(envs) -> Dict[int, Tuple[bool, ...]]:
    """Destination -> whether each pair message sent there carries its ciphertext."""
    return {env.dst: tuple(m.ciphertext is not None for m in env.entries
                           if type(m) in (Proposal, Suggestion)) for env in envs}


def test_a_proposal_leaves_its_ciphertext_out_for_the_signers_of_its_proof():
    """The proposer's own countersignature and two others form the proof;
    those two get the proof alone, the remaining peer the full pair, and the
    proposer's own copy is full."""
    provider, party, members = at_committee(True)
    send = party.inst.ppb_send
    assert list(send.signers) == [party.pid]
    signers = [p for p in range(4) if p != party.pid][:2]
    msg = ppb_sign_bytes(1, party.pid, send.ciphertext.ct_digest())
    envs = [env for q in signers
            for env in handle(party, q, PpbShare(1, party.pid, provider.sig_share(q, msg)))]
    assert sorted(send.signers) == sorted([party.pid, *signers])
    assert [env.dst for env in envs] == [q for q in range(4) if q != party.pid]
    assert sent_pairs(envs) == {q: ((False,) if q in signers else (True,))
                                for q in range(4) if q != party.pid}
    assert party.inst.slots[party.pid].pair == (send.ciphertext, send.proof)


def test_a_proof_only_proposal_is_filled_in_from_the_countersigned_payload():
    """A signer adopts the pair, counts the proposer as a pair sender and
    relays a suggestion: proof-only back to the proposer, full to the rest."""
    provider, party, (slot, _) = at_committee(False)
    ct, proof = make_proven_pair(provider, 1, slot, b"countersigned")
    handle(party, slot, PpbPayload(1, slot, ct))
    assert party.inst.ppb_recv.countersigned == {slot: ct}
    envs = handle(party, slot, Proposal(1, slot, None, proof))
    assert party.inst.slots[slot].pair == (ct, proof)
    assert party.inst.sugg_senders == {slot, party.pid}  # the proposer, and its own relay
    assert sent_pairs(envs) == {q: ((q != slot),) for q in range(4) if q != party.pid}


def test_a_proof_only_suggestion_is_filled_in_from_the_held_pair():
    """A party that holds the pair counts a proof-only suggestion's sender,
    here the third pair sender, which starts the sweep."""
    provider, party, (slot, other) = at_committee(False)
    pair = make_proven_pair(provider, 1, slot, b"held")
    relay = handle(party, other, Suggestion(1, slot, *pair))
    assert sent_pairs(relay) == {q: ((q not in (slot, other)),)
                                 for q in range(4) if q != party.pid}
    third = next(q for q in range(4) if q not in (party.pid, slot, other))
    assert not party.inst.swept
    handle(party, third, Suggestion(1, slot, None, pair[1]))
    assert party.inst.sugg_senders == {other, party.pid, third} and party.inst.swept


def test_a_proof_only_pair_message_to_a_party_without_the_ciphertext_is_dropped():
    """A proof alone, to a party that neither holds the pair nor countersigned
    the payload, adopts nothing, counts no sender and relays nothing."""
    provider, party, (slot, other) = at_committee(False)
    _, proof = make_proven_pair(provider, 1, slot, b"never seen")
    assert handle(party, slot, Proposal(1, slot, None, proof)) == []
    assert handle(party, other, Suggestion(1, slot, None, proof)) == []
    assert party.inst.slots[slot].pair is None
    assert party.inst.sugg_senders == set() and not party.inst.relayed


# Every behavior, fault-free included, under every policy at the grid's sizes,
# over two instances.
PAIR_SLICE = [dataclasses.replace(grid_config(n, f, seed, policy, fault), instances=2)
              for (n, f) in GRID for fault in ("honest", *BEHAVIORS)
              for policy in POLICIES for seed in range(2)]


def test_proof_only_pair_messages_reach_only_parties_that_fill_them_in(monkeypatch):
    """No receiver meets a proof-only proposal or suggestion it cannot fill
    in, and under fifo a fault-free instance sends exactly (f+1)(n-f-1)
    proof-only proposals: each proposer's n-f-1 other signers."""
    held, handle_env = Party._held_ciphertext, Party.handle
    fills, misses, sent = [0], [], Counter()

    def filling(self, slot):
        ct = held(self, slot)
        fills[0] += 1
        if ct is None:
            misses.append((self.pid, self.instance, slot))
        return ct

    def sending(self, env):
        envs = handle_env(self, env)
        for out in envs:
            sent[out.instance] += sum(type(m) is Proposal and m.ciphertext is None
                                      for m in out.entries)
        return envs

    monkeypatch.setattr(Party, "_held_ciphertext", filling)
    monkeypatch.setattr(Party, "handle", sending)
    for run in PAIR_SLICE:
        sent.clear()
        sim_run(run)
        if run.policy == "fifo" and not run.byzantine:
            per_instance = (run.f + 1) * (run.n - run.f - 1)
            assert sent == {1: per_instance, 2: per_instance}, run
    assert fills[0] and misses == []


@pytest.mark.parametrize("content", ["not a batch", "other proposer", "other instance"])
def test_decided_plaintext_must_be_the_slots_batch(content):
    """A slot decided 1 whose plaintext is not a batch, or is a batch that
    names another proposer or instance, adds nothing to the output; the
    instance still finalizes."""
    provider, party, (slot, zero_slot) = at_committee(False)
    plaintext = {
        "not a batch": b"\x00not a batch",
        "other proposer": RequestBatch(zero_slot, 1, (b"r",)).encode(),
        "other instance": RequestBatch(slot, 2, (b"r",)).encode(),
    }[content]
    pair = make_proven_pair(provider, 1, slot, plaintext)
    handle(party, slot, Suggestion(1, slot, *pair))
    for s, bit in ((slot, 1), (zero_slot, 0)):
        mv = mainvote_bytes(1, s, 1, bit)
        sig = provider.combine_shares(mv, [provider.sig_share(i, mv) for i in range(3)])
        handle(party, slot, AbbaDecision(1, s, 1, bit, sig))
    assert party.inst.slots[slot].plaintext is None  # one decryption share so far
    handle(party, slot, DecShare(1, slot, provider.tpke_dec_share(slot, pair[0])))
    assert party.finished and party.outputs_by_instance[1] == {}
    assert party.archive[1] == {slot: pair} and party.log == []
