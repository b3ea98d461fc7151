"""Batches, pools, and the orchestrated full stack at small n."""
import hashlib
import itertools
import typing
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimabc import BehaviorSpec, Party, RequestBatch, SimConfig, sim_run
from slimabc.crypto import key_setup
from slimabc.invocation import SLOT_HANDLERS, SlotInvocation
from slimabc.messages import (
    BROADCAST,
    CsShare,
    Envelope,
    Message,
    PpbPayload,
    PpbShare,
    Proposal,
    Recover,
    Suggestion,
    VMsg,
)
from slimabc.protocol import instance_pool, sample_batch
from slimabc.simnet import BEHAVIORS, POLICIES, HarnessParty, RunRecorder


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


def test_batch_binds_proposer_and_instance():
    b = RequestBatch.decode(RequestBatch(2, 5, (b"r",)).encode())
    assert (b.proposer, b.instance) == (2, 5)


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


def test_sample_batch_is_sorted_subset():
    c = cfg()
    pool = instance_pool(c, 1, 2)
    batch = sample_batch(c, 2, 1, pool)
    assert len(batch) == c.batch_size
    idx = [pool.index(r) for r in batch]
    assert idx == sorted(idx)
    # smaller pool than batch_size: take what is there
    assert len(sample_batch(c, 2, 1, pool[:2])) == 2


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

    provider = key_setup(128, 4, 3, 2)
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
FLUSH_PARTY = key_setup(128, FLUSH_N, 3, 4).party_handle(1)

wire_entries = st.lists(
    st.tuples(
        st.sampled_from([BROADCAST] * 3 + list(range(FLUSH_N))),  # pid 1 is self
        st.builds(VMsg, st.sampled_from([1, 2]), st.integers(0, 3), st.integers(0, 1)),
        st.booleans(),  # a Recover for the same slot instead of the claim
    ),
    max_size=8,
)


def check_flush(party, entries) -> None:
    """`party._flush()` groups its wire as `reference_flush` does, and sends
    a broadcast-only step of one instance as one shared entries tuple."""
    expected = reference_flush(party, list(party._wire))
    got = party._flush()
    assert party._wire == []
    assert [(e.sender, e.instance, e.dst) for e in got] == \
        [(e.sender, e.instance, e.dst) for e in expected]
    for e, ref in zip(got, expected):
        assert e.entries == ref.entries
        assert e.size() == len(e.encode()) == len(ref.encode())
    if len({(dst, v.instance) for dst, v, _ in entries if dst != 1}) == 1 and \
            entries[0][0] == BROADCAST:  # a broadcast-only step of one instance
        assert len({id(e.entries) for e in got}) == 1


@settings(max_examples=150, deadline=None)
@given(entries=wire_entries)
def test_flush_matches_per_peer_grouping(entries):
    party = Party(1, FLUSH_PARTY, cfg())
    for dst, v, recover in entries:
        party._emit(dst, Recover(v.instance, v.slot) if recover else v)
    check_flush(party, entries)


@settings(max_examples=150, deadline=None)
@given(entries=wire_entries)
def test_harness_flush_matches_per_peer_grouping(entries):
    party = HarnessParty(1, FLUSH_PARTY, cfg(), None)
    for dst, v, recover in entries:
        party._emit(dst, Recover(v.instance, v.slot) if recover else v)
    check_flush(party, entries)  # the unsized flush groups as the sized one


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
    provider = key_setup(128, 4, 3, 6)
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
