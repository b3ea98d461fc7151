"""Binary agreement machine: fast paths, justification discipline, coin rounds.

Most tests drive bare AbbaMachine instances with a hand-rolled delivery
loop (every emitted message goes to every machine, sender included, the
way the party layer self-delivers).  The dealer provider lets the tests
forge both valid and invalid justifications at will.
"""
import itertools
import random
from collections import Counter

import pytest

from slimabc.abba import (
    AbbaMachine,
    AlreadyInputError,
    abba_coin_name,
    mainvote_bytes,
    preprocess_bytes,
    prevote_bytes,
)
from slimabc.crypto import CoinShare, ThresholdSignature, key_setup
from slimabc.messages import (
    ABSTAIN,
    AbbaCoinShare,
    AbbaDecision,
    AbbaMainvote,
    AbbaPreprocess,
    AbbaPrevote,
    JUST_CONFLICT,
    JUST_NONE,
    JUST_PREPROCESS_ONE,
    JUST_PREPROCESS_ZERO,
    JUST_PREVOTE_THRESHOLD,
    Justification,
)
from slimabc.simnet import BehaviorSpec, HarnessParty, abba_harness_run

INSTANCE, SLOT = 1, 0


def make_machines(n=4, seed=11, evidence=True):
    provider = key_setup(128, n, n - (n - 1) // 3, seed)
    machines = [AbbaMachine(INSTANCE, SLOT, provider.party_handle(i)) for i in range(n)]
    if evidence:
        for m in machines:
            m.set_evidence_known()
    return provider, machines


def pump(machines, queue, sent=None):
    """Deliver (sender, msg) items to every machine until quiescent; each
    item is also appended to `sent` when one is given."""
    handlers = {
        AbbaPreprocess: "on_preprocess",
        AbbaPrevote: "on_prevote",
        AbbaMainvote: "on_mainvote",
        AbbaCoinShare: "on_coin_share",
        AbbaDecision: "on_decision",
    }
    steps = 0
    while queue:
        steps += 1
        assert steps < 10_000, "delivery loop did not quiesce"
        sender, msg = queue.pop(0)
        if sent is not None:
            sent.append((sender, msg))
        for m in machines:
            out = []
            getattr(m, handlers[type(msg)])(sender, msg, out)
            queue.extend((m.crypto.party, o) for o in out)
    return machines


def run_inputs(machines, bits):
    queue = []
    for m, bit in zip(machines, bits):
        queue.extend((m.crypto.party, o) for o in m.input(bit))
    pump(machines, queue)


def test_unanimous_one_decides_round_one():
    _, machines = make_machines()
    run_inputs(machines, [1, 1, 1, 1])
    for m in machines:
        assert m.decided is not None
        assert (m.decided[0], m.decided[1]) == (1, 1)


def test_unanimous_zero_decides_round_one():
    _, machines = make_machines(evidence=False)
    run_inputs(machines, [0, 0, 0, 0])
    for m in machines:
        assert (m.decided[0], m.decided[1]) == (0, 1)


def test_one_bias_wins_mixed_inputs():
    # any accepted pre-process for 1 pulls the round-1 pre-vote to 1
    _, machines = make_machines()
    run_inputs(machines, [1, 0, 0, 0])
    assert {(m.decided[0], m.decided[1]) for m in machines} == {(1, 1)}


def test_double_input_rejected():
    _, machines = make_machines()
    machines[0].input(1)
    with pytest.raises(AlreadyInputError):
        machines[0].input(0)


def test_preprocess_one_gated_on_evidence():
    provider, machines = make_machines(evidence=False)
    m = machines[0]
    share = provider.sig_share(1, preprocess_bytes(INSTANCE, SLOT, 1))
    m.on_preprocess(1, AbbaPreprocess(INSTANCE, SLOT, 1, share), [])
    assert 1 not in m._pp  # parked until the payload proof is known
    m.set_evidence_known()
    assert 1 in m._pp


def test_agreement_and_validity_over_input_space():
    # exhaustive over n=4 input vectors: all machines agree, and the
    # decided bit was someone's input
    for bits in itertools.product((0, 1), repeat=4):
        _, machines = make_machines(evidence=any(bits))
        run_inputs(machines, list(bits))
        decided = {m.decided[0] for m in machines}
        assert len(decided) == 1, bits
        assert decided.pop() in set(bits), bits


# -- forged-vote rejection ----------------------------------------------------

def sig_for(provider, party, data):
    return provider.sig_share(party, data)


def test_prevote_needs_matching_signer():
    provider, machines = make_machines()
    m = machines[0]
    just = Justification(
        JUST_PREPROCESS_ONE, signer=2,
        share=sig_for(provider, 2, preprocess_bytes(INSTANCE, SLOT, 1)),
    )
    vote_share = sig_for(provider, 3, prevote_bytes(INSTANCE, SLOT, 1, 1))
    # sender 1 replaying party 3's share: share.signer mismatch
    m.on_prevote(1, AbbaPrevote(INSTANCE, SLOT, 1, 1, just, vote_share), [])
    assert 1 not in m._prevotes.get(1, {})
    m.on_prevote(3, AbbaPrevote(INSTANCE, SLOT, 1, 1, just, vote_share), [])
    assert 3 in m._prevotes[1]


def test_prevote_one_rejects_bogus_justifications():
    provider, machines = make_machines()
    m = machines[0]
    vote_share = sig_for(provider, 1, prevote_bytes(INSTANCE, SLOT, 1, 1))
    bad_justs = [
        Justification(JUST_NONE),
        # a pre-process share for the wrong bit
        Justification(
            JUST_PREPROCESS_ONE, signer=2,
            share=sig_for(provider, 2, preprocess_bytes(INSTANCE, SLOT, 0)),
        ),
        # right kind, share attributed to the wrong signer
        Justification(
            JUST_PREPROCESS_ONE, signer=3,
            share=sig_for(provider, 2, preprocess_bytes(INSTANCE, SLOT, 1)),
        ),
    ]
    for just in bad_justs:
        m.on_prevote(1, AbbaPrevote(INSTANCE, SLOT, 1, 1, just, vote_share), [])
        assert 1 not in m._prevotes.get(1, {}), just.kind


def test_prevote_zero_requires_preprocess_threshold():
    provider, machines = make_machines()
    m = machines[0]
    vote_share = sig_for(provider, 1, prevote_bytes(INSTANCE, SLOT, 1, 0))
    wrong = provider.combine_shares(
        b"unrelated", [sig_for(provider, i, b"unrelated") for i in range(3)]
    )
    m.on_prevote(
        1, AbbaPrevote(INSTANCE, SLOT, 1, 0, Justification(JUST_PREPROCESS_ZERO, sig=wrong),
                       vote_share), [],
    )
    assert 1 not in m._prevotes.get(1, {})
    zeros = preprocess_bytes(INSTANCE, SLOT, 0)
    good = provider.combine_shares(zeros, [sig_for(provider, i, zeros) for i in range(3)])
    m.on_prevote(
        1, AbbaPrevote(INSTANCE, SLOT, 1, 0, Justification(JUST_PREPROCESS_ZERO, sig=good),
                       vote_share), [],
    )
    assert 1 in m._prevotes[1]


def test_mainvote_rejects_conflicting_or_unjustified_values():
    provider, machines = make_machines()
    m = machines[0]
    mv_share = sig_for(provider, 1, mainvote_bytes(INSTANCE, SLOT, 1, 1))
    # non-abstain main-vote must carry the round's pre-vote threshold
    m.on_mainvote(
        1, AbbaMainvote(INSTANCE, SLOT, 1, 1, Justification(JUST_NONE), mv_share), [],
    )
    assert 1 not in m._mainvotes.get(1, {})
    pv_bytes = prevote_bytes(INSTANCE, SLOT, 1, 1)
    sig = provider.combine_shares(pv_bytes, [sig_for(provider, i, pv_bytes) for i in range(3)])
    m.on_mainvote(
        1, AbbaMainvote(INSTANCE, SLOT, 1, 1,
                        Justification(JUST_PREVOTE_THRESHOLD, sig=sig), mv_share), [],
    )
    assert 1 in m._mainvotes[1]


def test_abstain_embeds_two_justified_prevotes():
    provider, machines = make_machines()
    m = machines[0]
    pp1 = sig_for(provider, 0, preprocess_bytes(INSTANCE, SLOT, 1))
    pv1 = AbbaPrevote(
        INSTANCE, SLOT, 1, 1,
        Justification(JUST_PREPROCESS_ONE, signer=0, share=pp1),
        sig_for(provider, 0, prevote_bytes(INSTANCE, SLOT, 1, 1)),
    )
    zeros = preprocess_bytes(INSTANCE, SLOT, 0)
    pv0 = AbbaPrevote(
        INSTANCE, SLOT, 1, 0,
        Justification(
            JUST_PREPROCESS_ZERO,
            sig=provider.combine_shares(zeros, [sig_for(provider, i, zeros) for i in range(3)]),
        ),
        sig_for(provider, 2, prevote_bytes(INSTANCE, SLOT, 1, 0)),
    )
    mv_share = sig_for(provider, 1, mainvote_bytes(INSTANCE, SLOT, 1, ABSTAIN))
    good = AbbaMainvote(
        INSTANCE, SLOT, 1, ABSTAIN,
        Justification(JUST_CONFLICT, prevote_zero=pv0, prevote_one=pv1), mv_share,
    )
    m.on_mainvote(1, good, [])
    assert 1 in m._mainvotes[1]
    # same-bit pair is not a conflict
    m2 = machines[1]
    bad = AbbaMainvote(
        INSTANCE, SLOT, 1, ABSTAIN,
        Justification(JUST_CONFLICT, prevote_zero=pv1, prevote_one=pv1),
        sig_for(provider, 1, mainvote_bytes(INSTANCE, SLOT, 1, ABSTAIN)),
    )
    m2.on_mainvote(1, bad, [])
    assert 1 not in m2._mainvotes.get(1, {})


def test_decision_transferable_and_forwarded_once():
    provider, machines = make_machines()
    run_inputs(machines, [1, 1, 1, 1])
    sig = machines[0].decided[2]
    fresh = AbbaMachine(INSTANCE, SLOT, provider.party_handle(0))
    out = []
    fresh.on_decision(2, AbbaDecision(INSTANCE, SLOT, 1, 1, sig), out)
    assert fresh.decided[0] == 1
    assert len(out) == 1  # forwarded
    out2 = []
    fresh.on_decision(3, AbbaDecision(INSTANCE, SLOT, 1, 1, sig), out2)
    assert out2 == []  # only once


def test_forged_decision_ignored():
    provider, machines = make_machines()
    m = machines[0]
    wrong = provider.combine_shares(b"zz", [sig_for(provider, i, b"zz") for i in range(3)])
    m.on_decision(1, AbbaDecision(INSTANCE, SLOT, 1, 1, wrong), [])
    assert m.decided is None


def test_future_round_votes_buffered():
    provider, machines = make_machines()
    m = machines[0]
    pv_bytes = prevote_bytes(INSTANCE, SLOT, 1, 1)
    sig = provider.combine_shares(pv_bytes, [sig_for(provider, i, pv_bytes) for i in range(3)])
    early = AbbaPrevote(
        INSTANCE, SLOT, 2, 1, Justification(JUST_PREVOTE_THRESHOLD, sig=sig),
        sig_for(provider, 2, prevote_bytes(INSTANCE, SLOT, 2, 1)),
    )
    m.on_prevote(2, early, [])
    assert 2 not in m._prevotes.get(2, {})
    assert m._future  # parked for round 2


def engineered_split(sent=None):
    """One party pre-votes 1, two pre-vote 0 => abstain main-votes and a coin.
    Returns the provider and the three active machines; every vote, coin share
    and decision they send is appended to `sent` when one is given."""
    provider, machines = make_machines()
    active = machines[:3]
    queue = []
    # selective pre-process delivery: machine 0 sees a 1, machines 1-2 only 0s
    pp1 = AbbaPreprocess(INSTANCE, SLOT, 1,
                         sig_for(provider, 0, preprocess_bytes(INSTANCE, SLOT, 1)))
    pp0 = {
        i: AbbaPreprocess(INSTANCE, SLOT, 0,
                          sig_for(provider, i, preprocess_bytes(INSTANCE, SLOT, 0)))
        for i in (1, 2, 3)
    }
    out0 = machines[0].input(1)
    out1 = machines[1].input(0)
    out2 = machines[2].input(0)
    assert [type(m) for m in out0] == [AbbaPreprocess]
    machines[0].on_preprocess(0, out0[0], [])
    machines[0].on_preprocess(1, pp0[1], [])
    emitted0 = []
    machines[0].on_preprocess(2, pp0[2], emitted0)  # 3rd pp: round entry
    machines[1].on_preprocess(1, out1[0], [])
    machines[1].on_preprocess(2, pp0[2], [])
    emitted1 = []
    machines[1].on_preprocess(3, pp0[3], emitted1)
    machines[2].on_preprocess(2, out2[0], [])
    machines[2].on_preprocess(1, pp0[1], [])
    emitted2 = []
    machines[2].on_preprocess(3, pp0[3], emitted2)
    votes = [(0, emitted0), (1, emitted1), (2, emitted2)]
    assert all(len(v) == 1 and isinstance(v[0], AbbaPrevote) for _, v in votes)
    assert [v[0].bit for _, v in votes] == [1, 0, 0]
    queue = [(pid, v[0]) for pid, v in votes]
    pump(active, queue, sent)
    return provider, active


def test_coin_round_resolves_engineered_split():
    """The split's abstain main-votes lead to a unanimous round-2 decision
    on the coin bit."""
    provider, active = engineered_split()
    coin = provider.coin_toss_bit(
        abba_coin_name(INSTANCE, SLOT, 1),
        [provider.coin_share(i, abba_coin_name(INSTANCE, SLOT, 1)) for i in range(2)],
    )
    for m in active:
        assert m._mainvotes[1][m.crypto.party].value == ABSTAIN
        assert (m.decided[0], m.decided[1]) == (coin, 2)


# -- per-machine signing strings ------------------------------------------------

def run_shuffled(seed, bits, sent=None):
    """Deliver every message to every machine (sender included) in a seeded
    random order until quiescent; each emitted (sender, msg) is also appended
    to `sent` when one is given."""
    handlers = {
        AbbaPreprocess: "on_preprocess",
        AbbaPrevote: "on_prevote",
        AbbaMainvote: "on_mainvote",
        AbbaCoinShare: "on_coin_share",
        AbbaDecision: "on_decision",
    }
    provider, machines = make_machines(seed=seed)
    rng = random.Random(seed)
    queue = []
    for m, bit in zip(machines, bits):
        out = m.input(bit)
        if sent is not None:
            sent.extend((m.crypto.party, o) for o in out)
        queue.extend((m.crypto.party, o, dst) for o in out for dst in range(4))
    while queue:
        sender, msg, dst = queue.pop(rng.randrange(len(queue)))
        out = []
        getattr(machines[dst], handlers[type(msg)])(sender, msg, out)
        if sent is not None:
            sent.extend((dst, o) for o in out)
        queue.extend((dst, o, q) for o in out for q in range(4))
    return provider, machines


def test_signing_strings_cached_per_entered_round():
    rounds_seen = set()
    for seed in range(8):
        _, machines = run_shuffled(seed, [1, 0, 0, 0] if seed % 2 else [0, 1, 0, 1])
        for m in machines:
            assert m.decided is not None
            assert m._pp_msgs == tuple(preprocess_bytes(INSTANCE, SLOT, b) for b in (0, 1))
            assert set(m._round_msgs) == set(range(1, m.round + 1))
            for r, msgs in m._round_msgs.items():
                assert msgs == (
                    prevote_bytes(INSTANCE, SLOT, r, 0),
                    prevote_bytes(INSTANCE, SLOT, r, 1),
                    mainvote_bytes(INSTANCE, SLOT, r, 0),
                    mainvote_bytes(INSTANCE, SLOT, r, 1),
                    mainvote_bytes(INSTANCE, SLOT, r, ABSTAIN),
                )
            rounds_seen.add(m.round)
    assert rounds_seen >= {1, 2}


def test_wire_rounds_never_grow_the_string_cache():
    provider, machines = make_machines()
    m = machines[0]
    out = m.input(1)
    for i in range(1, 4):  # n-f pre-processes: m enters round 1 and stays undecided
        m.on_preprocess(i, machines[i].input(1)[0], out)
    assert m.round == 1 and set(m._round_msgs) == {1}
    entered = dict(m._round_msgs)
    forged_sig = ThresholdSignature(bytes(32), bytes(8))
    for r in range(2, 65536):
        out = []
        m.on_decision(1, AbbaDecision(INSTANCE, SLOT, r, r & 1, forged_sig), out)
        bogus = CoinShare(1, abba_coin_name(INSTANCE, SLOT, r), bytes(8))
        m.on_coin_share(1, AbbaCoinShare(INSTANCE, SLOT, r, bogus), out)
        assert out == []
    assert m._round_msgs == entered and m.decided is None
    # a valid decision for a round never entered is still accepted
    mv = mainvote_bytes(INSTANCE, SLOT, 70, 1)
    sig = provider.combine_shares(mv, [sig_for(provider, i, mv) for i in range(3)])
    m.on_decision(2, AbbaDecision(INSTANCE, SLOT, 70, 1, sig), [])
    assert m.decided[:2] == (1, 70) and m._round_msgs == entered


# -- one vote per sender per round -------------------------------------------

def votes_per_round(sent):
    """Count each sender's pre-votes, main-votes and coin shares per round."""
    return Counter(
        (sender, type(msg).__name__, msg.round)
        for sender, msg in sent
        if type(msg) in (AbbaPrevote, AbbaMainvote, AbbaCoinShare)
    )


def test_one_vote_per_sender_per_round_in_coin_rounds():
    sent = []
    engineered_split(sent)
    counts = votes_per_round(sent)
    assert max(counts.values()) == 1
    assert {k for k in counts if k[1] == "AbbaCoinShare"} == {
        (p, "AbbaCoinShare", 1) for p in range(3)
    }
    rounds_seen = set()
    for seed in range(8):
        sent = []
        _, machines = run_shuffled(seed, [1, 0, 0, 0] if seed % 2 else [0, 1, 0, 1], sent)
        assert max(votes_per_round(sent).values()) == 1, seed
        rounds_seen |= {m.round for m in machines}
    assert rounds_seen >= {1, 2}


def test_one_vote_per_sender_per_round_under_random_votes(monkeypatch):
    sent = []
    flush = HarnessParty._flush

    def recording(self):
        # every vote is broadcast: a bare message on the party's wire
        sent.extend((self.pid, m) for m in self._wire if type(m) is not tuple)
        return flush(self)

    monkeypatch.setattr(HarnessParty, "_flush", recording)
    byz = (BehaviorSpec(5, "random-votes"), BehaviorSpec(6, "random-votes"))
    decided_rounds = set()
    for seed in range(6):
        for policy in ("random", "adversarial-delay"):
            sent.clear()
            # one honest 1-input: the honest parties split and need the coin
            result = abba_harness_run(7, 2, seed, [0, 1, 0, 0, 0, 0, 0], byzantine=byz,
                                      policy=policy)
            assert not result["stalled"]
            counts = votes_per_round([(p, m) for p, m in sent if p < 5])
            assert max(counts.values()) == 1, (seed, policy)
            assert any(k[1] == "AbbaCoinShare" for k in counts), (seed, policy)
            decided_rounds |= {d[1] for d in result["decisions"].values()}
    assert decided_rounds >= {2, 3}
