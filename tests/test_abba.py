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
    preprocess_strings,
    prevote_bytes,
    round_strings,
)
from slimabc.crypto import CoinShare, ThresholdSignature, key_setup
from slimabc.messages import (
    ABSTAIN,
    AbbaCoinShare,
    AbbaDecision,
    AbbaMainvote,
    AbbaPreprocess,
    AbbaPrevote,
    JUST_ABSTAIN_THRESHOLD,
    JUST_CONFLICT,
    JUST_NONE,
    JUST_PREPROCESS_ONE,
    JUST_PREPROCESS_ZERO,
    JUST_PREVOTE_THRESHOLD,
    Justification,
)
from slimabc.config import BehaviorSpec
from slimabc.invocation import SLOT_HANDLERS
from slimabc.simnet import HarnessParty, abba_harness_run

INSTANCE, SLOT = 1, 0


def make_machines(n=4, seed=11, evidence=True):
    provider = key_setup(128, n, seed)
    machines = [AbbaMachine(INSTANCE, SLOT, provider.party_handle(i)) for i in range(n)]
    if evidence:
        for m in machines:
            m.set_evidence_known()
    return provider, machines


def pump(machines, queue, sent=None):
    """Deliver (sender, msg) items to every machine until quiescent; each
    item is also appended to `sent` when one is given.  Each kind goes to
    the handler the party's dispatch names for it."""
    steps = 0
    while queue:
        steps += 1
        assert steps < 10_000, "delivery loop did not quiesce"
        sender, msg = queue.pop(0)
        if sent is not None:
            sent.append((sender, msg))
        for m in machines:
            out = []
            getattr(m, SLOT_HANDLERS[type(msg)])(sender, msg, out)
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
    pp_one = AbbaPreprocess(INSTANCE, SLOT, 1, share)
    m.on_preprocess(1, pp_one, [])
    assert 1 not in m._pp  # parked until the payload proof is known
    assert m._ev_pending == {(AbbaPreprocess, 0, 1): (1, pp_one)}
    m.set_evidence_known()
    assert m._pp == {1: pp_one} and m._ev_pending == {}


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


def justified_prevotes(provider, signer0=2, signer1=0):
    """A round-1 pre-vote for 0 (by `signer0`) and for 1 (by `signer1`), each
    validly signed and justified."""
    zeros = preprocess_bytes(INSTANCE, SLOT, 0)
    pv0 = AbbaPrevote(
        INSTANCE, SLOT, 1, 0,
        Justification(JUST_PREPROCESS_ZERO, sig=provider.combine_shares(
            zeros, [sig_for(provider, i, zeros) for i in range(3)])),
        sig_for(provider, signer0, prevote_bytes(INSTANCE, SLOT, 1, 0)),
    )
    pp1 = sig_for(provider, signer1, preprocess_bytes(INSTANCE, SLOT, 1))
    pv1 = AbbaPrevote(
        INSTANCE, SLOT, 1, 1, Justification(JUST_PREPROCESS_ONE, signer=signer1, share=pp1),
        sig_for(provider, signer1, prevote_bytes(INSTANCE, SLOT, 1, 1)),
    )
    return pv0, pv1


def test_abstain_embeds_two_justified_prevotes():
    provider, machines = make_machines()
    m = machines[0]
    pv0, pv1 = justified_prevotes(provider)
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


def test_mainvote_needs_the_prevote_threshold_of_its_own_value():
    """A validly signed 0/1 main-vote whose pre-vote threshold signature is
    over other bytes (the other bit's pre-votes, or another round's) is not
    counted."""
    provider, machines = make_machines()
    m = machines[0]
    mv_share = sig_for(provider, 1, mainvote_bytes(INSTANCE, SLOT, 1, 1))
    for data in (prevote_bytes(INSTANCE, SLOT, 1, 0), prevote_bytes(INSTANCE, SLOT, 2, 1),
                 mainvote_bytes(INSTANCE, SLOT, 1, 1)):
        sig = provider.combine_shares(data, [sig_for(provider, i, data) for i in range(3)])
        m.on_mainvote(1, AbbaMainvote(INSTANCE, SLOT, 1, 1,
                                      Justification(JUST_PREVOTE_THRESHOLD, sig=sig), mv_share), [])
        assert 1 not in m._mainvotes.get(1, {}), data


def test_abstain_rejects_unjustified_embedded_prevotes():
    """A validly signed abstain main-vote is not counted when one of its two
    embedded pre-votes carries a bad signature share or a bad justification."""
    provider, machines = make_machines()
    m = machines[0]
    pv0, pv1 = justified_prevotes(provider)
    zeroed = pv1.share._replace(share_bytes=bytes(len(pv1.share.share_bytes)))
    bad_pairs = [
        (pv0, pv1._replace(share=zeroed)),  # a forged share
        (pv0._replace(share=sig_for(provider, 2, b"other")), pv1),  # a share of other bytes
        (pv0, pv1._replace(justification=Justification(JUST_NONE))),
    ]
    mv_share = sig_for(provider, 1, mainvote_bytes(INSTANCE, SLOT, 1, ABSTAIN))
    for zero, one in bad_pairs:
        m.on_mainvote(1, AbbaMainvote(
            INSTANCE, SLOT, 1, ABSTAIN,
            Justification(JUST_CONFLICT, prevote_zero=zero, prevote_one=one), mv_share), [])
        assert 1 not in m._mainvotes.get(1, {})
    m.on_mainvote(1, AbbaMainvote(
        INSTANCE, SLOT, 1, ABSTAIN,
        Justification(JUST_CONFLICT, prevote_zero=pv0, prevote_one=pv1), mv_share), [])
    assert 1 in m._mainvotes[1]  # the same vote with both embedded pre-votes valid


def machine_in_round_two():
    """Machine 0 after an abstain round 1 and its coin: in round 2,
    undecided, with `coins[1]` known.  Returns the provider and the machine."""
    provider, machines = make_machines()
    m = machines[0]
    m.input(0)
    zeros = preprocess_bytes(INSTANCE, SLOT, 0)
    for i in (1, 2, 3):
        m.on_preprocess(i, AbbaPreprocess(INSTANCE, SLOT, 0, sig_for(provider, i, zeros)), [])
    pv0, pv1 = justified_prevotes(provider, signer0=2, signer1=1)
    pv0_3 = justified_prevotes(provider, signer0=3)[0]
    for sender, pv in ((1, pv1), (2, pv0), (3, pv0_3)):
        m.on_prevote(sender, pv, [])
    abstain = Justification(JUST_CONFLICT, prevote_zero=pv0, prevote_one=pv1)
    coin_name = abba_coin_name(INSTANCE, SLOT, 1)
    for i in (1, 2, 3):
        m.on_mainvote(i, AbbaMainvote(
            INSTANCE, SLOT, 1, ABSTAIN, abstain,
            sig_for(provider, i, mainvote_bytes(INSTANCE, SLOT, 1, ABSTAIN))), [])
    for i in (1, 2, 3):
        m.on_coin_share(i, AbbaCoinShare(INSTANCE, SLOT, 1, provider.coin_share(i, coin_name)),
                        [])
    assert m.round == 2 and m.decided is None and 1 in m.coins
    return provider, m


def test_abstain_justified_prevote_must_carry_the_coin_bit():
    """A validly signed round-2 pre-vote justified by round 1's abstain
    threshold signature is counted for the coin's bit only."""
    provider, m = machine_in_round_two()
    abstains = mainvote_bytes(INSTANCE, SLOT, 1, ABSTAIN)
    just = Justification(JUST_ABSTAIN_THRESHOLD, sig=provider.combine_shares(
        abstains, [sig_for(provider, i, abstains) for i in range(3)]))
    coin = m.coins[1]
    m.on_prevote(1, AbbaPrevote(INSTANCE, SLOT, 2, 1 - coin, just,
                                sig_for(provider, 1, prevote_bytes(INSTANCE, SLOT, 2, 1 - coin))),
                 [])
    assert 1 not in m._prevotes.get(2, {})
    m.on_prevote(2, AbbaPrevote(INSTANCE, SLOT, 2, coin, just,
                                sig_for(provider, 2, prevote_bytes(INSTANCE, SLOT, 2, coin))), [])
    assert 2 in m._prevotes[2]  # the same justification with the coin's bit


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


def test_parked_votes_keep_one_copy_per_sender():
    """A sender repeating a vote the machine cannot check yet grows no
    buffer: the first copy is parked, every later one is dropped."""
    provider, machines = make_machines(evidence=False)
    m = machines[0]
    junk = AbbaPrevote(INSTANCE, SLOT, 5, 1, Justification(JUST_NONE), sig_for(provider, 2, b"x"))
    ahead = AbbaMainvote(INSTANCE, SLOT, 5, ABSTAIN, Justification(JUST_NONE),
                         sig_for(provider, 2, b"x"))
    pp_share = sig_for(provider, 2, preprocess_bytes(INSTANCE, SLOT, 1))
    pp_one = AbbaPreprocess(INSTANCE, SLOT, 1, pp_share)
    pv_one = AbbaPrevote(
        INSTANCE, SLOT, 1, 1, Justification(JUST_PREPROCESS_ONE, signer=2, share=pp_share),
        sig_for(provider, 2, prevote_bytes(INSTANCE, SLOT, 1, 1)),
    )
    for _ in range(10_000):
        m.on_prevote(2, junk, [])
        m.on_mainvote(2, ahead, [])
        m.on_preprocess(2, pp_one, [])
        m.on_prevote(2, pv_one, [])
    assert len(m._future[5]) == 2
    assert list(m._ev_pending) == [(AbbaPreprocess, 0, 2), (AbbaPrevote, 1, 2)]
    # the parked copies still count once the payload proof is known
    m.set_evidence_known()
    assert m._pp[2] == pp_one and m._prevotes[1][2] == pv_one


LEDGERS = ("_pp", "_prevotes", "_mainvotes", "_coin_shares", "_future")


def test_decided_machines_free_their_ledgers():
    """Every machine of a run that decides by its own quorum, by a coin
    round or by a forwarded decision holds no vote ledger and no parked
    round afterwards."""
    _, machines = make_machines()
    run_inputs(machines, [1, 1, 1, 1])
    _, split = engineered_split()
    for m in machines + split:
        assert m.decided is not None
        assert [getattr(m, name) for name in LEDGERS] == [{}] * len(LEDGERS)
        assert m._round_msgs  # on_decision still reads the entered rounds' strings


def test_decided_machine_still_replays_evidence_parked_votes(monkeypatch):
    """A decision frees the ledgers, but what is parked for the payload
    proof stays: once the proof is known, the vote is handed to the public
    handler, which drops it, and the pre-process for 1 is skipped."""
    provider, machines = make_machines(evidence=False)
    m = machines[0]
    pp_bytes = preprocess_bytes(INSTANCE, SLOT, 0)
    pp_one_share = sig_for(provider, 2, preprocess_bytes(INSTANCE, SLOT, 1))
    pv_one = AbbaPrevote(
        INSTANCE, SLOT, 1, 1, Justification(JUST_PREPROCESS_ONE, signer=2, share=pp_one_share),
        sig_for(provider, 2, prevote_bytes(INSTANCE, SLOT, 1, 1)),
    )
    pv_zero = AbbaPrevote(
        INSTANCE, SLOT, 1, 0,
        Justification(JUST_PREPROCESS_ZERO, sig=provider.combine_shares(
            pp_bytes, [sig_for(provider, i, pp_bytes) for i in range(3)])),
        sig_for(provider, 3, prevote_bytes(INSTANCE, SLOT, 1, 0)),
    )
    ahead = AbbaPrevote(INSTANCE, SLOT, 5, 1, Justification(JUST_NONE), sig_for(provider, 2, b"x"))
    coin_name = abba_coin_name(INSTANCE, SLOT, 1)
    m.on_preprocess(1, AbbaPreprocess(INSTANCE, SLOT, 0, sig_for(provider, 1, pp_bytes)), [])
    m.on_preprocess(2, AbbaPreprocess(INSTANCE, SLOT, 1, pp_one_share), [])
    m.on_prevote(2, pv_one, [])
    m.on_prevote(3, pv_zero, [])
    m.on_prevote(2, ahead, [])
    m.on_coin_share(1, AbbaCoinShare(INSTANCE, SLOT, 1, provider.coin_share(1, coin_name)), [])
    assert all(getattr(m, name) for name in LEDGERS if name != "_mainvotes")
    assert list(m._ev_pending) == [(AbbaPreprocess, 0, 2), (AbbaPrevote, 1, 2)]

    mv = mainvote_bytes(INSTANCE, SLOT, 1, 1)
    sig = provider.combine_shares(mv, [sig_for(provider, i, mv) for i in range(3)])
    m.on_decision(1, AbbaDecision(INSTANCE, SLOT, 1, 1, sig), [])
    assert m.decided[:2] == (1, 1)
    assert [getattr(m, name) for name in LEDGERS] == [{}] * len(LEDGERS)
    assert len(m._ev_pending) == 2

    calls = []
    for name in ("on_preprocess", "on_prevote"):
        def counted(self, sender, msg, out, handler=getattr(AbbaMachine, name)):
            calls.append((sender, msg))
            handler(self, sender, msg, out)

        monkeypatch.setattr(AbbaMachine, name, counted)
    assert m.set_evidence_known() == []
    assert calls == [(2, pv_one)]
    assert m._ev_pending == {} and m._prevotes == {} and m._pp == {}


def test_signing_strings_built_once_per_round():
    assert round_strings(INSTANCE, SLOT, 3) is round_strings(INSTANCE, SLOT, 3)
    assert preprocess_strings(INSTANCE, SLOT) is preprocess_strings(INSTANCE, SLOT)
    _, machines = make_machines()
    run_inputs(machines, [1, 1, 1, 1])
    for m in machines:
        assert m._round_msgs[1] is machines[0]._round_msgs[1]
        assert m._pp_msgs is machines[0]._pp_msgs


def test_unentered_rounds_stay_out_of_the_string_cache():
    provider, machines = make_machines()
    m = machines[0]
    before = round_strings.cache_info()
    assert m._mv_msg(70, 1) == mainvote_bytes(INSTANCE, SLOT, 70, 1)
    mv = mainvote_bytes(INSTANCE, SLOT, 71, 0)
    sig = provider.combine_shares(mv, [sig_for(provider, i, mv) for i in range(3)])
    m.on_decision(2, AbbaDecision(INSTANCE, SLOT, 71, 0, sig), [])
    assert m.decided[:2] == (0, 71)
    after = round_strings.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


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
    sent = []
    provider, active = engineered_split(sent)
    coin = provider.coin_toss_bit(
        abba_coin_name(INSTANCE, SLOT, 1),
        [provider.coin_share(i, abba_coin_name(INSTANCE, SLOT, 1)) for i in range(2)],
    )
    for m in active:
        # a decided machine keeps no ledger, so read its round-1 main-vote off the wire
        assert [msg.value for s, msg in sent if s == m.crypto.party
                and type(msg) is AbbaMainvote and msg.round == 1] == [ABSTAIN]
        assert (m.decided[0], m.decided[1]) == (coin, 2)


# -- per-machine signing strings ------------------------------------------------

def run_shuffled(seed, bits, sent=None):
    """Deliver every message to every machine (sender included) in a seeded
    random order until quiescent; each emitted (sender, msg) is also appended
    to `sent` when one is given."""
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
        getattr(machines[dst], SLOT_HANDLERS[type(msg)])(sender, msg, out)
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
    forged_sig = ThresholdSignature(bytes(8))
    for r in range(2, 65536):
        out = []
        m.on_decision(1, AbbaDecision(INSTANCE, SLOT, r, r & 1, forged_sig), out)
        bogus = CoinShare(1, bytes(8))
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
