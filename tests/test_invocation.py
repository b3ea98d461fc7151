"""Slot invocation: claims, input trigger, recovery, decryption."""
import pytest

from slimabc.abba import AlreadyInputError, mainvote_bytes, preprocess_bytes, prevote_bytes
from slimabc.crypto import key_setup
from slimabc.invocation import SLOT_HANDLERS, InvalidProofError, SlotInvocation
from slimabc.messages import (
    JUST_PREPROCESS_ONE,
    JUST_PREVOTE_THRESHOLD,
    AbbaDecision,
    AbbaMainvote,
    AbbaPreprocess,
    AbbaPrevote,
    DecShare,
    Justification,
    Recover,
    RecoverResp,
    VMsg,
)
from slimabc.simnet import make_proven_pair

INSTANCE, SLOT = 1, 0


def setup(n=4, seed=21):
    provider = key_setup(128, n, seed)
    pair = make_proven_pair(provider, INSTANCE, SLOT, b"slot payload")
    invs = [SlotInvocation(INSTANCE, SLOT, provider.party_handle(i)) for i in range(n)]
    return provider, pair, invs


def test_start_with_pair_claims_one_without_shipping_it():
    _, pair, invs = setup()
    inv = invs[0]
    out = []
    inv.inv_start(1, *pair, out)
    assert inv.u == 1 and inv.pair == pair
    assert out == []  # the owner sends the bare claim; the start itself emits nothing


def test_start_without_pair_claims_zero():
    _, _, invs = setup()
    inv = invs[0]
    assert inv.u is None  # not started
    out = []
    inv.inv_start(0, None, None, out)
    assert inv.u == 0 and out == []


def test_start_one_requires_valid_proof():
    provider, pair, invs = setup()
    with pytest.raises(InvalidProofError):
        invs[0].inv_start(1, None, None, [])
    wrong = make_proven_pair(provider, INSTANCE, SLOT + 1, b"other slot")
    with pytest.raises(InvalidProofError):
        invs[1].inv_start(1, pair[0], wrong[1], [])
    assert invs[0].u is None and invs[1].u is None  # neither started


def test_double_start_rejected():
    _, pair, invs = setup()
    invs[0].inv_start(1, *pair, [])
    with pytest.raises(AlreadyInputError):
        invs[0].inv_start(0, None, None, [])
    assert invs[0].u == 1


def test_input_fires_at_quorum_of_distinct_claims():
    _, pair, invs = setup()
    inv = invs[0]
    out = []
    inv.inv_start(1, *pair, out)
    inv.on_v(0, VMsg(INSTANCE, SLOT, 1), out)  # own claim
    inv.on_v(1, VMsg(INSTANCE, SLOT, 0), out)
    assert inv.abba.input_given is None
    inv.on_v(1, VMsg(INSTANCE, SLOT, 1), out)  # duplicate sender ignored
    assert inv.abba.input_given is None and out == []
    inv.on_v(2, VMsg(INSTANCE, SLOT, 0), out)  # 2f+1 = 3 distinct
    assert inv.abba.input_given == 1
    assert [(type(m), m.bit) for m in out] == [(AbbaPreprocess, 1)]


def test_one_claims_count_but_never_make_a_pairless_input_one():
    """A claim's bit is not read: 2f+1 claims of 1 fix a receiver's input,
    and a receiver without the pair inputs 0, whatever the claims say."""
    _, _, invs = setup()
    inv = invs[0]
    out = []
    inv.on_v(1, VMsg(INSTANCE, SLOT, 1), out)
    inv.on_v(2, VMsg(INSTANCE, SLOT, 1), out)
    inv.on_v(3, VMsg(INSTANCE, SLOT, 1), out)
    assert inv.abba.input_given is None and not out  # not started: claims wait
    inv.inv_start(0, None, None, out)
    assert inv.abba.input_given == 0 and inv.u == 0 and inv.pair is None
    assert [(type(m), m.bit) for m in out] == [(AbbaPreprocess, 0)]


def test_claims_are_freed_once_the_input_is_fixed():
    _, pair, invs = setup()
    inv = invs[0]
    out = []
    inv.inv_start(1, *pair, out)
    for sender in range(3):
        inv.on_v(sender, VMsg(INSTANCE, SLOT, 0), out)
    assert inv.abba.input_given == 1 and inv._v_senders == {}
    emitted = list(out)
    inv.on_v(3, VMsg(INSTANCE, SLOT, 0), out)  # a late claim changes nothing
    assert inv._v_senders == {} and out == emitted and inv.abba.input_given == 1


def run_until_decided(invs, claims):
    """Start each invocation per claims (bit, ciphertext, proof), send its
    claim the way a party does, and deliver everything broadcast-style
    through the party's slot dispatch table; a `Recover` is answered by
    every holder.  Returns the delivered (sender, msg) items."""
    queue = []
    for inv, claim in zip(invs, claims):
        out = []
        inv.inv_start(*claim, out)
        out.append(VMsg(INSTANCE, SLOT, inv.u))
        queue.extend((inv.crypto.party, o) for o in out)
    idx = 0
    while idx < len(queue):
        sender, msg = queue[idx]
        idx += 1
        for inv in invs:
            out = []
            name = SLOT_HANDLERS.get(type(msg))
            if name is not None:
                getattr(inv, name)(sender, msg, out)
            elif inv.pair is not None:  # a Recover
                out.append(RecoverResp(INSTANCE, SLOT, *inv.pair))
            queue.extend((inv.crypto.party, o) for o in out)
        assert idx < 20_000
    return queue


def test_all_holders_decide_one_and_decrypt():
    _, pair, invs = setup()
    run_until_decided(invs, [(1, *pair)] * 4)
    for inv in invs:
        assert inv.decided[0] == 1
        assert inv.plaintext == b"slot payload"
        assert inv.outcome_ready


def test_no_holders_decide_zero_without_decryption():
    _, _, invs = setup()
    run_until_decided(invs, [(0, None, None)] * 4)
    for inv in invs:
        assert inv.decided[0] == 0
        assert inv.plaintext is None
        assert inv.outcome_ready


def test_non_holder_recovers_then_decrypts():
    # three holders, one blank: f+1 honest 1-claims force a 1 decision;
    # the blank party multicasts Recover and finishes via the response
    _, pair, invs = setup()
    sent = run_until_decided(invs, [(1, *pair), (1, *pair), (1, *pair), (0, None, None)])
    for inv in invs:
        assert inv.decided[0] == 1
        assert inv.plaintext == b"slot payload"
    assert invs[3]._recover_sent
    # each party sends one decryption share: the holders on deciding, the
    # blank party once the recovered pair arrives
    assert sorted(s for s, m in sent if type(m) is DecShare) == [0, 1, 2, 3]


def test_dec_shares_buffered_until_pair_known():
    provider, pair, invs = setup()
    inv = invs[0]
    inv.inv_start(0, None, None, [])
    share = provider.tpke_dec_share(2, pair[0])
    out = []
    inv.on_dec_share(2, DecShare(INSTANCE, SLOT, share), out)
    assert inv._dec_pending and not inv._dec_shares
    inv.record_pair(*pair, out)
    assert 2 in inv._dec_shares  # drained once verifiable


def test_parked_dec_shares_keep_one_copy_per_sender():
    """Copies of a decryption share that arrive before the pair take one
    entry; the parked shares still recover the plaintext once the pair is
    known, and both share buffers are emptied then."""
    provider, pair, invs = setup()
    inv = invs[0]
    inv.inv_start(0, None, None, [])
    copies = DecShare(INSTANCE, SLOT, provider.tpke_dec_share(2, pair[0]))
    for _ in range(10_000):
        inv.on_dec_share(2, copies, [])
    inv.on_dec_share(3, DecShare(INSTANCE, SLOT, provider.tpke_dec_share(3, pair[0])), [])
    assert list(inv._dec_pending) == [2, 3]
    mv = mainvote_bytes(INSTANCE, SLOT, 1, 1)
    sig = provider.combine_shares(mv, [provider.sig_share(i, mv) for i in range(3)])
    inv.on_decision(1, AbbaDecision(INSTANCE, SLOT, 1, 1, sig), [])
    assert inv.decided == (1, 1) and inv.plaintext is None
    inv.record_pair(*pair, [])
    assert inv.plaintext == b"slot payload"
    assert inv._dec_pending == {} and inv._dec_shares == {}


def decision_one(provider):
    mv = mainvote_bytes(INSTANCE, SLOT, 1, 1)
    sig = provider.combine_shares(mv, [provider.sig_share(i, mv) for i in range(3)])
    return AbbaDecision(INSTANCE, SLOT, 1, 1, sig)


def dec_shares(out):
    return [m for m in out if type(m) is DecShare]


def test_one_decryption_share_whether_decision_or_pair_comes_last():
    """A holder sends its decryption share once, on whichever of the
    decision 1 and the pair comes last, including a decision that the
    pair's own evidence replay completes."""
    provider, pair, invs = setup()
    # the pair, then the decision
    out = []
    invs[0].record_pair(*pair, out)
    invs[0].on_decision(1, decision_one(provider), out)
    assert len(dec_shares(out)) == 1
    invs[0].record_pair(*pair, out)
    assert len(dec_shares(out)) == 1
    # the decision, then the pair
    out = []
    invs[1].on_decision(2, decision_one(provider), out)
    assert [type(m) for m in out] == [AbbaDecision, Recover]
    invs[1].record_pair(*pair, out)
    invs[1].record_pair(*pair, out)
    assert len(dec_shares(out)) == 1
    # the pair completes the decision: its 1-pre-votes waited for the evidence
    inv, out = invs[2], []
    inv.inv_start(0, None, None, out)
    for sender in range(3):
        inv.on_v(sender, VMsg(INSTANCE, SLOT, 0), out)
    pp0 = preprocess_bytes(INSTANCE, SLOT, 0)
    for sender in range(3):
        inv.on_preprocess(sender, AbbaPreprocess(INSTANCE, SLOT, 0,
                                                 provider.sig_share(sender, pp0)), out)
    assert inv.abba.round == 1
    pp1_share = provider.sig_share(3, preprocess_bytes(INSTANCE, SLOT, 1))
    pv1, mv1 = prevote_bytes(INSTANCE, SLOT, 1, 1), mainvote_bytes(INSTANCE, SLOT, 1, 1)
    pv1_sig = provider.combine_shares(pv1, [provider.sig_share(i, pv1) for i in range(3)])
    for sender in (1, 3, 0):
        inv.on_prevote(sender, AbbaPrevote(
            INSTANCE, SLOT, 1, 1, Justification(JUST_PREPROCESS_ONE, signer=3, share=pp1_share),
            provider.sig_share(sender, pv1)), out)
        inv.on_mainvote(sender, AbbaMainvote(
            INSTANCE, SLOT, 1, 1, Justification(JUST_PREVOTE_THRESHOLD, sig=pv1_sig),
            provider.sig_share(sender, mv1)), out)
    assert inv.decided is None and len(inv.abba._ev_pending) == 3
    out.clear()
    inv.record_pair(*pair, out)
    assert inv.decided == (1, 1)
    assert [type(m) for m in out] == [AbbaMainvote, AbbaDecision, DecShare]


def test_dec_share_holder_must_match_sender():
    provider, pair, invs = setup()
    inv = invs[0]
    inv.record_pair(*pair, [])
    share = provider.tpke_dec_share(2, pair[0])
    inv.on_dec_share(3, DecShare(INSTANCE, SLOT, share), [])
    assert 3 not in inv._dec_shares


def test_record_pair_idempotent_and_validating():
    provider, pair, invs = setup()
    inv = invs[0]
    assert inv.record_pair(*pair, [])
    assert inv.record_pair(*pair, [])
    bad = make_proven_pair(provider, INSTANCE, SLOT + 3, b"x")
    assert not inv.record_pair(pair[0], bad[1], [])
    assert inv.pair == pair
