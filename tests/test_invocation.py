"""Slot invocation: claims, input trigger, recovery, decryption."""
import pytest

from slimabc.abba import AlreadyInputError, mainvote_bytes
from slimabc.crypto import key_setup
from slimabc.invocation import InvalidProofError, SlotInvocation
from slimabc.messages import AbbaDecision, DecShare, Recover, RecoverResp, VMsg
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
    inv.inv_start(1, *pair)
    v = inv.take_v()
    assert (v.u, v.ciphertext, v.proof) == (1, None, None)
    assert inv.u == 1 and inv.pair == pair
    assert inv.take_v() is None  # consumed


def test_start_without_pair_claims_zero():
    _, _, invs = setup()
    inv = invs[0]
    inv.inv_start(0)
    assert inv.take_v().u == 0
    assert inv.u == 0


def test_start_one_requires_valid_proof():
    provider, pair, invs = setup()
    with pytest.raises(InvalidProofError):
        invs[0].inv_start(1)
    wrong = make_proven_pair(provider, INSTANCE, SLOT + 1, b"other slot")
    with pytest.raises(InvalidProofError):
        invs[1].inv_start(1, pair[0], wrong[1])


def test_double_start_rejected():
    _, pair, invs = setup()
    invs[0].inv_start(1, *pair)
    with pytest.raises(AlreadyInputError):
        invs[0].inv_start(0)


def test_input_fires_at_quorum_of_distinct_claims():
    _, pair, invs = setup()
    inv = invs[0]
    inv.inv_start(1, *pair)
    out = []
    inv.on_v(0, VMsg(INSTANCE, SLOT, 1), out)  # own claim
    inv.on_v(1, VMsg(INSTANCE, SLOT, 0), out)
    assert inv.input_bit is None
    inv.on_v(1, VMsg(INSTANCE, SLOT, 1), out)  # duplicate sender ignored
    assert inv.input_bit is None
    inv.on_v(2, VMsg(INSTANCE, SLOT, 0), out)  # 2f+1 = 3 distinct
    assert inv.input_bit == 1


def test_v_with_attached_pair_is_adopted():
    _, pair, invs = setup()
    inv = invs[0]
    inv.inv_start(0)
    out = []
    inv.on_v(2, VMsg(INSTANCE, SLOT, 1, pair[0], pair[1]), out)
    assert inv.pair == pair
    assert inv.u == 1  # upgraded before input


def test_v_with_bogus_pair_demotes_to_zero():
    provider, pair, invs = setup()
    inv = invs[0]
    inv.inv_start(0)
    out = []
    wrong = make_proven_pair(provider, INSTANCE, SLOT + 2, b"not this slot")
    inv.on_v(2, VMsg(INSTANCE, SLOT, 1, pair[0], wrong[1]), out)
    assert inv.pair is None and inv.u == 0
    assert inv._v_senders[2] == 0  # still counted, as a 0
    inv.on_v(1, VMsg(INSTANCE, SLOT, 0), out)
    inv.on_v(0, VMsg(INSTANCE, SLOT, 0), out)
    assert inv.input_bit == 0


def run_until_decided(invs, claims):
    """Start each invocation per claims and deliver everything broadcast-style."""
    queue = []
    for inv, claim in zip(invs, claims):
        inv.inv_start(*claim)
        v = inv.take_v()
        queue.append((inv.crypto.party, v))
    idx = 0
    while idx < len(queue):
        sender, msg = queue[idx]
        idx += 1
        for inv in invs:
            out = []
            if isinstance(msg, VMsg):
                inv.on_v(sender, msg, out)
            elif isinstance(msg, DecShare):
                inv.on_dec_share(sender, msg, out)
            elif isinstance(msg, RecoverResp):
                inv.on_recover_resp(sender, msg, out)
            elif isinstance(msg, Recover):
                if inv.pair is not None:
                    out.append(RecoverResp(INSTANCE, SLOT, *inv.pair))
            else:
                handler = {
                    "AbbaPreprocess": inv.on_preprocess,
                    "AbbaPrevote": inv.on_prevote,
                    "AbbaMainvote": inv.on_mainvote,
                    "AbbaCoinShare": inv.on_coin_share,
                    "AbbaDecision": inv.on_decision,
                }[type(msg).__name__]
                handler(sender, msg, out)
            queue.extend((inv.crypto.party, o) for o in out)
        assert idx < 20_000


def test_all_holders_decide_one_and_decrypt():
    _, pair, invs = setup()
    run_until_decided(invs, [(1, *pair)] * 4)
    for inv in invs:
        assert inv.decided[0] == 1
        assert inv.plaintext == b"slot payload"
        assert inv.outcome_ready


def test_no_holders_decide_zero_without_decryption():
    _, _, invs = setup()
    run_until_decided(invs, [(0,)] * 4)
    for inv in invs:
        assert inv.decided[0] == 0
        assert inv.plaintext is None
        assert inv.outcome_ready


def test_non_holder_recovers_then_decrypts():
    # three holders, one blank: f+1 honest 1-claims force a 1 decision;
    # the blank party multicasts Recover and finishes via the response
    _, pair, invs = setup()
    run_until_decided(invs, [(1, *pair), (1, *pair), (1, *pair), (0,)])
    for inv in invs:
        assert inv.decided[0] == 1
        assert inv.plaintext == b"slot payload"
    assert invs[3]._recover_sent


def test_dec_shares_buffered_until_pair_known():
    provider, pair, invs = setup()
    inv = invs[0]
    inv.inv_start(0)
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
    inv.inv_start(0)
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
