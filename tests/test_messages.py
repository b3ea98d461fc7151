"""Wire encoding: the computed envelope size matches the encoded bytes."""
import dataclasses
import typing

from slimabc import BehaviorSpec, SimConfig, sim_run
from slimabc.crypto import key_setup
from slimabc.messages import (
    ABSTAIN,
    JUST_ABSTAIN_THRESHOLD,
    JUST_CONFLICT,
    JUST_NONE,
    JUST_PREPROCESS_ONE,
    JUST_PREPROCESS_ZERO,
    JUST_PREVOTE_THRESHOLD,
    AbbaCoinShare,
    AbbaDecision,
    AbbaMainvote,
    AbbaPreprocess,
    AbbaPrevote,
    CsShare,
    DecShare,
    Envelope,
    Justification,
    Message,
    PpbPayload,
    PpbShare,
    Proposal,
    Recover,
    RecoverResp,
    Suggestion,
    VMsg,
)
from slimabc.protocol import Party


def one_of_each():
    p = key_setup(128, 4, 3, 1)
    ct = p.tpke_enc(b"batch bytes" * 9)
    share = p.sig_share(2, b"m")
    sig = p.combine_shares(b"m", [p.sig_share(i, b"m") for i in range(3)])
    coin = p.coin_share(1, b"coin")
    pv0 = AbbaPrevote(1, 3, 1, 0, Justification(JUST_PREPROCESS_ZERO, sig=sig), share)
    pv1 = AbbaPrevote(1, 3, 1, 1, Justification(JUST_PREPROCESS_ONE, signer=2, share=share),
                      share)
    msgs = [
        CsShare(1, coin),
        PpbPayload(1, 2, ct),
        PpbShare(1, 2, share),
        Proposal(1, 2, ct, sig),
        Suggestion(1, 2, ct, sig, relayer=3),
        VMsg(1, 2, 0),
        VMsg(1, 2, 1, ct, sig),  # a claim carrying its pair
        AbbaPreprocess(1, 2, 1, share),
        pv0,
        pv1,
        AbbaPrevote(1, 2, 2, 1, Justification(JUST_PREVOTE_THRESHOLD, sig=sig), share),
        AbbaPrevote(1, 2, 2, 0, Justification(JUST_ABSTAIN_THRESHOLD, sig=sig), share),
        AbbaMainvote(1, 3, 1, 1, Justification(JUST_PREVOTE_THRESHOLD, sig=sig), share),
        AbbaMainvote(1, 3, 1, ABSTAIN,
                     Justification(JUST_CONFLICT, prevote_zero=pv0, prevote_one=pv1), share),
        AbbaMainvote(1, 3, 1, 0, Justification(JUST_NONE), share),
        AbbaCoinShare(1, 2, 3, coin),
        AbbaDecision(1, 2, 3, 1, sig),
        Recover(1, 2),
        RecoverResp(1, 2, ct, sig),
        DecShare(1, 2, p.tpke_dec_share(0, ct)),
    ]
    # copies like the ones byzantine behaviors make
    flipped = dataclasses.replace(share, share_bytes=bytes([share.share_bytes[0] ^ 0xFF])
                                  + share.share_bytes[1:])
    msgs += [
        dataclasses.replace(msgs[-4], bit=0),
        dataclasses.replace(msgs[13], value=1),
        dataclasses.replace(msgs[5], u=1),
        dataclasses.replace(msgs[1], ciphertext=p.tpke_enc(b"EQV")),
        dataclasses.replace(msgs[2], share=flipped),
    ]
    return msgs


def test_size_equals_encoded_length_for_every_kind():
    msgs = one_of_each()
    assert len({type(m) for m in msgs}) == 14
    for m in msgs:
        env = Envelope(1, 1, (m,), dst=0)
        assert env.size() == len(env.encode()), type(m).__name__
    shared = Envelope(0, 7, tuple(msgs))
    assert shared.size() == len(shared.encode())
    # a message already sized inside one envelope sizes the same in the next
    again = Envelope(3, 7, tuple(reversed(msgs)))
    assert again.size() == len(again.encode())
    assert Envelope(0, 1, ()).size() == len(Envelope(0, 1, ()).encode())


def test_every_kind_has_a_slot():
    """Policies and the recorder read `m.slot` of any entry: an int, except
    the committee coin share, which belongs to no slot."""
    msgs = one_of_each()
    assert {type(m) for m in msgs} == set(typing.get_args(Message))
    for m in msgs:
        if type(m) is CsShare:
            assert m.slot is None
        else:
            assert type(m.slot) is int, type(m).__name__


def test_size_equals_encoded_length_in_faulty_runs(monkeypatch):
    handle = Party.handle
    seen = []

    def checked(self, env):
        seen.append(env.size() == len(env.encode()))
        return handle(self, env)

    monkeypatch.setattr(Party, "handle", checked)
    for kind in ("corrupt-shares", "random-votes", "equivocate-ppb"):
        cfg = SimConfig(n=7, f=2, seed=4, instances=2, policy="random",
                        byzantine=tuple(BehaviorSpec(p, kind) for p in range(2)))
        assert sim_run(cfg).ok
    assert seen and all(seen)
