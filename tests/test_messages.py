"""Wire encoding: the computed envelope size matches the encoded bytes,
and the bytes themselves are pinned."""
import dataclasses
import hashlib
import importlib
import inspect
import itertools
import struct
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimabc import BehaviorSpec, SimConfig, sim_run
from slimabc.adversary import BEHAVIORS, POLICIES
from slimabc.crypto import (
    Ciphertext,
    CoinShare,
    DecryptionShare,
    Record,
    SignatureShare,
    ThresholdSignature,
    key_setup,
)
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
    ENTRY_HEADER,
    ENVELOPE_HEADER,
    Envelope,
    JUSTIFICATION_WIRE,
    Justification,
    Message,
    PpbPayload,
    PpbShare,
    Proposal,
    Recover,
    RecoverResp,
    Suggestion,
    VARINT,
    VMsg,
    WIDTH,
    WIRE,
    _Message,
    body_size,
    carries_pair,
    entries_size,
    read_varint,
)
from slimabc.protocol import Party

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def one_of_each():
    p = key_setup(128, 4, 1)
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
        Suggestion(1, 2, ct, sig),
        VMsg(1, 2, 0),
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
    flipped = share._replace(share_bytes=bytes([share.share_bytes[0] ^ 0xFF])
                             + share.share_bytes[1:])
    msgs += [
        msgs[-4]._replace(bit=0),
        msgs[12]._replace(value=1),
        msgs[5]._replace(u=1),
        msgs[1]._replace(ciphertext=p.tpke_enc(b"EQV")),
        msgs[2]._replace(share=flipped),
    ]
    return msgs


def test_carries_pair_truth_table():
    """A proposal, a suggestion and a recovery answer carry a slot's pair;
    claims, of either bit, and every other kind do not."""
    msgs = one_of_each()
    assert {type(m) for m in msgs} == set(WIRE) and len(WIRE) == 14
    assert {m.u for m in msgs if type(m) is VMsg} == {0, 1}
    for m in msgs:
        assert carries_pair(m) is (type(m) in (Proposal, Suggestion, RecoverResp)), m


def test_coin_shares_claims_and_suggestions_carry_no_extra_bytes():
    """A coin share's body is its tag alone, with no length prefix; a claim's
    is its slot and bit, with no pair flag; a suggestion's is the proposal's
    of the same pair, with no relayer (the envelope sender is the relayer)."""
    msgs = {type(m): m for m in one_of_each()}
    coin, sugg = msgs[CsShare], msgs[Suggestion]
    assert coin.encode_body() == coin.share.share_bytes
    assert VMsg(1, 2, 1).encode_body() == b"\x02\x01"  # varint slot 2 (1 B), then bit 1 (1 B)
    assert sugg.encode_body() == Proposal(*sugg).encode_body()
    assert [body_size(m) for m in (coin, VMsg(1, 2, 1), sugg)] \
        == [len(coin.share.share_bytes), 2, body_size(Proposal(*sugg))]


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


# Drawn messages: every kind and every justification kind, with shares,
# signatures and payloads of any length (byzantine traffic need not carry
# TAG_LEN-byte tags).
u8, u16, u64 = (st.integers(0, 2**bits - 1) for bits in (8, 16, 64))
tags = st.binary(max_size=40)
shares = st.builds(SignatureShare, u16, tags)
coin_shares = st.builds(CoinShare, u16, tags)
sigs = st.builds(ThresholdSignature, tags)
payloads = st.binary(max_size=64) | st.integers(0, 4096).map(bytes)
cts = st.builds(Ciphertext, payloads, st.integers(0, 2**32 - 1))


def _conflict(inner):
    prevotes = st.builds(AbbaPrevote, u64, u16, u16, u8, inner, shares)
    return st.builds(lambda zero, one: Justification(JUST_CONFLICT, prevote_zero=zero,
                                                     prevote_one=one), prevotes, prevotes)


justifications = st.recursive(
    st.one_of(
        st.just(Justification(JUST_NONE)),
        st.builds(lambda signer, share: Justification(JUST_PREPROCESS_ONE, signer=signer,
                                                      share=share), u16, shares),
        st.builds(lambda kind, sig: Justification(kind, sig=sig),
                  st.sampled_from((JUST_PREPROCESS_ZERO, JUST_PREVOTE_THRESHOLD,
                                   JUST_ABSTAIN_THRESHOLD)), sigs)),
    _conflict, max_leaves=4)
DRAWN = {
    CsShare: st.builds(CsShare, u64, coin_shares),
    PpbPayload: st.builds(PpbPayload, u64, u16, cts),
    PpbShare: st.builds(PpbShare, u64, u16, shares),
    Proposal: st.builds(Proposal, u64, u16, cts, sigs),
    Suggestion: st.builds(Suggestion, u64, u16, cts, sigs),
    VMsg: st.builds(VMsg, u64, u16, u8),
    AbbaPreprocess: st.builds(AbbaPreprocess, u64, u16, u8, shares),
    AbbaPrevote: st.builds(AbbaPrevote, u64, u16, u16, u8, justifications, shares),
    AbbaMainvote: st.builds(AbbaMainvote, u64, u16, u16, u8, justifications, shares),
    AbbaCoinShare: st.builds(AbbaCoinShare, u64, u16, u16, coin_shares),
    AbbaDecision: st.builds(AbbaDecision, u64, u16, u16, u8, sigs),
    Recover: st.builds(Recover, u64, u16),
    RecoverResp: st.builds(RecoverResp, u64, u16, cts, sigs),
    DecShare: st.builds(DecShare, u64, u16, st.builds(DecryptionShare, u16, tags)),
}
messages = st.one_of(*DRAWN.values())


@settings(max_examples=300, deadline=None)
@given(u16, u64, st.lists(messages, max_size=6))
def test_size_equals_encoded_length_of_drawn_entries(sender, instance, entries):
    assert set(DRAWN) == set(WIRE)
    assert entries_size(entries) == len(Envelope(sender, instance, tuple(entries)).encode())


def test_every_wire_type_has_a_width():
    used = {t for table in (*WIRE.values(), *JUSTIFICATION_WIRE.values()) for _, t in table}
    assert used <= set(WIDTH)
    for t in used:
        if type(WIDTH[t]) is int:
            assert len(t(0)) == WIDTH[t]


def split_varints(data: bytes) -> list:
    """The values of a run of LEB128 varints, read here apart from the codec."""
    values, value, shift = [], 0, 0
    for b in data:
        value |= (b & 0x7F) << shift
        shift += 7
        if b < 0x80:
            values.append(value)
            value = shift = 0
    assert shift == 0, "the last varint is cut short"
    return values


varints = st.integers(0, 2**70) | st.integers(0, 300)


@given(varints)
def test_varint_round_trips_and_is_minimal(v):
    b = VARINT(v)
    assert split_varints(b) == [v]
    assert len(b) == WIDTH[VARINT](v)
    assert v < 128 ** len(b) and (len(b) == 1 or v >= 128 ** (len(b) - 1))
    assert all(c & 0x80 for c in b[:-1]) and b[-1] < 0x80


@given(st.lists(varints, max_size=8))
def test_varints_split_back_into_their_values(values):
    data = b"".join(VARINT(v) for v in values)
    assert split_varints(data) == values
    read, off = [], 0
    while off < len(data):
        v, off = read_varint(data, off)
        read.append(v)
    assert read == values


@pytest.mark.parametrize("data", [b"", b"\x80", b"\xff\xff", b"\x80\x00", b"\x81\x80\x00"])
def test_read_varint_rejects_truncated_and_overlong(data):
    with pytest.raises(ValueError):
        read_varint(data, 0)


@pytest.mark.parametrize("value", [-1, None, 1.5, b"\x01"])
def test_varint_refuses_what_is_not_a_non_negative_int(value):
    with pytest.raises(struct.error):
        VARINT(value)


def test_header_sizes_match_the_benchmarks_copies(monkeypatch):
    """perfbench adds the header bytes to the entries' body bytes with its own
    copy of the two header sizes; they must be the ones the encoder writes."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert (tracer.ENTRY_HEADER, tracer.ENVELOPE_HEADER) == (ENTRY_HEADER, ENVELOPE_HEADER)
    env = Envelope(0, 1, (VMsg(1, 2, 1), Recover(1, 3)))
    assert len(env.encode()) == ENVELOPE_HEADER + 2 * ENTRY_HEADER + 2 + 1


def test_runs_size_envelopes_without_encoding(monkeypatch):
    """A grid slice, every behavior under every policy at n=4, reports the
    same when encoding a message body raises."""
    cfgs = [SimConfig(n=4, f=1, seed=seed, instances=2, policy=policy,
                      byzantine=(BehaviorSpec(0, fault, at_step=9),))
            for seed, (fault, policy) in enumerate(itertools.product(BEHAVIORS, POLICIES))]
    reports = [sim_run(cfg).to_json() for cfg in cfgs]

    def refuse(self):
        raise AssertionError("a message body was encoded during a run")

    monkeypatch.setattr(_Message, "encode_body", refuse)
    assert [sim_run(cfg).to_json() for cfg in cfgs] == reports


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


RECORD_KINDS = (*WIRE, Justification, SignatureShare, ThresholdSignature, CoinShare,
                DecryptionShare)


def one_record_of_each_kind():
    """The first record of each of `RECORD_KINDS` met in `one_of_each()`, its
    justifications, shares and signatures."""
    found = {}
    for m in one_of_each():
        for r in (m, *(getattr(m, name, None) for name in ("justification", "share", "proof"))):
            found.setdefault(type(r), r)
    return [found[kind] for kind in RECORD_KINDS]


def field_values(r):
    return [getattr(r, name) for name in inspect.signature(type(r)).parameters]


def test_records_are_immutable_values_of_their_own_kind():
    """No field, nor any other attribute, can be assigned; a record equals,
    and hashes like, a record of its own kind with equal fields, but never a
    record of another kind built from the same values, nor a plain tuple of
    them."""
    crossed = set()
    for r in one_record_of_each_kind():
        values = field_values(r)
        for name in (*inspect.signature(type(r)).parameters, "unnamed"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        twin = type(r)(*values)
        assert twin == r and not twin != r and hash(twin) == hash(r)
        assert r != tuple(values) and tuple(values) != r and not r == tuple(values)
        for kind in RECORD_KINDS:
            if kind is not type(r) and len(inspect.signature(kind).parameters) == len(values):
                other = kind(*values)
                assert other != r and r != other and not other == r and not r == other
                crossed.add(type(r).__name__)
    assert {"Proposal", "RecoverResp", "SignatureShare", "CoinShare"} <= crossed


def leaf_paths(obj, prefix=""):
    """(dotted path, value) of every leaf field of `obj` that is set, through
    nested records and ciphertexts."""
    names = obj._fields if isinstance(obj, Record) else [f.name for f in dataclasses.fields(obj)]
    for name in names:
        value, path = getattr(obj, name), prefix + name
        if isinstance(value, Record) or dataclasses.is_dataclass(value):  # a Ciphertext
            yield from leaf_paths(value, path + ".")
        elif value is not None:
            yield path, value


def replaced(obj, path, value):
    """A copy of `obj` with the field at dotted `path` set to `value`."""
    name, _, rest = path.partition(".")
    change = {name: replaced(getattr(obj, name), rest, value) if rest else value}
    return obj._replace(**change) if isinstance(obj, Record) else dataclasses.replace(obj, **change)


def off_wire(m):
    """The leaf paths of `m` whose change leaves its encoded body unchanged."""
    body = m.encode_body()
    for path, value in leaf_paths(m):
        changed = value + 1 if type(value) is int else bytes([value[0] ^ 1]) + value[1:]
        try:
            if replaced(m, path, changed).encode_body() == body:
                yield path
        except (AttributeError, KeyError, struct.error):
            pass  # no such justification kind, or its fields are absent: the kind counts


# Every field a message holds that its bytes do not, derived from `WIRE`
# through the encoder.  Each is one of three kinds:
OFF_WIRE = sorted(
    # the instance, which the envelope header carries (an embedded pre-vote's is
    # its main-vote's: receivers check it under their own instance);
    [f"{kind}.instance" for kind in (
        "AbbaCoinShare", "AbbaDecision", "AbbaMainvote", "AbbaPreprocess", "AbbaPrevote",
        "CsShare", "DecShare", "PpbPayload", "PpbShare", "Proposal", "Recover",
        "RecoverResp", "Suggestion", "VMsg")]
    + ["AbbaMainvote.justification.prevote_zero.instance",
       "AbbaMainvote.justification.prevote_one.instance"]
    # the signer or holder of a message's own share, which is the envelope sender;
    + ["AbbaCoinShare.share.holder", "CsShare.share.holder", "DecShare.share.holder",
       "AbbaMainvote.share.signer", "AbbaPreprocess.share.signer",
       "AbbaPrevote.share.signer", "PpbShare.share.signer"]
    # and the share signer of each pre-vote a conflict main-vote embeds, which
    # nothing restores (ROADMAP item 1).
    + ["AbbaMainvote.justification.prevote_zero.share.signer",
       "AbbaMainvote.justification.prevote_one.share.signer"])


def test_off_wire_fields_pinned():
    """A preprocess-one justification's share signer is restored from the
    justification's `signer`, which is on the wire, so it is not listed."""
    found = set()
    for m in one_of_each():
        off = set(off_wire(m))
        on = {path for path, _ in leaf_paths(m)} - off
        found |= {f"{type(m).__name__}.{path}" for path in off  # x.share.signer is x.signer
                  if path.removesuffix("share.signer") + "signer" not in on}
    assert sorted(found) == OFF_WIRE


# sha256 over the encoded envelope of each `one_of_each()` message, then over
# every envelope an honest party sent in the runs of `test_wire_bytes_pinned`,
# in delivery order.  The size checks above see lengths only; this sees content.
WIRE_DIGEST = "030726416e7404aff15ee2840df3b749dc7e127c71e2391d0a22d904042155ca"


def test_wire_bytes_pinned(monkeypatch):
    h = hashlib.sha256()
    for m in one_of_each():
        h.update(Envelope(1, 1, (m,)).encode())
    handle = Party.handle
    honest = set()

    def recorded(self, env):
        if env.sender in honest:
            h.update(env.encode())
        return handle(self, env)

    monkeypatch.setattr(Party, "handle", recorded)
    runs = 0
    for (n, f), fault, policy in itertools.product(((4, 1), (7, 2)), BEHAVIORS, POLICIES):
        cfg = SimConfig(n=n, f=f, seed=runs, instances=1, policy=policy,
                        byzantine=tuple(BehaviorSpec(p, fault, at_step=9) for p in range(f)))
        honest.clear()
        honest.update(cfg.honest())
        sim_run(cfg)
        runs += 1
    assert runs == 48
    assert h.hexdigest() == WIRE_DIGEST
