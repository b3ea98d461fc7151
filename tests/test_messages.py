"""Wire encoding: the computed envelope size matches the encoded bytes,
and the bytes themselves are pinned."""
import dataclasses
import hashlib
import importlib
import inspect
import itertools
import struct
import typing
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from slimabc import BehaviorSpec, SimConfig, sim_run
from slimabc.adversary import BEHAVIORS, POLICIES
from slimabc.crypto import (
    TAG_LEN,
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
    COIN_SHARE,
    DEC_SHARE,
    EMBEDDED_PREVOTE_WIRE,
    ENTRY,
    HEADER,
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
    READ,
    Recover,
    RecoverResp,
    SHARE,
    SIG,
    Suggestion,
    U8,
    VARINT,
    VMsg,
    WIDTH,
    WIRE,
    _Message,
    body_size,
    carries_pair,
    decode,
    decode_body,
    entries_size,
    read_varint,
)
from slimabc.grid import grid_config
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
    # a proposal and a suggestion to a party that holds the ciphertext: the proof alone
    msgs += [msgs[3]._replace(ciphertext=None), msgs[4]._replace(ciphertext=None)]
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


def test_a_proof_only_pair_message_is_its_slot_a_zero_byte_and_its_proof():
    """A proposal or suggestion carries its payload's length plus one, so 0
    marks one without a ciphertext; a recovery answer and a payload always
    carry one, under the plain length."""
    _, ct, sig = next(m for m in one_of_each() if type(m) is Proposal)[1:]
    for kind in (Proposal, Suggestion):
        assert kind(1, 2, None, sig).encode_body() == b"\x02\x00" + sig.sig_bytes
        full = kind(1, 2, ct, sig).encode_body()
        assert full == b"\x02" + VARINT(len(ct.payload) + 1) + ct.payload \
            + VARINT(ct.length_plain) + sig.sig_bytes
    plain = VARINT(len(ct.payload)) + ct.payload + VARINT(ct.length_plain)
    assert RecoverResp(1, 2, ct, sig).encode_body() == b"\x02" + plain + sig.sig_bytes
    assert PpbPayload(1, 2, ct).encode_body() == b"\x02" + plain


@pytest.mark.parametrize("size, width", [(0, 1), (126, 1), (127, 2), (16382, 2), (16383, 3)])
def test_a_pair_message_payload_length_takes_its_varint_width_plus_one(size, width):
    sig = ThresholdSignature(bytes(TAG_LEN))
    m = Suggestion(1, 2, Ciphertext(bytes(size), 0), sig)
    assert len(m.encode_body()) == body_size(m) == 1 + width + size + 1 + TAG_LEN
    assert round_trip(m) == m


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


def test_fanout_builds_what_the_constructor_builds():
    entries = tuple(one_of_each())
    size = len(Envelope(2, 7, entries).encode())
    for given in (size, None):
        envs = Envelope.fanout(2, 7, entries, (0, 1, 3), given)
        assert envs == [Envelope(2, 7, entries, dst) for dst in (0, 1, 3)]
        for env in envs:
            assert env.entries is entries
            assert vars(env) == vars(Envelope(2, 7, entries, env.dst, given))
            assert env.size() == size


# Drawn messages: every kind and every justification kind, with every field
# the wire carries drawn (bits, values and rounds that receivers reject
# included), and the fields it does not carry set as `decode` restores them
# for an envelope from `sender` in `instance`.  Rounds are drawn at the head
# widths' edges: a vote head fits one byte to round 3, a decision head to 63.
u8, u16, u64 = (st.integers(0, 2**bits - 1) for bits in (8, 16, 64))
ints = u16 | st.integers(0, 2**40)
rounds = st.sampled_from((0, 1, 3, 4, 63, 64, 511, 512, 65535)) | ints
tags = st.binary(min_size=TAG_LEN, max_size=TAG_LEN)
sigs = st.builds(ThresholdSignature, tags)
payloads = (st.binary(max_size=64) | st.integers(0, 4096).map(bytes)
            | st.sampled_from((126, 127, 128, 16382, 16383, 16384)).map(bytes))
cts = st.builds(Ciphertext, payloads, ints)
pair_cts = cts | st.none()  # None: a proof-only proposal or suggestion


@st.composite
def justifications(draw, instance, slot, r, aligned, depth=0):
    """A justification of any kind for a vote in (instance, slot, round r).
    A conflict embeds two pre-votes: if `aligned`, of that instance, slot and
    round, of bits 0 and 1, as `decode` restores them; else with those four
    fields drawn apart from the carrying vote's, which the wire omits."""
    kind = draw(st.integers(JUST_NONE, JUST_CONFLICT if depth < 2 else JUST_ABSTAIN_THRESHOLD))
    if kind == JUST_NONE:
        return Justification(kind)
    if kind == JUST_PREPROCESS_ONE:
        signer = draw(ints)
        return Justification(kind, signer=signer, share=SignatureShare(signer, draw(tags)))
    if kind == JUST_CONFLICT:
        zero, one = (
            AbbaPrevote(*((instance, slot, r, bit) if aligned
                          else (draw(u64), draw(ints), draw(rounds), draw(u8))),
                        draw(justifications(instance, slot, r, aligned, depth + 1)),
                        SignatureShare(draw(ints), draw(tags)))
            for bit in (0, 1))
        return Justification(kind, prevote_zero=zero, prevote_one=one)
    return Justification(kind, sig=draw(sigs))


@st.composite
def votes(draw, kind, instance, share, aligned):
    slot, r = draw(ints), draw(rounds)
    return kind(instance, slot, r, draw(st.integers(0, ABSTAIN)),
                draw(justifications(instance, slot, r, aligned)), draw(share))


def drawn(sender, instance, aligned=True):
    """A strategy per kind for the messages an envelope from `sender` in
    `instance` carries; `aligned` as for `justifications`."""
    i = st.just(instance)
    share = st.builds(SignatureShare, st.just(sender), tags)
    coin = st.builds(CoinShare, st.just(sender), tags)
    return {
        CsShare: st.builds(CsShare, i, coin),
        PpbPayload: st.builds(PpbPayload, i, ints, cts),
        PpbShare: st.builds(PpbShare, i, ints, share),
        Proposal: st.builds(Proposal, i, ints, pair_cts, sigs),
        Suggestion: st.builds(Suggestion, i, ints, pair_cts, sigs),
        VMsg: st.builds(VMsg, i, ints, u8),
        AbbaPreprocess: st.builds(AbbaPreprocess, i, ints, u8, share),
        AbbaPrevote: votes(AbbaPrevote, instance, share, aligned),
        AbbaMainvote: votes(AbbaMainvote, instance, share, aligned),
        AbbaCoinShare: st.builds(AbbaCoinShare, i, ints, rounds, coin),
        AbbaDecision: st.builds(AbbaDecision, i, ints, rounds, st.integers(0, 1), sigs),
        Recover: st.builds(Recover, i, ints),
        RecoverResp: st.builds(RecoverResp, i, ints, cts, sigs),
        DecShare: st.builds(DecShare, i, ints, st.builds(DecryptionShare, st.just(sender), tags)),
    }


@st.composite
def envelopes(draw, max_size=6, aligned=True):
    sender, instance = draw(u16), draw(u64)
    kinds = drawn(sender, instance, aligned)
    entries = draw(st.lists(st.one_of(*kinds.values()), max_size=max_size))
    return Envelope(sender, instance, tuple(entries))


def test_drawn_messages_cover_every_kind():
    kinds = drawn(0, 1)
    assert set(kinds) == set(WIRE)
    for kind in (Proposal, Suggestion):  # drawn in full and proof-only
        for proof_only in (False, True):
            find(kinds[kind], lambda m: (m.ciphertext is None) is proof_only,
                 settings=settings(phases=[Phase.generate], database=None))


@settings(max_examples=300, deadline=None)
@given(envelopes(aligned=False), u16)
def test_size_equals_encoded_length_of_drawn_entries(env, other):
    assert entries_size(env.entries) == len(env.encode())
    for m in env.entries:
        assert body_size(m) == len(m.encode_body())
    # the size does not hang on the sender being the entries' signer
    assert Envelope(other, 7, env.entries).size() == len(env.encode())


@settings(max_examples=150, deadline=None)
@given(envelopes())
def test_decode_inverts_encode_of_drawn_envelopes(env):
    assert decode(env.encode()) == env
    for m in env.entries:
        assert decode_body(m.TAG, env.sender, env.instance, m.encode_body()) == m


@settings(max_examples=100, deadline=None)
@given(envelopes(max_size=12))
def test_encoding_is_injective_on_drawn_messages(env):
    by_bytes = {}
    for m in env.entries:
        by_bytes.setdefault((m.TAG, m.encode_body()), set()).add(m)
    assert all(len(found) == 1 for found in by_bytes.values())


def vote_of(kind, r, value=0, just=Justification(JUST_NONE)):
    return kind(1, 2, r, value, just, SignatureShare(0, bytes(TAG_LEN)))


@pytest.mark.parametrize("r, width", [(0, 1), (1, 1), (3, 1), (4, 2), (511, 2), (512, 3),
                                      (65535, 3)])
def test_a_vote_head_is_one_byte_to_round_3(r, width):
    for kind in (AbbaPrevote, AbbaMainvote):
        for value, just_kind in ((0, JUST_NONE), (ABSTAIN, JUST_ABSTAIN_THRESHOLD)):
            just = Justification(just_kind, sig=ThresholdSignature(bytes(TAG_LEN)))
            m = vote_of(kind, r, value, just if just_kind else Justification(JUST_NONE))
            body = m.encode_body()
            assert body[1:1 + width] == VARINT(r << 5 | value << 3 | just_kind)
            assert len(body) == body_size(m) == 1 + width + 8 * bool(just_kind) + TAG_LEN


@pytest.mark.parametrize("r, width", [(0, 1), (1, 1), (63, 1), (64, 2), (8191, 2), (8192, 3),
                                      (65535, 3)])
def test_a_decision_head_is_one_byte_to_round_63(r, width):
    m = AbbaDecision(1, 2, r, 1, ThresholdSignature(bytes(TAG_LEN)))
    assert m.encode_body() == b"\x02" + VARINT(r << 1 | 1) + bytes(TAG_LEN)
    assert body_size(m) == 1 + width + TAG_LEN


def test_every_wire_type_has_a_width_and_a_reader():
    used = {t for table in (*WIRE.values(), *JUSTIFICATION_WIRE.values(),
                            EMBEDDED_PREVOTE_WIRE) for _, t in table}
    assert used == set(WIDTH) == set(READ)
    tag = bytes(TAG_LEN)
    sample = {U8: 7, SHARE: SignatureShare(3, tag), COIN_SHARE: CoinShare(3, tag),
              DEC_SHARE: DecryptionShare(3, tag), SIG: ThresholdSignature(tag)}
    assert {t for t in used if type(WIDTH[t]) is int} == set(sample)
    for t, value in sample.items():
        assert len(t(value)) == WIDTH[t]


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
# through the encoder.  Each is one of two kinds, and `decode` restores each:
OFF_WIRE = sorted(
    # the instance, which the envelope header carries, and the instance, slot,
    # round and bit of each pre-vote a conflict main-vote embeds, which are the
    # main-vote's (the bit is the pre-vote's place);
    [f"{kind}.instance" for kind in (
        "AbbaCoinShare", "AbbaDecision", "AbbaMainvote", "AbbaPreprocess", "AbbaPrevote",
        "CsShare", "DecShare", "PpbPayload", "PpbShare", "Proposal", "Recover",
        "RecoverResp", "Suggestion", "VMsg")]
    + [f"AbbaMainvote.justification.{place}.{name}" for place in ("prevote_zero", "prevote_one")
       for name in ("instance", "slot", "round", "bit")]
    # and the signer or holder of a message's own share, which is the envelope sender.
    + ["AbbaCoinShare.share.holder", "CsShare.share.holder", "DecShare.share.holder",
       "AbbaMainvote.share.signer", "AbbaPreprocess.share.signer",
       "AbbaPrevote.share.signer", "PpbShare.share.signer"])


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
WIRE_DIGEST = "eaf8e95e5b23dd337085286aacfd4da0e71ef10cabae030779e13b91f5e04c98"


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


# Every behavior, fault-free included, under every policy at n = 4 and 7, over
# two instances, so entries parked for the next instance are decoded too.
DECODED_SLICE = [dataclasses.replace(grid_config(n, f, seed, policy, fault), instances=2)
                 for (n, f) in ((4, 1), (7, 2)) for fault in ("honest", *BEHAVIORS)
                 for policy in POLICIES for seed in range(3)]


def test_decoded_delivery_gives_the_reports_of_direct_delivery(monkeypatch):
    """Every receiver handles each envelope as its bytes read back, with its
    destination kept, and every run reports exactly as under direct
    delivery: what the protocol reads is what is on the wire.  The runs
    carry proof-only proposals and suggestions, which receivers fill in."""
    direct = [sim_run(cfg).to_json() for cfg in DECODED_SLICE]
    handle, proof_only = Party.handle, Counter()

    def decoded(self, env):
        back = decode(env.encode())
        assert back == Envelope(env.sender, env.instance, env.entries)
        back.dst = env.dst
        proof_only.update(type(m) for m in back.entries
                          if carries_pair(m) and m.ciphertext is None)
        return handle(self, back)

    monkeypatch.setattr(Party, "handle", decoded)
    assert [sim_run(cfg).to_json() for cfg in DECODED_SLICE] == direct
    assert proof_only[Proposal] and proof_only[Suggestion] and not proof_only[RecoverResp]


def canonical_sender(m):
    """The envelope sender whose envelope carries `m` as `m` was built: the
    signer or holder of its own share (0 for a kind without one)."""
    share = getattr(m, "share", None)
    return 0 if share is None else share[0]


def round_trip(m):
    """`m` sent alone and read back."""
    sender = canonical_sender(m)
    env = Envelope(sender, m.instance, (m,))
    back = decode(env.encode())
    assert (back.sender, back.instance) == (sender, m.instance)
    return back.entries[0]


def test_decode_inverts_encode_for_every_kind():
    for m in one_of_each():
        assert round_trip(m) == m, type(m).__name__
    msgs = tuple(one_of_each())
    env = Envelope(2, 1, tuple(m for m in msgs if canonical_sender(m) == 2))
    assert decode(env.encode()) == env and len(env.entries) > 10


def test_conflict_mainvote_round_trips():
    """An abstain embeds two pre-votes signed by parties other than its own
    sender; a receiver checks each with its own signer, so the wire must
    carry them."""
    p = key_setup(128, 4, 1)
    sig = p.combine_shares(b"m", [p.sig_share(i, b"m") for i in range(3)])
    pv0 = AbbaPrevote(1, 3, 2, 0, Justification(JUST_PREVOTE_THRESHOLD, sig=sig),
                      p.sig_share(0, b"pv0"))
    pv1 = AbbaPrevote(1, 3, 2, 1, Justification(JUST_ABSTAIN_THRESHOLD, sig=sig),
                      p.sig_share(3, b"pv1"))
    mv = AbbaMainvote(1, 3, 2, ABSTAIN,
                      Justification(JUST_CONFLICT, prevote_zero=pv0, prevote_one=pv1),
                      p.sig_share(1, b"mv"))
    back = round_trip(mv)
    assert back.justification.prevote_zero.share.signer == 0
    assert back.justification.prevote_one.share.signer == 3
    assert back == mv


def test_embedded_prevotes_read_back_with_their_votes_slot_round_and_place():
    """The wire cannot say that an embedded pre-vote is of another slot, round
    or bit than its place in its main-vote: those are read back from the
    main-vote, so `abba._validate_mainvote`'s checks of them guard only
    messages built in memory."""
    mv = next(m for m in one_of_each() if type(m) is AbbaMainvote
              and m.justification.kind == JUST_CONFLICT)
    j = mv.justification
    odd = mv._replace(justification=j._replace(
        prevote_zero=j.prevote_zero._replace(slot=9, round=4, bit=1, instance=5),
        prevote_one=j.prevote_one._replace(bit=0)))
    assert odd.encode_body() == mv.encode_body()
    assert round_trip(odd) == mv


def test_body_of_one_byte_heads_and_embedded_signers():
    """Layout of a conflict main-vote: slot, the head, then per embedded
    pre-vote its justification's kind byte and fields, its signer and tag;
    then the main-vote's own tag."""
    tag = bytes(range(TAG_LEN))
    sig = ThresholdSignature(tag)
    pv0 = AbbaPrevote(1, 3, 2, 0, Justification(JUST_PREVOTE_THRESHOLD, sig=sig),
                      SignatureShare(200, tag))
    pv1 = AbbaPrevote(1, 3, 2, 1, Justification(JUST_PREPROCESS_ONE, signer=4,
                                                 share=SignatureShare(4, tag)),
                      SignatureShare(5, tag))
    mv = AbbaMainvote(1, 3, 2, ABSTAIN,
                      Justification(JUST_CONFLICT, prevote_zero=pv0, prevote_one=pv1),
                      SignatureShare(1, tag))
    assert mv.encode_body() == (b"\x03" + bytes([2 << 5 | ABSTAIN << 3 | JUST_CONFLICT])
                                + bytes([JUST_PREVOTE_THRESHOLD]) + tag + b"\xc8\x01" + tag
                                + bytes([JUST_PREPROCESS_ONE, 4]) + tag + b"\x05" + tag
                                + tag)


def test_decode_refuses_every_truncated_body_and_trailing_bytes():
    for m in one_of_each():
        body, sender = m.encode_body(), canonical_sender(m)
        assert decode_body(m.TAG, sender, m.instance, body) == m
        for cut in range(len(body)):
            with pytest.raises(ValueError):
                decode_body(m.TAG, sender, m.instance, body[:cut])
        with pytest.raises(ValueError):
            decode_body(m.TAG, sender, m.instance, body + b"\x00")


def test_decode_refuses_truncated_and_trailing_envelopes():
    data = Envelope(2, 1, (VMsg(1, 2, 1), Recover(1, 3))).encode()
    for cut in range(len(data)):
        with pytest.raises(ValueError):
            decode(data[:cut])
    with pytest.raises(ValueError):
        decode(data + b"\x00")


def vote_body(head: bytes, rest: bytes = bytes(TAG_LEN)) -> bytes:
    return b"\x02" + head + rest


@pytest.mark.parametrize("tag, body", [
    (AbbaPrevote.TAG, vote_body(b"\xa0\x00")),  # head 32 (round 1) in two bytes
    (AbbaMainvote.TAG, vote_body(b"\xb0\x80\x00")),  # head 48 in three bytes
    (AbbaDecision.TAG, vote_body(b"\x83\x00")),  # decision head 3 in two bytes
    (AbbaPrevote.TAG, vote_body(bytes([1 << 5 | 3 << 3]))),  # value 3
    (AbbaMainvote.TAG, vote_body(bytes([1 << 5 | 3 << 3 | JUST_NONE]))),
    (AbbaPrevote.TAG, vote_body(bytes([1 << 5 | 6]))),  # justification kind 6
    (AbbaMainvote.TAG, vote_body(bytes([1 << 5 | 1 << 3 | 7]))),  # kind 7
    (AbbaMainvote.TAG, vote_body(bytes([1 << 5 | ABSTAIN << 3 | JUST_CONFLICT]),
                                 b"\x06" + bytes(TAG_LEN) + b"\x00" + bytes(TAG_LEN))),
    (0, b""),  # unknown tags
    (15, vote_body(b"\x20")),
    (255, b"\x01"),
])
def test_decode_refuses_what_no_encoding_writes(tag, body):
    with pytest.raises(ValueError):
        decode_body(tag, 0, 1, body)
    with pytest.raises(ValueError):
        decode(HEADER.pack(0, 1, 1) + ENTRY.pack(tag, len(body)) + body)


def test_the_refused_heads_are_the_only_bad_ones():
    """Every vote head with value 0-2 and kind 0-5 reads back, and so does every
    decision head: the refusals above are exactly value 3 and kinds 6, 7."""
    sig = bytes(TAG_LEN)
    for head in range(4 << 5):
        value, kind = head >> 3 & 3, head & 7
        fields = {JUST_PREPROCESS_ONE: b"\x00" + sig, JUST_CONFLICT: (b"\x00" + b"\x00" + sig) * 2
                  }.get(kind, b"" if kind == JUST_NONE else sig)
        body = vote_body(VARINT(head), fields + sig)
        if value == 3 or kind > JUST_CONFLICT:
            with pytest.raises(ValueError):
                decode_body(AbbaMainvote.TAG, 0, 1, body)
        else:
            m = decode_body(AbbaMainvote.TAG, 0, 1, body)
            assert (m.round, m.value, m.justification.kind) == (head >> 5, value, kind)
            assert m.encode_body() == body
    for head in range(300):
        m = decode_body(AbbaDecision.TAG, 0, 1, VARINT(1) + VARINT(head) + sig)
        assert (m.round, m.bit) == (head >> 1, head & 1)


@pytest.mark.parametrize("length", [0, TAG_LEN - 1, TAG_LEN + 1, 32])
def test_encoder_refuses_tags_of_another_length(length):
    tag = bytes(length)
    msgs = {type(m): m for m in one_of_each()}
    pv0 = msgs[AbbaMainvote].justification.prevote_zero
    bad = [
        msgs[CsShare]._replace(share=CoinShare(1, tag)),
        msgs[PpbShare]._replace(share=SignatureShare(2, tag)),
        msgs[DecShare]._replace(share=DecryptionShare(0, tag)),
        msgs[AbbaCoinShare]._replace(share=CoinShare(1, tag)),
        msgs[Proposal]._replace(proof=ThresholdSignature(tag)),
        msgs[AbbaDecision]._replace(sig=ThresholdSignature(tag)),
        AbbaPrevote(1, 3, 1, 1, Justification(JUST_PREPROCESS_ONE, signer=2,
                                              share=SignatureShare(2, tag)), pv0.share),
        AbbaMainvote(1, 3, 1, ABSTAIN, Justification(
            JUST_CONFLICT, prevote_zero=pv0._replace(share=SignatureShare(2, tag)),
            prevote_one=pv0), pv0.share),
    ]
    for m in bad:
        with pytest.raises(struct.error):
            m.encode_body()


def test_encoder_refuses_what_a_head_cannot_carry():
    share, sig = SignatureShare(0, bytes(TAG_LEN)), ThresholdSignature(bytes(TAG_LEN))
    pv = AbbaPrevote(1, 2, 1, 0, Justification(JUST_NONE), share)
    bad = [
        AbbaPrevote(1, 2, 1, 3, Justification(JUST_NONE), share),
        AbbaMainvote(1, 2, 1, 3, Justification(JUST_NONE), share),
        AbbaMainvote(1, 2, 1, -1, Justification(JUST_NONE), share),
        AbbaPrevote(1, 2, 1, 0, Justification(6), share),
        AbbaMainvote(1, 2, -1, 0, Justification(JUST_NONE), share),
        AbbaMainvote(1, 2, 1, ABSTAIN, Justification(JUST_CONFLICT, prevote_zero=pv,
                                                     prevote_one=pv._replace(
                                                         justification=Justification(9))),
                     share),
        AbbaDecision(1, 2, 1, 2, sig),
        AbbaDecision(1, 2, 1, -1, sig),
        AbbaDecision(1, 2, -1, 1, sig),
    ]
    for m in bad:
        with pytest.raises(struct.error):
            m.encode_body()
