"""Dealer-based threshold crypto: oracle checks.

The provider is a deterministic mock, so the tests lean on structural
oracles: combine over every qualifying subset must give one signature,
decryption must invert encryption for every f+1 subset, and forged or
mutated material must never verify.  A couple of byte-level regressions
re-derive tags with hashlib directly to pin the derivation scheme.
"""
import hashlib
import hmac
import itertools
import random
import struct
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slimabc import SimConfig, crypto, sim_run
from slimabc.crypto import (
    DIGEST_LEN,
    TAG_LEN,
    TPKE_MEMO_MAX,
    VERIFY_MEMO_MAX,
    CoinShare,
    Ciphertext,
    DecryptionShare,
    InsufficientSharesError,
    InvalidShareError,
    MalformedCiphertextError,
    SignatureShare,
    ThresholdProvider,
    ThresholdSignature,
    _MacKey,
    _xor,
    digest,
    key_setup,
)


def provider(n=4, seed=7):
    return key_setup(128, n, seed)


# -- parameter validation ----------------------------------------------------

def test_key_setup_rejects_bad_n():
    for n in (0, 3, 5, 6, 8, 9, 11):
        with pytest.raises(ValueError):
            key_setup(128, n, 1)


def test_party_range_checked():
    p = provider()
    with pytest.raises(ValueError):
        p.sig_share(4, b"m")
    with pytest.raises(ValueError):
        p.party_handle(-1)


# -- threshold signatures ----------------------------------------------------

def test_share_sign_verify_roundtrip():
    p = provider()
    msg = b"round trip"
    for i in range(4):
        share = p.sig_share(i, msg)
        assert len(share.share_bytes) == TAG_LEN
        assert p.verify_share(msg, i, share)
        assert not p.verify_share(msg + b"x", i, share)
        assert not p.verify_share(msg, (i + 1) % 4, share)


def test_combine_subset_independent_n4():
    p = provider(4)
    msg = b"subset independence"
    shares = [p.sig_share(i, msg) for i in range(4)]
    sigs = set()
    for subset in itertools.combinations(range(4), p.t_sig):
        sig = p.combine_shares(msg, [shares[i] for i in subset])
        assert p.verify_signature(msg, sig)
        sigs.add(sig.sig_bytes)
    assert len(sigs) == 1
    # a superset combines to the same signature as well
    assert p.combine_shares(msg, shares).sig_bytes in sigs


def test_combine_subset_independent_n7():
    p = provider(7)
    msg = b"the wider quorum"
    shares = [p.sig_share(i, msg) for i in range(7)]
    sigs = {
        p.combine_shares(msg, [shares[i] for i in subset]).sig_bytes
        for subset in itertools.combinations(range(7), p.t_sig)
    }
    assert len(sigs) == 1


def test_combine_needs_t_distinct_signers():
    p = provider()
    msg = b"too few"
    shares = [p.sig_share(i, msg) for i in range(p.t_sig - 1)]
    with pytest.raises(InsufficientSharesError):
        p.combine_shares(msg, shares)
    # duplicates of one signer do not help
    with pytest.raises(InsufficientSharesError):
        p.combine_shares(msg, shares + [p.sig_share(0, msg)])


def test_combine_names_offenders():
    p = provider()
    msg = b"offender"
    shares = [p.sig_share(i, msg) for i in range(3)]
    bad = SignatureShare(1, bytes(TAG_LEN))
    with pytest.raises(InvalidShareError) as err:
        p.combine_shares(msg, [shares[0], bad, shares[2]])
    assert 1 in err.value.offenders


def quorum_case(p, name):
    """The share of party i, the combiner over a share list, the quorum it
    needs and the share type, for one of the provider's four combiners."""
    ct = p.tpke_enc(b"quorum")
    return {
        "combine_shares": (partial(p.sig_share, message=b"q"), partial(p.combine_shares, b"q"),
                           p.t_sig, SignatureShare),
        "coin_toss_bit": (partial(p.coin_share, coin_name=b"q"), partial(p.coin_toss_bit, b"q"),
                          p.f + 1, CoinShare),
        "coin_toss_committee": (partial(p.coin_share, coin_name=b"q"),
                                lambda shares: p.coin_toss_committee(b"q", shares, p.f + 1),
                                p.f + 1, CoinShare),
        "tpke_dec": (partial(p.tpke_dec_share, c=ct), partial(p.tpke_dec, ct),
                     p.f + 1, DecryptionShare),
    }[name]


@pytest.mark.parametrize("name", ("combine_shares", "coin_toss_bit", "coin_toss_committee",
                                  "tpke_dec"))
def test_every_combiner_keeps_one_share_quorum_rule(name):
    """Too few distinct parties raise InsufficientSharesError with the
    quorum and the count; a party's second share counts once; any invalid
    share raises InvalidShareError naming every offender, sorted, even when
    the quorum is also short."""
    p = provider(n=7)
    share, combine, need, kind = quorum_case(p, name)
    few = [share(i) for i in range(need - 1)]
    for shares in (few, few + [share(0)]):
        with pytest.raises(InsufficientSharesError) as err:
            combine(shares)
        assert (err.value.needed, err.value.got) == (need, need - 1)
    combine(few + [share(need - 1)])
    with pytest.raises(InvalidShareError) as err:  # two parties: short of every quorum
        combine([kind(5, bytes(TAG_LEN)), kind(2, bytes(TAG_LEN))])
    assert err.value.offenders == (2, 5)


def test_mutated_shares_never_verify():
    p = provider()
    msg = b"mutation sweep"
    share = p.sig_share(2, msg)
    for pos in range(TAG_LEN):
        for bit in range(8):
            raw = bytearray(share.share_bytes)
            raw[pos] ^= 1 << bit
            assert not p.verify_share(
                msg, 2, SignatureShare(2, bytes(raw))
            )


def test_forged_signatures_rejected():
    p = provider()
    msg = b"forgery fuzz"
    real = p.combine_shares(msg, [p.sig_share(i, msg) for i in range(p.t_sig)])
    rng = random.Random(99)
    for _ in range(200):
        fake = bytes(rng.randrange(256) for _ in range(TAG_LEN))
        if fake != real.sig_bytes:
            assert not p.verify_signature(msg, ThresholdSignature(fake))


def test_signature_binds_message():
    p = provider()
    sig = p.combine_shares(b"m1", [p.sig_share(i, b"m1") for i in range(3)])
    assert p.verify_signature(b"m1", sig)
    assert not p.verify_signature(b"m2", sig)


def test_providers_differ_by_seed_and_agree_by_seed():
    a, b, c = provider(seed=1), provider(seed=1), provider(seed=2)
    s1 = a.sig_share(0, b"x").share_bytes
    assert s1 == b.sig_share(0, b"x").share_bytes
    assert s1 != c.sig_share(0, b"x").share_bytes


def test_tag_derivation_second_route():
    """Re-derive one share with hashlib directly; pins the scheme."""
    p = provider(4, seed=7)
    master = hashlib.sha256(
        b"SABC-DEALER" + struct.pack(">QHHI", 7, 4, 3, 128)
    ).digest()
    secret = hashlib.sha256(master + b"party" + struct.pack(">H", 2)).digest()
    want = hmac.new(
        secret, b"\x00".join((b"sig", hashlib.sha256(b"msg").digest())),
        hashlib.sha256,
    ).digest()[:TAG_LEN]
    assert p.sig_share(2, b"msg").share_bytes == want


# -- threshold coin ----------------------------------------------------------

def test_coin_share_verify_and_toss():
    p = provider()
    name = b"coin-1"
    shares = [p.coin_share(i, name) for i in range(4)]
    for i, s in enumerate(shares):
        assert p.coin_share_verify(name, i, s)
        assert not p.coin_share_verify(b"coin-2", i, s)
    bits = {
        p.coin_toss_bit(name, [shares[i] for i in subset])
        for subset in itertools.combinations(range(4), p.f + 1)
    }
    assert len(bits) == 1 and bits <= {0, 1}
    for holder in (4, -1):  # no party; -1 would index the last party's key
        assert not p.coin_share_verify(name, holder, CoinShare(holder, shares[3].share_bytes))


def test_coin_toss_requires_quorum():
    p = provider()
    with pytest.raises(InsufficientSharesError):
        p.coin_toss_bit(b"c", [p.coin_share(0, b"c")])
    bad = CoinShare(1, bytes(TAG_LEN))
    with pytest.raises(InvalidShareError):
        p.coin_toss_bit(b"c", [p.coin_share(0, b"c"), bad])


def test_coin_bit_frequency():
    # 10^4 distinct names; an unbiased keyed bit should sit near 1/2
    p = provider()
    ones = 0
    for k in range(10_000):
        name = b"freq" + struct.pack(">I", k)
        shares = [p.coin_share(i, name) for i in range(2)]
        ones += p.coin_toss_bit(name, shares)
    assert 0.47 <= ones / 10_000 <= 0.53


# -- committee toss ----------------------------------------------------------

def test_committee_toss_shape_and_subset_independence():
    p = provider(7)
    name = b"committee-5"
    shares = [p.coin_share(i, name) for i in range(7)]
    committees = {
        p.coin_toss_committee(name, [shares[i] for i in subset], 3)
        for subset in itertools.combinations(range(7), p.f + 1)
    }
    assert len(committees) == 1
    members = committees.pop()
    assert len(members) == 3 == len(set(members))
    assert all(0 <= m < 7 for m in members)


def test_committee_toss_kappa_bounds():
    p = provider()
    shares = [p.coin_share(i, b"k") for i in range(2)]
    with pytest.raises(ValueError):
        p.coin_toss_committee(b"k", shares, 0)
    with pytest.raises(ValueError):
        p.coin_toss_committee(b"k", shares, 5)


def test_committee_selection_frequency():
    # every party should appear with frequency kappa/n within 10% relative
    p = provider()
    kappa, n, rounds = 2, 4, 10_000
    counts = [0] * n
    for k in range(rounds):
        name = b"cfreq" + struct.pack(">I", k)
        shares = [p.coin_share(i, name) for i in range(2)]
        for m in p.coin_toss_committee(name, shares, kappa):
            counts[m] += 1
    expect = rounds * kappa / n
    for c in counts:
        assert abs(c - expect) <= 0.10 * expect, counts


# -- threshold encryption ----------------------------------------------------

def test_tpke_roundtrip_every_subset():
    p = provider(4)
    pt = b"the plaintext payload" * 3
    c = p.tpke_enc(pt)
    shares = [p.tpke_dec_share(i, c) for i in range(4)]
    for subset in itertools.combinations(range(4), p.f + 1):
        assert p.tpke_dec(c, [shares[i] for i in subset]) == pt


def test_tpke_deterministic():
    p = provider()
    assert p.tpke_enc(b"same").payload == p.tpke_enc(b"same").payload
    assert p.tpke_enc(b"same").payload != p.tpke_enc(b"diff").payload


def test_tpke_empty_and_binary_plaintexts():
    p = provider()
    for pt in (b"", bytes(range(256)), b"\x00" * 100):
        c = p.tpke_enc(pt)
        shares = [p.tpke_dec_share(i, c) for i in range(2)]
        assert p.tpke_dec(c, shares) == pt


def test_tpke_share_verify_and_corruption():
    p = provider()
    c = p.tpke_enc(b"secret")
    good = p.tpke_dec_share(1, c)
    assert p.tpke_dec_share_verify(c, 1, good)
    raw = bytearray(good.share_bytes)
    raw[0] ^= 0xFF
    bad = DecryptionShare(1, bytes(raw))
    assert not p.tpke_dec_share_verify(c, 1, bad)
    with pytest.raises(InvalidShareError) as err:
        p.tpke_dec(c, [p.tpke_dec_share(0, c), bad])
    assert list(err.value.offenders) == [1]


def test_tpke_needs_f_plus_one_holders():
    p = provider()
    c = p.tpke_enc(b"q")
    with pytest.raises(InsufficientSharesError):
        p.tpke_dec(c, [p.tpke_dec_share(0, c)])


def test_malformed_ciphertext_rejected():
    p = provider()
    good = p.tpke_enc(b"ok")
    assert p.ciphertext_wellformed(good)
    for bad in (
        Ciphertext(b"", 0),
        Ciphertext(b"XXXX" + good.payload[4:], good.length_plain),
        Ciphertext(good.payload, good.length_plain + 1),
        Ciphertext(good.payload[:-1], good.length_plain),
    ):
        assert not p.ciphertext_wellformed(bad)
        with pytest.raises(MalformedCiphertextError):
            p.tpke_dec_share(0, bad)


def test_ct_digest_stable():
    p = provider()
    c = p.tpke_enc(b"digest me")
    assert c.ct_digest() == digest(c.payload)
    assert len(c.ct_digest()) == DIGEST_LEN


# -- capabilities and serialization -------------------------------------------

def test_party_handle_delegates():
    p = provider()
    h = p.party_handle(3)
    assert (h.n, h.f, h.t_sig) == (4, 1, 3)
    share = h.sig_share(b"via handle")
    assert share.signer == 3
    assert p.verify_share(b"via handle", 3, share)
    c = h.tpke_enc(b"pt")
    assert h.ciphertext_wellformed(c)
    assert h.dec_share(c).holder == 3


# -- known-answer vectors ------------------------------------------------------
# Fixed outputs of a fixed-seed provider.  Any change to the derivation or
# to how it is computed must leave every byte here unchanged.

KAT_SIG_SHARES = (
    "18fa85305abbac72", "72b4dca83decb52b", "d5163b8cdcad0057", "6eaff6aa56d77a04",
    "a4da7e014f3800d5", "e82103e89e5636a8", "121bd8a57ae4cd3b",
)
KAT_COIN_BITS = (1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1)
KAT_TPKE = {  # plaintext length -> sha256 of the ciphertext payload
    0: "59704480bf53f1055aafbf2362da1cea8eb9c4cb326b31de788365f253824493",
    1: "60c5fb272579b30ebe235162b425e6f4617ed400fd1b8f440ca73126e929fa3d",
    32: "da1a1303488a3dd46c6c87869dfeb34fe944b40be8f6f024dff22d68266aa792",
    33: "906ce4e6785fc07a1bd40e1e9134c8b3de656cc09553cbfa184ca7e736577a01",
    25_600: "1a7c7feabc1ad05b4322548cb26b33141e53672102b4dc4d6745f1ecdf87ccc7",
}


def kat_provider():
    return key_setup(128, 7, 2024)


def test_kat_signatures():
    p = kat_provider()
    msg = b"known answer"
    shares = [p.sig_share(i, msg) for i in range(7)]
    assert tuple(s.share_bytes.hex() for s in shares) == KAT_SIG_SHARES
    assert p.combine_shares(msg, shares[:5]).sig_bytes.hex() == "5c9e4412b01ff11a"


def test_kat_coins():
    p = kat_provider()
    bits = []
    for k in range(16):
        name = b"kat-coin-%d" % k
        bits.append(p.coin_toss_bit(name, [p.coin_share(i, name) for i in range(3)]))
    assert tuple(bits) == KAT_COIN_BITS
    shares = [p.coin_share(i, b"kat-coin") for i in range(3)]
    assert p.coin_toss_committee(b"kat-coin", shares, 5) == (0, 1, 6, 5, 3)


@pytest.mark.parametrize("length", sorted(KAT_TPKE))
def test_kat_tpke(length):
    p = kat_provider()
    pt = bytes((7 * i + length) & 0xFF for i in range(length))
    c = p.tpke_enc(pt)
    assert c.length_plain == length
    assert hashlib.sha256(c.payload).hexdigest() == KAT_TPKE[length]
    assert p.tpke_dec(c, [p.tpke_dec_share(i, c) for i in (1, 4, 6)]) == pt


# -- fast paths against their references -----------------------------------------

@settings(max_examples=200, deadline=None)
@given(key=st.binary(max_size=160), msg=st.binary(max_size=300))
@example(key=bytes(range(65)), msg=b"msg")  # keys longer than a block are hashed first
@example(key=bytes(range(160)), msg=b"")
def test_pad_state_mac_equals_hmac(key, msg):
    assert _MacKey(key).mac(msg) == hmac.new(key, msg, hashlib.sha256).digest()


@settings(max_examples=60, deadline=None)
@given(key=st.binary(max_size=80), label=st.binary(max_size=80),
       nbytes=st.sampled_from((0, 1, 31, 32, 33, 64, 65, 25_600)))
def test_stream_equals_per_block_mac(key, label, nbytes):
    mac = _MacKey(key)
    blocks = (nbytes + DIGEST_LEN - 1) // DIGEST_LEN
    want = b"".join(mac.mac(label + struct.pack(">I", i)) for i in range(blocks))[:nbytes]
    assert provider()._stream(mac, label, nbytes) == want


@pytest.mark.parametrize("length", (0, 1, 31, 32, 33, 25_600))
def test_xor_equals_bytewise_xor(length):
    rng = random.Random(length)
    a, b = rng.randbytes(length), rng.randbytes(length)
    assert _xor(a, b) == bytes(x ^ y for x, y in zip(a, b))
    assert _xor(a, a) == bytes(length)


def test_ct_digest_cached_per_object():
    p = provider()
    c = p.tpke_enc(b"cache me")
    assert c.ct_digest() is c.ct_digest()
    twin = Ciphertext(c.payload, c.length_plain)
    assert twin == c and twin.ct_digest() == c.ct_digest()


# A handle's own-secret operations, with the provider method each fixes the party of.
OWN_OPERATIONS = {"sig_share": "sig_share", "coin_share": "coin_share",
                  "dec_share": "tpke_dec_share"}
PUBLIC_OPERATIONS = ("verify_share", "combine_shares", "verify_signature", "coin_share_verify",
                     "coin_toss_bit", "coin_toss_committee", "tpke_enc", "ciphertext_wellformed",
                     "tpke_dec_share_verify", "tpke_dec")


def test_no_master_derived_state_reachable_from_handles_or_ciphertexts():
    """Besides its provider and party, a handle holds the provider's n, f and
    t_sig and its thirteen operations: each a provider method bound to the
    handle's provider, the own-secret ones with only the handle's party fixed."""
    p = provider()
    h = p.party_handle(1)
    c = h.tpke_enc(b"secret batch")
    assert h.tpke_dec(c, [p.tpke_dec_share(i, c) for i in range(2)]) == b"secret batch"
    assert h._provider is p and h.party == 1
    assert set(vars(h)) == {"_provider", "party", "n", "f", "t_sig",
                            *OWN_OPERATIONS, *PUBLIC_OPERATIONS}
    for name in ("n", "f", "t_sig"):
        assert type(getattr(h, name)) is int and getattr(h, name) == getattr(p, name)
    for name in PUBLIC_OPERATIONS:
        op = getattr(h, name)
        assert op.__self__ is h._provider and op.__func__ is getattr(ThresholdProvider, name)
    for name, method in OWN_OPERATIONS.items():
        op = getattr(h, name)
        assert type(op) is partial and op.args == (h.party,) and not op.keywords
        assert op.func.__self__ is h._provider
        assert op.func.__func__ is getattr(ThresholdProvider, method)
    assert set(vars(c)) <= {"payload", "length_plain", "_ct_digest"}
    assert c.__dict__.get("_ct_digest", digest(c.payload)) == digest(c.payload)


def test_handles_call_the_provider_methods_patched_before_they_were_built(monkeypatch):
    calls = []
    real_sig, real_verify = ThresholdProvider.sig_share, ThresholdProvider.verify_share

    def sig_share(self, party, message):
        calls.append(("sig_share", party))
        return real_sig(self, party, message)

    def verify_share(self, message, signer, share):
        calls.append(("verify_share", signer))
        return real_verify(self, message, signer, share)

    p = provider()
    before = p.party_handle(0)
    monkeypatch.setattr(ThresholdProvider, "sig_share", sig_share)
    monkeypatch.setattr(ThresholdProvider, "verify_share", verify_share)
    after = p.party_handle(1)
    share = after.sig_share(b"m")
    assert after.verify_share(b"m", 1, share)
    assert calls == [("sig_share", 1), ("verify_share", 1)]
    assert before.sig_share(b"m") == real_sig(p, 0, b"m")
    assert before.verify_share(b"m", 1, share)
    assert calls == [("sig_share", 1), ("verify_share", 1)]


# -- verification memo soundness --------------------------------------------------

def flip(share, pos=0):
    raw = bytearray(share.share_bytes)
    raw[pos] ^= 0x01
    return SignatureShare(share.signer, bytes(raw))


def test_memo_still_rejects_a_flipped_share():
    p = provider()
    share = p.sig_share(1, b"memo")
    assert p.verify_share(b"memo", 1, share)
    assert p.verify_share(b"memo", 1, share)
    for pos in range(TAG_LEN):
        assert not p.verify_share(b"memo", 1, flip(share, pos))
    assert not p.verify_share(b"memo", 2, share)
    assert not p.verify_share(b"memo!", 1, share)
    sig = p.combine_shares(b"memo", [p.sig_share(i, b"memo") for i in range(3)])
    assert p.verify_signature(b"memo", sig) and p.verify_signature(b"memo", sig)
    assert not p.verify_signature(b"memo", ThresholdSignature(bytes(TAG_LEN)))
    assert not p.verify_signature(b"other", sig)


def test_accepted_memo_answers_only_for_its_record_and_input(monkeypatch):
    """A hit needs the very record and input that were accepted: every other
    probe gets what a fresh provider answers, and an equal record that is
    another object hits without a tag compare."""
    p = provider()
    share = p.sig_share(1, b"m")
    sig = p.combine_shares(b"m", [share] + [p.sig_share(i, b"m") for i in (0, 2)])
    coin = p.coin_share(2, b"m")
    c, other = p.tpke_enc(b"batch"), p.tpke_enc(b"other")
    dec = p.tpke_dec_share(3, c)
    assert p.verify_share(b"m", 1, share) and p.verify_signature(b"m", sig)
    assert p.coin_share_verify(b"m", 2, coin) and p.tpke_dec_share_verify(c, 3, dec)
    d = c.ct_digest()
    probes = [
        # another message, coin name or ciphertext
        ("verify_share", (b"m2", 1, share)), ("verify_signature", (b"m2", sig)),
        ("coin_share_verify", (b"m2", 2, coin)), ("tpke_dec_share_verify", (other, 3, dec)),
        # another signer or holder argument
        ("verify_share", (b"m", 2, share)), ("coin_share_verify", (b"m", 1, coin)),
        ("tpke_dec_share_verify", (c, 2, dec)),
        # a record of another kind with the same fields
        ("verify_share", (b"m", 2, SignatureShare(*coin))),
        ("verify_share", (d, 3, SignatureShare(*dec))),
        ("verify_signature", (b"m", ThresholdSignature(share.share_bytes))),
        ("verify_signature", (b"m", ThresholdSignature(coin.share_bytes))),
        ("coin_share_verify", (b"m", 1, CoinShare(*share))),
        ("coin_share_verify", (d, 3, CoinShare(*dec))),
        ("tpke_dec_share_verify", (c, 2, DecryptionShare(*coin))),
    ]
    fresh = provider()
    sizes = len(p._accepted), len(p._sig_accepted), len(p._dec_accepted), len(p._tags)
    for name, args in probes:
        got = getattr(p, name)(*args)
        assert got == getattr(fresh, name)(*args) and got is not True, (name, args)
    for other_kind in (CoinShare(*share), DecryptionShare(*share)):
        with pytest.raises(AttributeError):  # neither has a signer field
            p.verify_share(b"m", 1, other_kind)
    for record in (share, coin):  # an accepted share is no signature's bytes
        with pytest.raises(TypeError):
            p.verify_signature(b"m", ThresholdSignature(record))
    assert (len(p._accepted), len(p._sig_accepted), len(p._dec_accepted), len(p._tags)) == sizes

    def no_compare(*args):
        raise AssertionError("a repeated check compared tags")

    monkeypatch.setattr(p, "_tag_matches", no_compare)
    # each equal record below is a new object, and so are its bytes
    assert p.verify_share(b"m", 1, SignatureShare(1, bytes(bytearray(share.share_bytes))))
    assert p.verify_signature(b"m", ThresholdSignature(bytes(bytearray(sig.sig_bytes))))
    assert p.coin_share_verify(b"m", 2, CoinShare(2, bytes(bytearray(coin.share_bytes))))
    assert p.tpke_dec_share_verify(Ciphertext(bytes(bytearray(c.payload)), c.length_plain), 3,
                                   DecryptionShare(3, bytes(bytearray(dec.share_bytes))))


def test_rejections_are_never_stored():
    p = provider()
    share = p.sig_share(0, b"flood")
    assert p.verify_share(b"flood", 0, share)
    c = p.tpke_enc(b"flood")
    dec = p.tpke_dec_share(0, c)
    assert p.tpke_dec_share_verify(c, 0, dec)
    coin = p.coin_share(0, b"flood")
    assert p.coin_share_verify(b"flood", 0, coin)
    sizes = len(p._accepted), len(p._dec_accepted), len(p._tags)
    rng = random.Random(5)
    for k in range(500):
        forged = SignatureShare(0, rng.randbytes(TAG_LEN))
        if forged != share:
            assert not p.verify_share(b"flood", 0, forged)
            assert not p.verify_signature(b"flood", ThresholdSignature(forged.share_bytes))
        forged_dec = DecryptionShare(0, rng.randbytes(TAG_LEN))
        if forged_dec != dec:
            assert not p.tpke_dec_share_verify(c, 0, forged_dec)
        assert not p.tpke_dec_share_verify(c, 1, DecryptionShare(1, dec.share_bytes))
        forged_coin = CoinShare(0, rng.randbytes(TAG_LEN))
        if forged_coin != coin:
            assert not p.coin_share_verify(b"flood", 0, forged_coin)
        assert not p.coin_share_verify(b"flood", 1, CoinShare(1, coin.share_bytes))
        # inputs whose tags nobody has made yet
        fresh = b"fresh %d" % k
        assert not p.verify_share(fresh, 0, forged)
        assert not p.verify_signature(fresh, ThresholdSignature(forged.share_bytes))
        assert not p.coin_share_verify(fresh, 0, forged_coin)
        assert not p.tpke_dec_share_verify(p.tpke_enc(fresh), 0, forged_dec)
    assert (len(p._accepted), len(p._dec_accepted), len(p._tags)) == sizes


def test_verifying_honest_output_makes_no_mac(monkeypatch):
    """The producer's tags serve every verifier, and every combine after the
    first; the checks still run and still reject a changed tag."""
    p = provider()
    share = p.sig_share(1, b"m")
    shares = [p.sig_share(i, b"s") for i in range(3)]
    sig = p.combine_shares(b"s", shares)
    coin = p.coin_share(2, b"coin")
    c = p.tpke_enc(b"batch")
    dec = p.tpke_dec_share(3, c)
    macs = []
    monkeypatch.setattr(_MacKey, "mac", lambda key, msg: macs.append(msg))
    assert p.verify_share(b"m", 1, share)
    assert p.verify_signature(b"s", sig)
    assert p.combine_shares(b"s", shares) == sig
    assert p.coin_share_verify(b"coin", 2, coin)
    assert p.tpke_dec_share_verify(c, 3, dec)
    assert not p.verify_share(b"m", 1, flip(share))
    assert not p.coin_share_verify(b"coin", 2, coin._replace(share_bytes=bytes(TAG_LEN)))
    assert macs == []


def test_warm_memo_combine_still_names_offenders():
    p = provider()
    msg = b"warm"
    shares = [p.sig_share(i, msg) for i in range(4)]
    p.combine_shares(msg, shares)  # every share is now in the memo
    with pytest.raises(InvalidShareError) as err:
        p.combine_shares(msg, [shares[0], flip(shares[1]), shares[2], flip(shares[3], 5)])
    assert err.value.offenders == (1, 3)


def mutate_dec_share(share: DecryptionShare, kind: int, rng) -> DecryptionShare:
    """kind 1: flip a share byte; 2: claim another holder."""
    if kind == 1:
        raw = bytearray(share.share_bytes)
        raw[rng.randrange(TAG_LEN)] ^= 0x01
        return DecryptionShare(share.holder, bytes(raw))
    if kind == 2:
        return DecryptionShare((share.holder + 1) % 7, share.share_bytes)
    return share


def flip_payload(c: Ciphertext, pos: int) -> Ciphertext:
    raw = bytearray(c.payload)
    raw[pos] ^= 0x01
    return Ciphertext(bytes(raw), c.length_plain)


def outcome(p, name, args):
    """A call's result, or the type and offenders of the error it raised."""
    try:
        return getattr(p, name)(*args)
    except (InvalidShareError, InsufficientSharesError, MalformedCiphertextError) as e:
        return type(e).__name__, getattr(e, "offenders", None)


def tpke_dec_call(p, rng, cts):
    """Arguments of one tpke_dec call: a ciphertext that is kept, has a
    flipped header or body byte, a wrong length or a wrong magic, and
    shares that are kept, mutated or too few."""
    c = shared = rng.choice(cts)
    kind = rng.randrange(5)
    if kind == 1:
        c = shared = flip_payload(c, rng.randrange(4, len(c.payload)))
    elif kind == 2:
        c = Ciphertext(c.payload, c.length_plain + 1)
    elif kind == 3:
        c = flip_payload(c, rng.randrange(4))
    shares = [p.tpke_dec_share(h, shared) for h in rng.sample(range(7), rng.randrange(1, 4))]
    if rng.randrange(3) == 0:
        i = rng.randrange(len(shares))
        shares[i] = mutate_dec_share(shares[i], rng.randrange(1, 3), rng)
    return c, shares


def test_warm_and_fresh_providers_agree():
    warm = provider(7, seed=3)
    rng = random.Random(17)
    msgs = [b"m%d" % k for k in range(6)]
    sigs = {m: warm.combine_shares(m, [warm.sig_share(i, m) for i in range(5)]) for m in msgs}
    cts = [warm.tpke_enc(m) for m in msgs]
    calls = [("tpke_enc", (m,)) for m in msgs + [b"", b"new" * 20]]
    for _ in range(400):
        msg, signer = rng.choice(msgs), rng.randrange(7)
        share = warm.sig_share(signer, msg)
        kind = rng.randrange(4)
        if kind == 1:
            share = flip(share, rng.randrange(TAG_LEN))
        elif kind == 2:
            signer = (signer + 1) % 7
        elif kind == 3:
            msg = rng.choice(msgs)
        calls.append(("verify_share", (msg, signer, share)))
        calls.append(("verify_signature", (msg, sigs[rng.choice(msgs)])))
        c, holder = rng.choice(cts), rng.randrange(7)
        dec = mutate_dec_share(warm.tpke_dec_share(holder, c), rng.randrange(3), rng)
        if rng.randrange(4) == 0:
            holder = (holder + 3) % 7  # the share arrives from another sender
        calls.append(("tpke_dec_share_verify", (rng.choice(cts) if rng.randrange(4) == 0 else c,
                                                holder, dec)))
        calls.append(("tpke_dec", tpke_dec_call(warm, rng, cts)))
    for _ in range(2):  # the second pass runs on a warm memo
        got = [outcome(warm, name, args) for name, args in calls]
        assert got == [outcome(provider(7, seed=3), name, args) for name, args in calls]
    for kind in ("verify_share", "tpke_dec_share_verify"):
        results = {ok for (name, _), ok in zip(calls, got) if name == kind}
        assert results == {True, False}
    decs = [r for (name, _), r in zip(calls, got) if name == "tpke_dec"]
    assert set(msgs) <= set(decs)
    assert {r[0] for r in decs if isinstance(r, tuple)} == {
        "InvalidShareError", "InsufficientSharesError", "MalformedCiphertextError"}


def test_memos_stay_within_their_bounds():
    p = provider()
    for k in range(VERIFY_MEMO_MAX + 50):
        msg = b"bound %d" % k
        assert p.verify_share(msg, k % 4, p.sig_share(k % 4, msg))
        assert len(p._accepted) <= VERIFY_MEMO_MAX and len(p._tags) <= VERIFY_MEMO_MAX
    for k in range(TPKE_MEMO_MAX + 10):
        c = p.tpke_enc(b"%d" % k)
        assert p.tpke_dec(c, [p.tpke_dec_share(i, c) for i in range(2)]) == b"%d" % k
        assert len(p._ciphertexts) <= TPKE_MEMO_MAX and len(p._plaintexts) <= TPKE_MEMO_MAX
    for k in range(VERIFY_MEMO_MAX // 2 + 50):
        c = Ciphertext(b"STPK" + bytes(16) + b"%d" % k, len(b"%d" % k))
        shares = [p.tpke_dec_share(i, c) for i in range(2)]
        for i in range(2):
            assert p.tpke_dec_share_verify(c, i, shares[i])
        p.tpke_dec(c, shares)  # each a miss that fills the plaintext memo
        assert len(p._dec_accepted) <= VERIFY_MEMO_MAX and len(p._tags) <= VERIFY_MEMO_MAX
        assert len(p._plaintexts) <= TPKE_MEMO_MAX
    assert len(p._accepted) == VERIFY_MEMO_MAX and len(p._dec_accepted) == VERIFY_MEMO_MAX
    assert len(p._tags) == VERIFY_MEMO_MAX
    assert len(p._ciphertexts) == TPKE_MEMO_MAX and len(p._plaintexts) == TPKE_MEMO_MAX
    # signature and coin shares go into the one accepted memo, interleaved with
    # signatures, which go into their own
    p = provider()
    for k in range(VERIFY_MEMO_MAX // 2 + 50):
        msg = b"mixed %d" % k
        sig = p.combine_shares(msg, [p.sig_share(i, msg) for i in range(3)])  # verifies 3 shares
        assert p.verify_signature(msg, sig)
        assert p.coin_share_verify(msg, k % 4, p.coin_share(k % 4, msg))
        assert len(p._accepted) <= VERIFY_MEMO_MAX and len(p._sig_accepted) <= VERIFY_MEMO_MAX
        assert len(p._tags) <= VERIFY_MEMO_MAX
    assert len(p._accepted) == VERIFY_MEMO_MAX
    assert len(p._sig_accepted) == VERIFY_MEMO_MAX // 2 + 50
    for k in range(VERIFY_MEMO_MAX):
        msg = b"signed %d" % k
        sig = p.combine_shares(msg, [p.sig_share(i, msg) for i in range(3)])
        assert p.verify_signature(msg, sig)
        assert len(p._sig_accepted) <= VERIFY_MEMO_MAX
    assert len(p._accepted) == len(p._sig_accepted) == VERIFY_MEMO_MAX
    # one share offered against many messages; it is valid for one of them
    p = provider()
    share = p.sig_share(0, b"valid")
    for k in range(VERIFY_MEMO_MAX + 50):
        msg = b"valid" if k == VERIFY_MEMO_MAX // 2 else b"bound %d" % k
        assert p.verify_share(msg, 0, share) == (msg == b"valid")
        assert len(p._accepted) <= VERIFY_MEMO_MAX and len(p._tags) <= VERIFY_MEMO_MAX
    assert len(p._accepted) == len(p._tags) == 1


# -- encryption and decryption memo soundness ---------------------------------------

def test_warm_plaintext_memo_still_checks_ciphertext_and_shares():
    p = provider()
    c = p.tpke_enc(b"warm batch" * 10)
    assert c.ct_digest() in p._plaintexts
    shares = [p.tpke_dec_share(i, c) for i in range(4)]
    bad = DecryptionShare(2, bytes(TAG_LEN))
    with pytest.raises(InvalidShareError) as err:
        p.tpke_dec(c, [shares[0], bad, shares[3]])
    assert err.value.offenders == (2,)
    with pytest.raises(InsufficientSharesError):
        p.tpke_dec(c, [shares[1], shares[1]])
    # same payload, hence the same memo key, but a length that does not match it
    for bad_ct in (Ciphertext(c.payload, c.length_plain + 1),
                   Ciphertext(c.payload, c.length_plain - 1)):
        assert bad_ct.ct_digest() in p._plaintexts
        with pytest.raises(MalformedCiphertextError):
            p.tpke_dec(bad_ct, shares)
    assert p.tpke_dec(c, shares[:2]) == b"warm batch" * 10


def test_flipped_payload_byte_decrypts_as_a_fresh_provider_would():
    p = provider()
    pt = bytes(range(200))
    c = p.tpke_enc(pt)
    for pos in (4, 19, 20, len(c.payload) - 1):  # header bytes, then body bytes
        bent = flip_payload(c, pos)
        shares = [p.tpke_dec_share(i, bent) for i in range(2)]
        got = p.tpke_dec(bent, shares)
        assert got == provider().tpke_dec(bent, shares)
        assert got != pt and len(got) == len(pt)


def test_twin_providers_ciphertext_decrypts_unseen():
    twin, p = provider(), provider()
    pt = b"from the twin" * 50
    c = twin.tpke_enc(pt)
    assert c.ct_digest() not in p._plaintexts
    assert p.tpke_dec(c, [p.tpke_dec_share(i, c) for i in (0, 3)]) == pt
    assert p._plaintexts[c.ct_digest()] == pt


def test_each_plaintext_is_xored_once_per_run(monkeypatch):
    xors, plaintexts, decs = [], set(), []
    real_xor, real_enc, real_dec = crypto._xor, ThresholdProvider.tpke_enc, ThresholdProvider.tpke_dec

    def count_xor(a, b):
        xors.append(len(a))
        return real_xor(a, b)

    def record_enc(self, plaintext):
        plaintexts.add(plaintext)
        return real_enc(self, plaintext)

    def record_dec(self, c, shares):
        decs.append(c.ct_digest())
        return real_dec(self, c, shares)

    monkeypatch.setattr(crypto, "_xor", count_xor)
    monkeypatch.setattr(ThresholdProvider, "tpke_enc", record_enc)
    monkeypatch.setattr(ThresholdProvider, "tpke_dec", record_dec)
    report = sim_run(SimConfig(n=4, f=1, seed=5, instances=3, request_size=3200))
    assert report.ok
    assert len(plaintexts) <= TPKE_MEMO_MAX and len(decs) > len(plaintexts)
    assert len(xors) == len(plaintexts)
