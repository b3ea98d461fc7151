"""Trusted-dealer threshold cryptography for deterministic simulation.

Keyed-digest constructions stand in for threshold signatures, coin
tossing and threshold public-key encryption: every operation is a pure
function of (inputs, key material), so runs replay bit for bit.  The
dealer's master secret lives only inside the provider; party code and
adversary code receive capability handles that expose a single party's
signing/decryption operations plus the public verifier surface, each the
provider's own method bound when the handle is built, and no public
operation returns master-derived values unless threshold-many
valid shares are presented.  A share holds its party and its tag, a
signature its tag: the verifier recomputes what the tag is a MAC over.
Shares and signatures are `Record`s, immutable named tuples that equal only
their own kind, as are the wire messages built from them (`messages.py`).

Every keyed digest is HMAC-SHA256 (RFC 2104), computed from sha256 inner
and outer pad states that the provider hashes once per key when it is
built.  A keystream is HMAC(key, label || be32(i)) for blocks i = 0, 1, ...;
for i >= 1 that is PBKDF2-HMAC-SHA256 with one iteration (RFC 8018 5.2:
T_i = PRF(P, S || INT(i)), i counting from 1), so block 0 is one MAC and
every later block comes from a single `hashlib.pbkdf2_hmac` call.

The memos, all private to the provider and bounded by module constants,
spare repeated work without changing any result:

* the ciphertext of each plaintext, keyed by the plaintext's digest, and
  the plaintext of each ciphertext, keyed by `ct_digest()`, so a batch is
  encrypted once and the n parties decrypting it share one XOR.  Both are
  bounded by `TPKE_MEMO_MAX`; `tpke_dec` reads its memo only after the
  ciphertext, every share and the holder count have been checked;
* the *accepted* memos: each accepted share, a record that equals only its
  own kind, maps to the message, coin name or ciphertext digest it passed
  for; each accepted signature's bytes, one object per tag, map to its
  message in a memo no share can hit.  A hit needs this call's input, and a
  share's first field must be this call's party; an equal key holds the
  tag that passed, so a hit skips the tag compare;
* the tag of each (key, domain, signed input), such as (a party's key,
  b"sig", message), so a hit skips the message digest and the MAC.
  `sig_share`, `combine_shares`, `coin_share` and `tpke_dec_share` fill it;
  the four verifiers read it on an accepted-memo miss and store a tag they
  computed only if it matches.  All are bounded by `VERIFY_MEMO_MAX`.

A rejection is never stored in any of them, so a sender of invalid shares
cannot grow them, and any changed input misses and is verified afresh.
All live inside the public methods: every call still enters the method, a
check that misses the accepted memo still compares the offered tag with
`hmac.compare_digest`, and `combine_shares` and `tpke_dec` still check
each share through the public verifiers.  No memo is an attribute
of a `Ciphertext` or of a `PartyCrypto` handle, which holds besides its
provider only its party, the provider's n, f and t_sig, and the
provider's methods, so the capability contract above is unchanged.

WARNING: this is a simulation artifact, not a secure implementation.
"""
from __future__ import annotations

import hashlib
import hmac
import struct
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

DIGEST_LEN = 32
TAG_LEN = 8  # length of share / combined-signature evidence tags

# Entry bounds of the provider-private memos; the oldest entry goes first.
TPKE_MEMO_MAX = 64
VERIFY_MEMO_MAX = 8192

_HMAC_BLOCK = 64  # sha256 block size
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class CryptoError(Exception):
    pass


class InsufficientSharesError(CryptoError):
    """Fewer distinct valid shares than the threshold requires."""

    def __init__(self, needed: int, got: int):
        super().__init__(f"need {needed} distinct valid shares, got {got}")
        self.needed = needed
        self.got = got


class InvalidShareError(CryptoError):
    """At least one offered share fails verification; offenders named."""

    def __init__(self, offenders: Sequence[int]):
        super().__init__(f"invalid shares from {sorted(offenders)}")
        self.offenders = tuple(sorted(offenders))


class MalformedCiphertextError(CryptoError):
    pass


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class _MacKey:
    """HMAC-SHA256 under one key, with the pad states hashed once (RFC 2104).
    The key itself (hashed first if longer than a block) is kept for PBKDF2."""

    __slots__ = ("_inner", "_outer", "_key")

    def __init__(self, key: bytes):
        if len(key) > _HMAC_BLOCK:
            key = digest(key)
        self._key = key
        key = key.ljust(_HMAC_BLOCK, b"\x00")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def mac(self, msg: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(msg)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length byte strings, as one big-integer operation."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _remember(memo: dict, key, value, bound: int) -> None:
    if len(memo) >= bound:
        del memo[next(iter(memo))]
    memo[key] = value


class Record(tuple):
    """An immutable value with named fields, cheaper to build than a frozen
    dataclass: it equals only a record of its own kind with equal fields
    (never a plain tuple), and equal records hash equal.  A kind subclasses
    `record(fields)` and declares `__slots__ = ()`, so no attribute can be
    set on it, its fields included."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def record(fields: str, defaults: tuple = ()) -> type:
    """The base of a `Record` kind with these space-separated fields, in
    order; the last len(defaults) fields default to `defaults`."""
    return type("Record", (Record, namedtuple("Record", fields, defaults=defaults)),
                {"__slots__": ()})


class SignatureShare(record("signer share_bytes")):
    __slots__ = ()


class ThresholdSignature(record("sig_bytes")):
    __slots__ = ()


class CoinShare(record("holder share_bytes")):
    __slots__ = ()


class DecryptionShare(record("holder share_bytes")):
    __slots__ = ()


@dataclass(frozen=True)
class Ciphertext:
    payload: bytes
    length_plain: int

    def __post_init__(self):
        # Stored once per object, read by the provider as `_ct_digest`; the
        # payload is immutable and public.
        object.__setattr__(self, "_ct_digest", digest(self.payload))

    def ct_digest(self) -> bytes:
        return self._ct_digest


_CT_MAGIC = b"STPK"
_CT_HEADER = len(_CT_MAGIC) + 16  # magic + masked-seed header


def key_setup(security_param: int, n: int, seed: int) -> "ThresholdProvider":
    """Dealer key generation; see ThresholdProvider for the contract."""
    return ThresholdProvider(security_param, n, seed)


class ThresholdProvider:
    """Holds all key material; hands out per-party capabilities.

    n = 3f+1 with f >= 1 is enforced.  The signature threshold t_sig is n-f;
    the TPKE and coin thresholds are f+1.
    """

    def __init__(self, security_param: int, n: int, seed: int):
        if n < 4 or (n - 1) % 3 != 0:
            raise ValueError(f"n must be 3f+1 with f >= 1, got n={n}")
        f = (n - 1) // 3
        if not 1 <= security_param < 2**32:
            raise ValueError(f"security_param must be in 1..2**32-1, got {security_param}")
        self.n = n
        self.f = f
        self.t_sig = t_sig = n - f
        master = digest(
            b"SABC-DEALER" + struct.pack(">QHHI", seed & (2**64 - 1), n, t_sig, security_param)
        )
        self._master = _MacKey(master)
        self._party_keys = tuple(
            _MacKey(digest(master + b"party" + struct.pack(">H", i))) for i in range(n)
        )
        self._ciphertexts: dict = {}  # plaintext digest -> Ciphertext
        self._plaintexts: dict = {}  # ct_digest() -> plaintext
        self._accepted: dict = {}  # accepted signature or coin share -> message or coin name
        self._sig_accepted: dict = {}  # accepted signature's bytes -> message
        self._dec_accepted: dict = {}  # accepted decryption share -> its ct_digest()
        self._tags: dict = {}  # (key, domain, signed input) -> tag

    # -- internal keyed digests ------------------------------------------

    def _tag(self, key: _MacKey, domain: bytes, signed: bytes) -> bytes:
        """The tag of `signed` under `key` in `domain`, from the tag memo, which
        it fills: MAC(key, domain || 0x00 || input), cut to TAG_LEN, where the
        input of the two signature domains is the digest of `signed`."""
        memo_key = (key, domain, signed)
        tag = self._tags.get(memo_key)
        if tag is None:
            tag = self._fresh_tag(key, domain, signed)
            _remember(self._tags, memo_key, tag, VERIFY_MEMO_MAX)
        return tag

    def _fresh_tag(self, key: _MacKey, domain: bytes, signed: bytes) -> bytes:
        # `key.mac` and `digest`, inlined: this runs once per tag computed.
        if domain == b"sig" or domain == b"tsig":
            signed = hashlib.sha256(signed).digest()
        inner = key._inner.copy()
        inner.update(domain + b"\x00" + signed)
        outer = key._outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:TAG_LEN]

    def _tag_matches(self, key: _MacKey, domain: bytes, signed: bytes, offered: bytes) -> bool:
        """Whether `offered` is `_tag(key, domain, signed)`.  A tag computed
        here goes into the memo only when it matches, so rejected input never
        grows it."""
        memo_key = (key, domain, signed)
        tag = self._tags.get(memo_key)
        if tag is None:
            tag = self._fresh_tag(key, domain, signed)
            if not hmac.compare_digest(offered, tag):
                return False
            _remember(self._tags, memo_key, tag, VERIFY_MEMO_MAX)
            return True
        return hmac.compare_digest(offered, tag)

    def _stream(self, key: _MacKey, label: bytes, nbytes: int) -> bytes:
        """HMAC(key, label || be32(i)) for i = 0, 1, ..., cut to nbytes: block 0
        is one MAC, the rest one-iteration PBKDF2 (see the module docstring)."""
        first = key.mac(label + b"\x00\x00\x00\x00")
        if nbytes <= DIGEST_LEN:
            return first[:nbytes]
        return first + hashlib.pbkdf2_hmac("sha256", key._key, label, 1, nbytes - DIGEST_LEN)

    def _mask(self, header: bytes, nbytes: int) -> bytes:
        return self._stream(self._master, b"tpke-mask" + header, nbytes)

    def _check_party(self, party: int) -> None:
        if not 0 <= party < self.n:
            raise ValueError(f"party {party} out of range for n={self.n}")

    def _check_quorum(self, verify, subject, shares: Iterable[Record], need: int) -> None:
        """The share-quorum rule of every combiner.  Any share that
        `verify(subject, party, share)` rejects raises InvalidShareError
        naming every offender; otherwise fewer than `need` distinct parties
        raise InsufficientSharesError.  A share's party is its first field,
        a signature share's `signer` or a coin or decryption share's `holder`."""
        offenders, parties = [], set()
        for s in shares:
            if not verify(subject, s[0], s):
                offenders.append(s[0])
            parties.add(s[0])
        if offenders:
            raise InvalidShareError(offenders)
        if len(parties) < need:
            raise InsufficientSharesError(need, len(parties))

    # -- threshold signatures --------------------------------------------

    def sig_share(self, party: int, message: bytes) -> SignatureShare:
        self._check_party(party)
        return SignatureShare(party, self._tag(self._party_keys[party], b"sig", message))

    def verify_share(self, message: bytes, signer: int, share: SignatureShare) -> bool:
        if self._accepted.get(share) == message and share[0] == signer:
            return True
        if not 0 <= signer < self.n or share.signer != signer:
            return False
        ok = self._tag_matches(self._party_keys[signer], b"sig", message, share.share_bytes)
        if ok:
            _remember(self._accepted, share, message, VERIFY_MEMO_MAX)
        return ok

    def combine_shares(self, message: bytes, shares: Iterable[SignatureShare]) -> ThresholdSignature:
        """Combine >= t_sig distinct valid shares into the group signature.

        Any invalid share raises InvalidShareError naming the offenders;
        too few distinct valid shares raises InsufficientSharesError.
        The result is a pure function of (message, key material), so any
        qualifying subset combines to the identical signature.
        """
        self._check_quorum(self.verify_share, message, shares, self.t_sig)
        return ThresholdSignature(self._tag(self._master, b"tsig", message))

    def verify_signature(self, message: bytes, sig: ThresholdSignature) -> bool:
        if self._sig_accepted.get(sig.sig_bytes) == message:
            return True
        ok = self._tag_matches(self._master, b"tsig", message, sig.sig_bytes)
        if ok:
            _remember(self._sig_accepted, sig.sig_bytes, message, VERIFY_MEMO_MAX)
        return ok

    # -- common coin -------------------------------------------------------

    def coin_share(self, party: int, coin_name: bytes) -> CoinShare:
        self._check_party(party)
        return CoinShare(party, self._tag(self._party_keys[party], b"coin", coin_name))

    def coin_share_verify(self, coin_name: bytes, holder: int, share: CoinShare) -> bool:
        if self._accepted.get(share) == coin_name and share[0] == holder:
            return True
        if not 0 <= holder < self.n or share.holder != holder:
            return False
        ok = self._tag_matches(self._party_keys[holder], b"coin", coin_name, share.share_bytes)
        if ok:
            _remember(self._accepted, share, coin_name, VERIFY_MEMO_MAX)
        return ok

    def coin_toss_bit(self, coin_name: bytes, shares: Iterable[CoinShare]) -> int:
        """Unbiased bit, defined only once f+1 distinct valid shares exist."""
        self._check_quorum(self.coin_share_verify, coin_name, shares, self.f + 1)
        return self._stream(self._master, b"coinbit" + coin_name, 1)[0] & 1

    def coin_toss_committee(
        self, coin_name: bytes, shares: Iterable[CoinShare], kappa: int
    ) -> tuple[int, ...]:
        """kappa distinct parties drawn by Fisher-Yates over a keyed stream."""
        if not 0 < kappa <= self.n:
            raise ValueError(f"kappa must be in 1..n, got {kappa}")
        self._check_quorum(self.coin_share_verify, coin_name, shares, self.f + 1)
        pool = list(range(self.n))
        raw = self._stream(self._master, b"committee" + coin_name, 4 * kappa)
        for i in range(kappa):
            j = i + struct.unpack_from(">I", raw, 4 * i)[0] % (self.n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(pool[:kappa])

    # -- threshold public-key encryption -----------------------------------

    def tpke_enc(self, plaintext: bytes) -> Ciphertext:
        """Deterministic: identical plaintexts encrypt to identical ciphertexts."""
        pd = digest(plaintext)
        c = self._ciphertexts.get(pd)
        if c is None:
            # 16-byte masked-seed header regardless of the evidence-tag width.
            header = self._stream(self._master, b"tpke-hdr" + pd, _CT_HEADER - len(_CT_MAGIC))
            body = _xor(plaintext, self._mask(header, len(plaintext)))
            c = Ciphertext(_CT_MAGIC + header + body, len(plaintext))
            _remember(self._ciphertexts, pd, c, TPKE_MEMO_MAX)
            _remember(self._plaintexts, c._ct_digest, plaintext, TPKE_MEMO_MAX)
        return c

    def _check_ciphertext(self, c: Ciphertext) -> None:
        if (
            not c.payload.startswith(_CT_MAGIC)
            or len(c.payload) != _CT_HEADER + c.length_plain
            or c.length_plain < 0
        ):
            raise MalformedCiphertextError("not a valid ciphertext")

    def ciphertext_wellformed(self, c: Ciphertext) -> bool:
        """Structural check only; no key material involved."""
        try:
            self._check_ciphertext(c)
        except MalformedCiphertextError:
            return False
        return True

    def tpke_dec_share(self, party: int, c: Ciphertext) -> DecryptionShare:
        self._check_party(party)
        self._check_ciphertext(c)
        tag = self._tag(self._party_keys[party], b"tpke-dec", c._ct_digest)
        return DecryptionShare(party, tag)

    def tpke_dec_share_verify(self, c: Ciphertext, holder: int, share: DecryptionShare) -> bool:
        d = c._ct_digest
        if self._dec_accepted.get(share) == d and share[0] == holder:
            return True
        if not 0 <= holder < self.n or share.holder != holder:
            return False
        ok = self._tag_matches(self._party_keys[holder], b"tpke-dec", d, share.share_bytes)
        if ok:
            _remember(self._dec_accepted, share, d, VERIFY_MEMO_MAX)
        return ok

    def tpke_dec(self, c: Ciphertext, shares: Iterable[DecryptionShare]) -> bytes:
        """Recover the plaintext from f+1 distinct valid decryption shares."""
        self._check_ciphertext(c)
        self._check_quorum(self.tpke_dec_share_verify, c, shares, self.f + 1)
        d = c._ct_digest
        plaintext = self._plaintexts.get(d)
        if plaintext is None:
            header = c.payload[len(_CT_MAGIC):_CT_HEADER]
            plaintext = _xor(c.payload[_CT_HEADER:], self._mask(header, c.length_plain))
            _remember(self._plaintexts, d, plaintext, TPKE_MEMO_MAX)
        return plaintext

    # -- capabilities ---------------------------------------------------------

    def party_handle(self, party: int) -> "PartyCrypto":
        self._check_party(party)
        return PartyCrypto(self, party)


class PartyCrypto:
    """Capability handle: one party's secrets plus the public surface.

    Party and adversary code only ever sees instances of this class, so
    the master secret and other parties' secrets stay structurally out
    of reach.  Its operations are the provider's own methods, looked up
    when the handle is built: `sig_share`, `coin_share` and `dec_share`
    with this party fixed, the public surface as it is.  So a
    `ThresholdProvider` method patched before `party_handle` is the one a
    handle calls, and one patched after it is not.
    """

    def __init__(self, provider: ThresholdProvider, party: int):
        self._provider = provider
        self.party = party
        self.n, self.f, self.t_sig = provider.n, provider.f, provider.t_sig
        # own-secret operations
        self.sig_share = partial(provider.sig_share, party)
        self.coin_share = partial(provider.coin_share, party)
        self.dec_share = partial(provider.tpke_dec_share, party)
        # public surface
        self.verify_share = provider.verify_share
        self.combine_shares = provider.combine_shares
        self.verify_signature = provider.verify_signature
        self.coin_share_verify = provider.coin_share_verify
        self.coin_toss_bit = provider.coin_toss_bit
        self.coin_toss_committee = provider.coin_toss_committee
        self.tpke_enc = provider.tpke_enc
        self.ciphertext_wellformed = provider.ciphertext_wellformed
        self.tpke_dec_share_verify = provider.tpke_dec_share_verify
        self.tpke_dec = provider.tpke_dec
