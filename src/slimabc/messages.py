"""Wire messages and their canonical binary encoding.

Every protocol message has exactly one byte representation, so traffic
accounting is bit-exact and platform independent.  Messages emitted by
one party to one destination during a single handling step travel in a
single envelope; metrics count envelopes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Union

from .crypto import (
    Ciphertext,
    CoinShare,
    DecryptionShare,
    SignatureShare,
    ThresholdSignature,
)

BROADCAST = -1

ABSTAIN = 2  # main-vote value alongside bits 0 and 1

# justification kinds
JUST_NONE = 0
JUST_PREPROCESS_ONE = 1  # one pre-process-for-1 signature share
JUST_PREPROCESS_ZERO = 2  # threshold signature over pre-process-for-0
JUST_PREVOTE_THRESHOLD = 3  # threshold signature over prior-round pre-vote
JUST_ABSTAIN_THRESHOLD = 4  # threshold signature over prior-round abstain
JUST_CONFLICT = 5  # two embedded justified pre-votes (bits 0 and 1)


@dataclass(frozen=True)
class Justification:
    kind: int
    signer: int = 0
    share: Optional[SignatureShare] = None
    sig: Optional[ThresholdSignature] = None
    prevote_zero: Optional["AbbaPrevote"] = None
    prevote_one: Optional["AbbaPrevote"] = None


ENVELOPE_HEADER = 12  # sender (2), instance (8), entry count (2)
ENTRY_HEADER = 5  # tag (1), body length (4)


def _body_len(msg) -> int:
    """len(msg.encode_body()), computed once per message object.

    A broadcast message object rides in n-1 envelopes; messages are frozen,
    so the length cached on the object stays valid."""
    n = msg.__dict__.get("_body_len")
    if n is None:
        n = len(msg.encode_body())
        object.__setattr__(msg, "_body_len", n)
    return n


def _u16(v: int) -> bytes:
    return struct.pack(">H", v)


def _u64(v: int) -> bytes:
    return struct.pack(">Q", v)


def _blob(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def _enc_ciphertext(c: Ciphertext) -> bytes:
    return _blob(c.payload) + struct.pack(">I", c.length_plain)


def _enc_just(j: Justification) -> bytes:
    out = [struct.pack(">B", j.kind)]
    if j.kind == JUST_PREPROCESS_ONE:
        out.append(_u16(j.signer))
        out.append(j.share.share_bytes)
    elif j.kind in (JUST_PREPROCESS_ZERO, JUST_PREVOTE_THRESHOLD, JUST_ABSTAIN_THRESHOLD):
        out.append(j.sig.sig_bytes)
    elif j.kind == JUST_CONFLICT:
        out.append(_blob(j.prevote_zero.encode_body()))
        out.append(_blob(j.prevote_one.encode_body()))
    return b"".join(out)


@dataclass(frozen=True)
class CsShare:
    """Committee-selection coin share."""

    instance: int
    share: CoinShare
    TAG = 1
    slot = None

    def encode_body(self) -> bytes:
        return _blob(self.share.share_bytes)


@dataclass(frozen=True)
class PpbPayload:
    """Committee member's ciphertext broadcast; slot doubles as sender."""

    instance: int
    slot: int
    ciphertext: Ciphertext
    TAG = 2

    def encode_body(self) -> bytes:
        return _u16(self.slot) + _enc_ciphertext(self.ciphertext)


@dataclass(frozen=True)
class PpbShare:
    """Countersignature over a committee member's payload digest."""

    instance: int
    slot: int
    share: SignatureShare
    TAG = 3

    def encode_body(self) -> bytes:
        return _u16(self.slot) + self.share.share_bytes


@dataclass(frozen=True)
class Proposal:
    instance: int
    slot: int
    ciphertext: Ciphertext
    proof: ThresholdSignature
    TAG = 4

    def encode_body(self) -> bytes:
        return _u16(self.slot) + _enc_ciphertext(self.ciphertext) + self.proof.sig_bytes


@dataclass(frozen=True)
class Suggestion:
    instance: int
    slot: int
    ciphertext: Ciphertext
    proof: ThresholdSignature
    relayer: int
    TAG = 5

    def encode_body(self) -> bytes:
        return (
            _u16(self.slot)
            + _enc_ciphertext(self.ciphertext)
            + self.proof.sig_bytes
            + _u16(self.relayer)
        )


@dataclass(frozen=True)
class VMsg:
    """Per-slot 1-bit claim.  The (ciphertext, proof) pair is optional wire
    baggage: honest parties send bare claims (pairs travel via the proposal
    and suggestion multicasts), but a claim that does attach a pair is
    verified and adopted like any other carrier."""

    instance: int
    slot: int
    u: int
    ciphertext: Optional[Ciphertext] = None
    proof: Optional[ThresholdSignature] = None
    TAG = 6

    def encode_body(self) -> bytes:
        carried = self.ciphertext is not None and self.proof is not None
        out = _u16(self.slot) + struct.pack(">BB", self.u, 1 if carried else 0)
        if carried:
            out += _enc_ciphertext(self.ciphertext) + self.proof.sig_bytes
        return out


@dataclass(frozen=True)
class AbbaPreprocess:
    instance: int
    slot: int
    bit: int
    share: SignatureShare
    TAG = 7

    def encode_body(self) -> bytes:
        return _u16(self.slot) + struct.pack(">B", self.bit) + self.share.share_bytes


@dataclass(frozen=True)
class AbbaPrevote:
    instance: int
    slot: int
    round: int
    bit: int
    justification: Justification
    share: SignatureShare
    TAG = 8

    def encode_body(self) -> bytes:
        return (
            _u16(self.slot)
            + _u16(self.round)
            + struct.pack(">B", self.bit)
            + _enc_just(self.justification)
            + self.share.share_bytes
        )


@dataclass(frozen=True)
class AbbaMainvote:
    instance: int
    slot: int
    round: int
    value: int  # 0, 1 or ABSTAIN
    justification: Justification
    share: SignatureShare
    TAG = 9

    def encode_body(self) -> bytes:
        return (
            _u16(self.slot)
            + _u16(self.round)
            + struct.pack(">B", self.value)
            + _enc_just(self.justification)
            + self.share.share_bytes
        )


@dataclass(frozen=True)
class AbbaCoinShare:
    instance: int
    slot: int
    round: int
    share: CoinShare
    TAG = 10

    def encode_body(self) -> bytes:
        return _u16(self.slot) + _u16(self.round) + self.share.share_bytes


@dataclass(frozen=True)
class AbbaDecision:
    instance: int
    slot: int
    round: int
    bit: int
    sig: ThresholdSignature
    TAG = 11

    def encode_body(self) -> bytes:
        return _u16(self.slot) + _u16(self.round) + struct.pack(">B", self.bit) + self.sig.sig_bytes


@dataclass(frozen=True)
class Recover:
    instance: int
    slot: int
    TAG = 12

    def encode_body(self) -> bytes:
        return _u16(self.slot)


@dataclass(frozen=True)
class RecoverResp:
    instance: int
    slot: int
    ciphertext: Ciphertext
    proof: ThresholdSignature
    TAG = 13

    def encode_body(self) -> bytes:
        return _u16(self.slot) + _enc_ciphertext(self.ciphertext) + self.proof.sig_bytes


@dataclass(frozen=True)
class DecShare:
    instance: int
    slot: int
    share: DecryptionShare
    TAG = 14

    def encode_body(self) -> bytes:
        return _u16(self.slot) + self.share.share_bytes


Message = Union[
    CsShare,
    PpbPayload,
    PpbShare,
    Proposal,
    Suggestion,
    VMsg,
    AbbaPreprocess,
    AbbaPrevote,
    AbbaMainvote,
    AbbaCoinShare,
    AbbaDecision,
    Recover,
    RecoverResp,
    DecShare,
]


@dataclass(slots=True)
class Envelope:
    """One delivery unit: all messages one party sent one peer in one step."""

    sender: int
    instance: int
    entries: tuple
    dst: int = BROADCAST  # transport metadata; not part of the wire bytes
    _size: Optional[int] = field(default=None, repr=False, compare=False)

    def encode(self) -> bytes:
        body = b"".join(
            struct.pack(">B", m.TAG) + _blob(m.encode_body()) for m in self.entries
        )
        return _u16(self.sender) + _u64(self.instance) + _u16(len(self.entries)) + body

    def size(self) -> int:
        """len(self.encode()), without building the bytes."""
        if self._size is None:
            self._size = entries_size(self.entries)
        return self._size


def entries_size(entries) -> int:
    """Wire size of an envelope carrying `entries`, without encoding them."""
    return ENVELOPE_HEADER + sum(ENTRY_HEADER + _body_len(m) for m in entries)
