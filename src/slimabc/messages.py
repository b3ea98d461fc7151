"""Wire messages and their binary encoding.

`WIRE` lists each message kind's wire fields in order, with their wire types,
and `JUSTIFICATION_WIRE` each justification kind's; the one `encode_body`
walks them, so every message has exactly one byte representation.  The bytes
hold every field but the instance (the envelope header carries it), a share's
signer or holder (the envelope sender) and the share signer of each pre-vote
a conflict main-vote embeds (ROADMAP item 1); `test_off_wire_fields_pinned`
in `tests/test_messages.py` pins that list.  Messages one party emits to one
destination during a single handling step travel in a single envelope;
metrics count envelopes.
"""
from __future__ import annotations

import operator
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
    signer: Optional[int] = None  # the pre-process signer, of JUST_PREPROCESS_ONE
    share: Optional[SignatureShare] = None
    sig: Optional[ThresholdSignature] = None
    prevote_zero: Optional["AbbaPrevote"] = None
    prevote_one: Optional["AbbaPrevote"] = None


HEADER = struct.Struct(">HQH")  # envelope: sender, instance, entry count
ENVELOPE_HEADER = HEADER.size
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


def _fields(obj, wire) -> bytes:
    return b"".join([pack(getattr(obj, name)) for name, pack in wire])


# Wire types: each packs the value of one field.
U8, U16, _U32 = (struct.Struct(">" + c).pack for c in "BHI")
SHARE = operator.attrgetter("share_bytes")  # the tag alone; the signer is not on the wire
SIG = operator.attrgetter("sig_bytes")


def _blob(b: bytes) -> bytes:
    return _U32(len(b)) + b


def LEN_SHARE(share) -> bytes:
    return _blob(share.share_bytes)


def CIPHERTEXT(c: Ciphertext) -> bytes:
    return _blob(c.payload) + _U32(c.length_plain)


def JUSTIFICATION(j: Justification) -> bytes:
    return U8(j.kind) + _fields(j, JUSTIFICATION_WIRE[j.kind])


def PREVOTE(pv: "AbbaPrevote") -> bytes:  # embedded, so its share signer is off the wire
    return _blob(pv.encode_body())


def OPTIONAL_PAIR(pair) -> bytes:
    """A flag byte, then the (ciphertext, proof) pair if there is one."""
    return b"\x01" + CIPHERTEXT(pair[0]) + SIG(pair[1]) if pair else b"\x00"


class _Message:
    """A message kind: its body is the fields `WIRE` lists for it."""

    __slots__ = ()

    def encode_body(self) -> bytes:
        return _fields(self, WIRE[type(self)])


@dataclass(frozen=True)
class CsShare(_Message):
    """Committee-selection coin share."""

    instance: int
    share: CoinShare
    TAG = 1
    slot = None


@dataclass(frozen=True)
class PpbPayload(_Message):
    """Committee member's ciphertext broadcast; slot doubles as sender."""

    instance: int
    slot: int
    ciphertext: Ciphertext
    TAG = 2


@dataclass(frozen=True)
class PpbShare(_Message):
    """Countersignature over a committee member's payload digest."""

    instance: int
    slot: int
    share: SignatureShare
    TAG = 3


@dataclass(frozen=True)
class Proposal(_Message):
    instance: int
    slot: int
    ciphertext: Ciphertext
    proof: ThresholdSignature
    TAG = 4


@dataclass(frozen=True)
class Suggestion(_Message):
    instance: int
    slot: int
    ciphertext: Ciphertext
    proof: ThresholdSignature
    relayer: int
    TAG = 5


@dataclass(frozen=True)
class VMsg(_Message):
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

    @property
    def pair(self):  # (ciphertext, proof) if the claim carries both, else None
        carried = self.ciphertext is not None and self.proof is not None
        return (self.ciphertext, self.proof) if carried else None


@dataclass(frozen=True)
class AbbaPreprocess(_Message):
    instance: int
    slot: int
    bit: int
    share: SignatureShare
    TAG = 7


@dataclass(frozen=True)
class AbbaPrevote(_Message):
    instance: int
    slot: int
    round: int
    bit: int
    justification: Justification
    share: SignatureShare
    TAG = 8


@dataclass(frozen=True)
class AbbaMainvote(_Message):
    instance: int
    slot: int
    round: int
    value: int  # 0, 1 or ABSTAIN
    justification: Justification
    share: SignatureShare
    TAG = 9


@dataclass(frozen=True)
class AbbaCoinShare(_Message):
    instance: int
    slot: int
    round: int
    share: CoinShare
    TAG = 10


@dataclass(frozen=True)
class AbbaDecision(_Message):
    instance: int
    slot: int
    round: int
    bit: int
    sig: ThresholdSignature
    TAG = 11


@dataclass(frozen=True)
class Recover(_Message):
    instance: int
    slot: int
    TAG = 12


@dataclass(frozen=True)
class RecoverResp(_Message):
    instance: int
    slot: int
    ciphertext: Ciphertext
    proof: ThresholdSignature
    TAG = 13


@dataclass(frozen=True)
class DecShare(_Message):
    instance: int
    slot: int
    share: DecryptionShare
    TAG = 14


# The format: each kind's wire fields in order, as (field, wire type).
_SLOT, _ROUND = ("slot", U16), ("round", U16)
_PAIR = (("ciphertext", CIPHERTEXT), ("proof", SIG))
WIRE = {
    CsShare: (("share", LEN_SHARE),),
    PpbPayload: (_SLOT, ("ciphertext", CIPHERTEXT)),
    PpbShare: (_SLOT, ("share", SHARE)),
    Proposal: (_SLOT, *_PAIR),
    Suggestion: (_SLOT, *_PAIR, ("relayer", U16)),
    VMsg: (_SLOT, ("u", U8), ("pair", OPTIONAL_PAIR)),
    AbbaPreprocess: (_SLOT, ("bit", U8), ("share", SHARE)),
    AbbaPrevote: (_SLOT, _ROUND, ("bit", U8), ("justification", JUSTIFICATION), ("share", SHARE)),
    AbbaMainvote: (_SLOT, _ROUND, ("value", U8), ("justification", JUSTIFICATION),
                   ("share", SHARE)),
    AbbaCoinShare: (_SLOT, _ROUND, ("share", SHARE)),
    AbbaDecision: (_SLOT, _ROUND, ("bit", U8), ("sig", SIG)),
    Recover: (_SLOT,),
    RecoverResp: (_SLOT, *_PAIR),
    DecShare: (_SLOT, ("share", SHARE)),
}
JUSTIFICATION_WIRE = {  # after the kind byte
    JUST_NONE: (),
    JUST_PREPROCESS_ONE: (("signer", U16), ("share", SHARE)),
    JUST_PREPROCESS_ZERO: (("sig", SIG),),
    JUST_PREVOTE_THRESHOLD: (("sig", SIG),),
    JUST_ABSTAIN_THRESHOLD: (("sig", SIG),),
    JUST_CONFLICT: (("prevote_zero", PREVOTE), ("prevote_one", PREVOTE)),
}

Message = Union[tuple(WIRE)]  # any message kind


@dataclass(slots=True)
class Envelope:
    """One delivery unit: all messages one party sent one peer in one step."""

    sender: int
    instance: int
    entries: tuple
    dst: int = BROADCAST  # transport metadata; not part of the wire bytes
    _size: Optional[int] = field(default=None, repr=False, compare=False)

    def encode(self) -> bytes:
        out = [HEADER.pack(self.sender, self.instance, len(self.entries))]
        for m in self.entries:
            body = m.encode_body()
            out += (U8(m.TAG), _blob(body))
        return b"".join(out)

    def size(self) -> int:
        """len(self.encode()), without building the bytes."""
        if self._size is None:
            self._size = entries_size(self.entries)
        return self._size


def entries_size(entries) -> int:
    """Wire size of an envelope carrying `entries`, without encoding them."""
    return ENVELOPE_HEADER + sum(ENTRY_HEADER + _body_len(m) for m in entries)
