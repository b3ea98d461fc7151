"""Wire messages and their binary encoding.

`WIRE` lists each message kind's wire fields in order, with their wire types,
and `JUSTIFICATION_WIRE` each justification kind's; the one `encode_body`
walks them, so every message has exactly one byte representation.  The bytes
hold every field but the instance (the envelope header carries it), a share's
signer or holder (the envelope sender) and the share signer of each pre-vote
a conflict main-vote embeds (ROADMAP item 1); `test_off_wire_fields_pinned`
in `tests/test_messages.py` pins that list.  A V-claim is its slot and bit
alone: the bit is the paper's claim, though no receiver reads it (a receiver
counts claims, and its own input is whether it holds the pair).

Every integer in a body (slot, round, a pre-process signer, a length, a
plaintext length) is a `VARINT`: canonical unsigned LEB128, seven bits a
byte, low group first, so a value below 128 takes one byte.  Only the
envelope's headers keep fixed widths: `HEADER`, and per entry a tag byte and
a 4-byte body length (`ENTRY`).

`WIDTH` gives each wire type's width, a number or a function of the value,
and `body_size` walks the same tables with each kind's fixed widths summed
once, so an envelope is sized without being encoded.

Each message kind and `Justification` is a `crypto.Record`: an immutable
named tuple that equals only a message of its own kind.  Messages one party
emits to one destination during a single handling step travel in a single
envelope, which waits in the simulator's queue as itself; metrics count
envelopes.
"""
from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .crypto import Ciphertext, record

BROADCAST = -1

ABSTAIN = 2  # main-vote value alongside bits 0 and 1

# justification kinds
JUST_NONE = 0
JUST_PREPROCESS_ONE = 1  # one pre-process-for-1 signature share
JUST_PREPROCESS_ZERO = 2  # threshold signature over pre-process-for-0
JUST_PREVOTE_THRESHOLD = 3  # threshold signature over prior-round pre-vote
JUST_ABSTAIN_THRESHOLD = 4  # threshold signature over prior-round abstain
JUST_CONFLICT = 5  # two embedded justified pre-votes (bits 0 and 1)


class Justification(record("kind signer share sig prevote_zero prevote_one", (None,) * 5)):
    """A vote's justification; `signer` is the pre-process signer of
    JUST_PREPROCESS_ONE, and only the fields its kind's wire names are set."""

    __slots__ = ()


HEADER = struct.Struct(">HQH")  # envelope: sender, instance, entry count
ENVELOPE_HEADER = HEADER.size
ENTRY = struct.Struct(">BI")  # each entry: tag, body length
ENTRY_HEADER = ENTRY.size


def _pack_fields(obj, wire) -> bytes:
    return b"".join([pack(getattr(obj, name)) for name, pack in wire])


# Wire types: each packs the value of one field.
U8 = struct.Struct(">B").pack
SHARE = operator.attrgetter("share_bytes")  # the tag alone; the signer is not on the wire
SIG = operator.attrgetter("sig_bytes")


def VARINT(v: int) -> bytes:
    """`v` as canonical unsigned LEB128; struct.error, as `U8` raises, for a
    negative or non-integer value."""
    if not isinstance(v, int) or v < 0:
        raise struct.error(f"varint of {v!r}")
    out = bytearray()
    while v > 0x7F:
        out.append(v & 0x7F | 0x80)
        v >>= 7
    out.append(v)
    return bytes(out)


def varint_width(v: int) -> int:
    return 1 if v < 0x80 else (v.bit_length() + 6) // 7


def read_varint(data: bytes, off: int) -> Tuple[int, int]:
    """(value, offset after it) of the varint at `data[off:]`; ValueError if
    it is truncated or not the shortest encoding of its value."""
    value = shift = 0
    while True:
        if off >= len(data):
            raise ValueError("truncated varint")
        b = data[off]
        off += 1
        value |= (b & 0x7F) << shift
        if b < 0x80:
            if b == 0 and shift:
                raise ValueError("overlong varint")
            return value, off
        shift += 7


def _blob(b: bytes) -> bytes:
    return VARINT(len(b)) + b


def _blob_width(size: int) -> int:
    return varint_width(size) + size


def CIPHERTEXT(c: Ciphertext) -> bytes:
    return _blob(c.payload) + VARINT(c.length_plain)


def JUSTIFICATION(j: Justification) -> bytes:
    return U8(j.kind) + _pack_fields(j, JUSTIFICATION_WIRE[j.kind])


def PREVOTE(pv: "AbbaPrevote") -> bytes:  # embedded, so its share signer is off the wire
    return _blob(pv.encode_body())


class _Message:
    """A message kind: its body is the fields `WIRE` lists for it.  Each kind
    also subclasses `record(...)` for its fields; TAG and `slot`, where not a
    field, are class attributes."""

    __slots__ = ()

    def encode_body(self) -> bytes:
        return _pack_fields(self, WIRE[type(self)])


class CsShare(_Message, record("instance share")):
    """Committee-selection coin share."""

    __slots__ = ()
    TAG = 1
    slot = None


class PpbPayload(_Message, record("instance slot ciphertext")):
    """Committee member's ciphertext broadcast; slot doubles as sender."""

    __slots__ = ()
    TAG = 2


class PpbShare(_Message, record("instance slot share")):
    """Countersignature over a committee member's payload digest."""

    __slots__ = ()
    TAG = 3


class Proposal(_Message, record("instance slot ciphertext proof")):
    __slots__ = ()
    TAG = 4


class Suggestion(_Message, record("instance slot ciphertext proof")):
    """A relayed pair; the relayer is the envelope sender."""

    __slots__ = ()
    TAG = 5


class VMsg(_Message, record("instance slot u")):
    """Per-slot 1-bit claim, always bare: pairs travel in the proposal,
    suggestion and recovery messages."""

    __slots__ = ()
    TAG = 6


class AbbaPreprocess(_Message, record("instance slot bit share")):
    __slots__ = ()
    TAG = 7


class AbbaPrevote(_Message, record("instance slot round bit justification share")):
    __slots__ = ()
    TAG = 8


class AbbaMainvote(_Message, record("instance slot round value justification share")):
    """A main-vote for `value`: 0, 1 or ABSTAIN."""

    __slots__ = ()
    TAG = 9


class AbbaCoinShare(_Message, record("instance slot round share")):
    __slots__ = ()
    TAG = 10


class AbbaDecision(_Message, record("instance slot round bit sig")):
    __slots__ = ()
    TAG = 11


class Recover(_Message, record("instance slot")):
    __slots__ = ()
    TAG = 12


class RecoverResp(_Message, record("instance slot ciphertext proof")):
    __slots__ = ()
    TAG = 13


class DecShare(_Message, record("instance slot share")):
    __slots__ = ()
    TAG = 14


def carries_pair(m) -> bool:
    """Whether entry `m` carries a slot's (ciphertext, proof) pair."""
    return isinstance(m, (Proposal, Suggestion, RecoverResp))


# The format: each kind's wire fields in order, as (field, wire type).
_SLOT, _ROUND = ("slot", VARINT), ("round", VARINT)
_PAIR = (("ciphertext", CIPHERTEXT), ("proof", SIG))
WIRE = {
    CsShare: (("share", SHARE),),
    PpbPayload: (_SLOT, ("ciphertext", CIPHERTEXT)),
    PpbShare: (_SLOT, ("share", SHARE)),
    Proposal: (_SLOT, *_PAIR),
    Suggestion: (_SLOT, *_PAIR),
    VMsg: (_SLOT, ("u", U8)),
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
    JUST_PREPROCESS_ONE: (("signer", VARINT), ("share", SHARE)),
    JUST_PREPROCESS_ZERO: (("sig", SIG),),
    JUST_PREVOTE_THRESHOLD: (("sig", SIG),),
    JUST_ABSTAIN_THRESHOLD: (("sig", SIG),),
    JUST_CONFLICT: (("prevote_zero", PREVOTE), ("prevote_one", PREVOTE)),
}

Message = Union[tuple(WIRE)]  # any message kind

# Each wire type's width in bytes: a number for a fixed width, else a function
# of the value, which is what the type packs.
WIDTH = {
    U8: 1,
    VARINT: varint_width,
    SHARE: lambda share: len(share.share_bytes),
    SIG: lambda sig: len(sig.sig_bytes),
    CIPHERTEXT: lambda c: _blob_width(len(c.payload)) + varint_width(c.length_plain),
    JUSTIFICATION: lambda j: 1 + _walk_size(j, _JUSTIFICATION_SIZES[j.kind]),
    PREVOTE: lambda pv: _blob_width(body_size(pv)),
}


def _fold(wire) -> tuple:
    """A field table as (the sum of its fixed widths, (field, width function)
    of each other field)."""
    fixed = sum(WIDTH[t] for _, t in wire if type(WIDTH[t]) is int)
    return fixed, tuple((name, WIDTH[t]) for name, t in wire if type(WIDTH[t]) is not int)


def _walk_size(obj, folded) -> int:
    fixed, variable = folded
    for name, width in variable:
        fixed += width(getattr(obj, name))
    return fixed


_BODY_SIZES = {kind: _fold(wire) for kind, wire in WIRE.items()}
_JUSTIFICATION_SIZES = {kind: _fold(wire) for kind, wire in JUSTIFICATION_WIRE.items()}


def body_size(m) -> int:
    """len(m.encode_body()), from the widths of the fields `WIRE` lists."""
    return _walk_size(m, _BODY_SIZES[type(m)])


@dataclass(slots=True)
class Envelope:
    """One delivery unit: all messages one party sent one peer in one step.
    It waits in the simulator's queue as itself: the last three fields are
    the queue's bookkeeping (the step it was queued at, how often a policy
    deferred it, and whether it touches a targeting policy's target, once
    the policy has looked)."""

    sender: int
    instance: int
    entries: tuple
    dst: int = BROADCAST  # transport metadata; not part of the wire bytes
    _size: Optional[int] = field(default=None, repr=False, compare=False)
    enqueued: int = field(default=0, repr=False, compare=False)
    deferrals: int = field(default=0, repr=False, compare=False)
    targeted: Optional[bool] = field(default=None, repr=False, compare=False)

    def encode(self) -> bytes:
        out = [HEADER.pack(self.sender, self.instance, len(self.entries))]
        for m in self.entries:
            body = m.encode_body()
            out += (ENTRY.pack(m.TAG, len(body)), body)
        return b"".join(out)

    def size(self) -> int:
        """len(self.encode()), computed once, from the entries' field widths."""
        if self._size is None:
            self._size = entries_size(self.entries)
        return self._size


def entries_size(entries) -> int:
    """Wire size of an envelope carrying `entries`: the headers and each
    entry's body, sized without encoding it."""
    size = ENVELOPE_HEADER + ENTRY_HEADER * len(entries)
    for m in entries:
        size += body_size(m)
    return size
