"""Wire messages and their binary encoding and decoding.

`WIRE` lists each message kind's wire fields in order, with their wire types,
and `JUSTIFICATION_WIRE` each justification kind's.  The one `encode_body`
walks them and `decode` walks them back, so every message has exactly one
byte representation and reads back as itself.  The bytes hold every field
but these, which `decode` restores:

* the instance, from the envelope header;
* the signer or holder of a message's own share: the envelope sender;
* the share signer of a pre-process-one justification: its `signer`;
* the instance, slot, round and bit of each pre-vote a conflict
  justification embeds: the first three are the carrying vote's, and the
  bit is the pre-vote's place (`prevote_zero` 0, `prevote_one` 1).

`test_off_wire_fields_pinned` in `tests/test_messages.py` pins that list.  A
V-claim is its slot and bit alone: the bit is the paper's claim, though no
receiver reads it (a receiver counts claims, and its own input is whether it
holds the pair).

Every integer in a body (slot, a vote head, a signer, a length, a plaintext
length) is a `VARINT`: canonical unsigned LEB128, seven bits a byte, low
group first, so a value below 128 takes one byte.  Two heads pack a vote's
small fields into one varint:

* a pre-vote or main-vote's `VOTE` head is `round << 5 | value << 3 | kind`:
  the round, the bit or value (0, 1, or `ABSTAIN` for a main-vote) and the
  justification's kind, whose fields follow it.  Rounds 1-3 take one byte;
* a decision's `DECISION` head is `round << 1 | bit`, one byte to round 63.

An embedded pre-vote (`PREVOTE`) is its justification, a kind byte then the
kind's fields, and its share: the signer as a `VARINT`, then the tag.  Every
share and signature tag is `TAG_LEN` bytes.  Encoding raises struct.error for
what the wire cannot carry: a tag of another length, a head bit, value or
kind out of range, a negative integer.  Only the envelope's headers keep
fixed widths: `HEADER`, and per entry a tag byte and a 4-byte body length
(`ENTRY`).

A proposal's or suggestion's ciphertext is a `PAIR_CIPHERTEXT`: the payload's
length plus one, then the payload and the plaintext length, or one 0 byte for
a proof-only message, whose `ciphertext` is None.  A party sends one to each
peer known to hold the ciphertext: a proposal to the signers of its proof, a
suggestion to the slot's proposer and to the party it got the pair from.
`decode` reads it back with no ciphertext; the receiver fills it in from
what it holds, not `decode`.  A payload and a recovery answer always carry
theirs, as a `CIPHERTEXT`: the payload's length, the payload, the plaintext
length.

`WIDTH` gives each wire type's width, a number or a function of the value,
and `body_size` walks the same tables with each kind's fixed widths summed
once, so an envelope is sized without being encoded.  `READ` gives each
wire type's reader; `decode` (an envelope) and `decode_body` (one entry)
raise ValueError on bytes no encoding writes: truncated or trailing bytes,
an overlong varint, an unknown tag or justification kind, or a head with
value 3.

Each message kind and `Justification` is a `crypto.Record`: an immutable
named tuple that equals only a message of its own kind.  Messages one party
emits to one destination during a single handling step travel in a single
envelope, which waits in the simulator's queue as itself; metrics count
envelopes.
"""
from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .crypto import (
    TAG_LEN,
    Ciphertext,
    CoinShare,
    DecryptionShare,
    SignatureShare,
    ThresholdSignature,
    record,
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


class Justification(record("kind signer share sig prevote_zero prevote_one", (None,) * 5)):
    """A vote's justification; `signer` is the pre-process signer of
    JUST_PREPROCESS_ONE, and only the fields its kind's wire names are set."""

    __slots__ = ()


HEADER = struct.Struct(">HQH")  # envelope: sender, instance, entry count
ENVELOPE_HEADER = HEADER.size
ENTRY = struct.Struct(">BI")  # each entry: tag, body length
ENTRY_HEADER = ENTRY.size


def _getter(name):
    """The value a table entry packs: one field, or a tuple of several."""
    return operator.attrgetter(*name) if type(name) is tuple else operator.attrgetter(name)


def _packers(wire) -> tuple:
    return tuple((_getter(name), pack) for name, pack in wire)


def _pack_fields(obj, packers) -> bytes:
    return b"".join([pack(get(obj)) for get, pack in packers])


# Wire types: each packs the value of one table entry.
U8 = struct.Struct(">B").pack


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


def _tag(b: bytes) -> bytes:
    if len(b) != TAG_LEN:
        raise struct.error(f"a {len(b)}-byte tag; the wire carries {TAG_LEN}")
    return b


# A share or signature travels as its tag alone, `TAG_LEN` bytes wide; its
# reader restores a share's signer or holder.  `_TAG_READERS` gives each
# such wire type's reader.
_TAG_READERS = {}


def _tag_type(kind, holder=None):
    """The wire type of a `kind` record as its tag (its last field) alone; the
    reader rebuilds it with `holder(ctx)` as its signer or holder."""
    tag_of = operator.attrgetter(kind._fields[-1])

    def pack(x) -> bytes:
        return _tag(tag_of(x))

    def read(data, off, ctx, name):
        tag, off = _read_bytes(data, off, TAG_LEN)
        return (kind(tag) if holder is None else kind(holder(ctx), tag)), off

    _TAG_READERS[pack] = read
    return pack


SHARE = _tag_type(SignatureShare, lambda ctx: ctx.get("signer", ctx["sender"]))
COIN_SHARE = _tag_type(CoinShare, lambda ctx: ctx["sender"])
DEC_SHARE = _tag_type(DecryptionShare, lambda ctx: ctx["sender"])
SIG = _tag_type(ThresholdSignature)


def SIGNED_SHARE(share: SignatureShare) -> bytes:
    """An embedded pre-vote's share, whose signer no envelope field names."""
    return VARINT(share.signer) + _tag(share.share_bytes)


def _blob(b: bytes) -> bytes:
    return VARINT(len(b)) + b


def _blob_width(size: int) -> int:
    return varint_width(size) + size


def CIPHERTEXT(c: Ciphertext) -> bytes:
    return _blob(c.payload) + VARINT(c.length_plain)


def PAIR_CIPHERTEXT(c: Optional[Ciphertext]) -> bytes:
    """A pair message's ciphertext, or None for a proof-only one: the
    payload's length plus one as a `VARINT` (0 for None), then the payload
    and the plaintext length."""
    if c is None:
        return b"\x00"
    return VARINT(len(c.payload) + 1) + c.payload + VARINT(c.length_plain)


def VOTE(fields: tuple) -> bytes:
    """A vote's (round, bit or value, justification): the head, then the
    justification's fields."""
    r, value, j = fields
    if value not in (0, 1, ABSTAIN) or j.kind not in JUSTIFICATION_WIRE:
        raise struct.error(f"a vote head cannot carry value {value!r}, kind {j.kind!r}")
    return VARINT(r << 5 | value << 3 | j.kind) + _pack_fields(j, _JUSTIFICATION_PACKERS[j.kind])


def DECISION(fields: tuple) -> bytes:
    """A decision's (round, bit) as one head."""
    r, bit = fields
    if bit not in (0, 1):
        raise struct.error(f"a decision head cannot carry bit {bit!r}")
    return VARINT(r << 1 | bit)


def JUSTIFICATION(j: Justification) -> bytes:
    """An embedded pre-vote's justification: its kind byte, then its fields."""
    if j.kind not in JUSTIFICATION_WIRE:
        raise struct.error(f"justification kind {j.kind!r}")
    return U8(j.kind) + _pack_fields(j, _JUSTIFICATION_PACKERS[j.kind])


def PREVOTE(pv: "AbbaPrevote") -> bytes:
    return _pack_fields(pv, _EMBEDDED_PREVOTE_PACKERS)


class _Message:
    """A message kind: its body is the fields `WIRE` lists for it.  Each kind
    also subclasses `record(...)` for its fields; TAG and `slot`, where not a
    field, are class attributes."""

    __slots__ = ()

    def encode_body(self) -> bytes:
        return _pack_fields(self, _BODY_PACKERS[type(self)])


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
    """Whether entry `m` carries a slot's (ciphertext, proof) pair, or its
    proof alone to a party that holds the ciphertext."""
    return isinstance(m, (Proposal, Suggestion, RecoverResp))


# The format: each kind's wire fields in order, as (field, wire type); a head
# packs a tuple of fields.
_SLOT = ("slot", VARINT)
_PAIR = (("ciphertext", PAIR_CIPHERTEXT), ("proof", SIG))
WIRE = {
    CsShare: (("share", COIN_SHARE),),
    PpbPayload: (_SLOT, ("ciphertext", CIPHERTEXT)),
    PpbShare: (_SLOT, ("share", SHARE)),
    Proposal: (_SLOT, *_PAIR),
    Suggestion: (_SLOT, *_PAIR),
    VMsg: (_SLOT, ("u", U8)),
    AbbaPreprocess: (_SLOT, ("bit", U8), ("share", SHARE)),
    AbbaPrevote: (_SLOT, (("round", "bit", "justification"), VOTE), ("share", SHARE)),
    AbbaMainvote: (_SLOT, (("round", "value", "justification"), VOTE), ("share", SHARE)),
    AbbaCoinShare: (_SLOT, ("round", VARINT), ("share", COIN_SHARE)),
    AbbaDecision: (_SLOT, (("round", "bit"), DECISION), ("sig", SIG)),
    Recover: (_SLOT,),
    RecoverResp: (_SLOT, ("ciphertext", CIPHERTEXT), ("proof", SIG)),
    DecShare: (_SLOT, ("share", DEC_SHARE)),
}
JUSTIFICATION_WIRE = {  # after the kind, which a vote head or a kind byte holds
    JUST_NONE: (),
    JUST_PREPROCESS_ONE: (("signer", VARINT), ("share", SHARE)),
    JUST_PREPROCESS_ZERO: (("sig", SIG),),
    JUST_PREVOTE_THRESHOLD: (("sig", SIG),),
    JUST_ABSTAIN_THRESHOLD: (("sig", SIG),),
    JUST_CONFLICT: (("prevote_zero", PREVOTE), ("prevote_one", PREVOTE)),
}
EMBEDDED_PREVOTE_WIRE = (("justification", JUSTIFICATION), ("share", SIGNED_SHARE))

Message = Union[tuple(WIRE)]  # any message kind

_BODY_PACKERS = {kind: _packers(wire) for kind, wire in WIRE.items()}
_JUSTIFICATION_PACKERS = {kind: _packers(wire) for kind, wire in JUSTIFICATION_WIRE.items()}
_EMBEDDED_PREVOTE_PACKERS = _packers(EMBEDDED_PREVOTE_WIRE)

# Each wire type's width in bytes: a number for a fixed width, else a function
# of the value, which is what the type packs.  A vote head's value and kind
# take its low five bits, so only its round decides whether it fits one byte.
WIDTH = {
    U8: 1,
    VARINT: varint_width,
    **dict.fromkeys(_TAG_READERS, TAG_LEN),
    SIGNED_SHARE: lambda share: varint_width(share.signer) + TAG_LEN,
    CIPHERTEXT: lambda c: _blob_width(len(c.payload)) + varint_width(c.length_plain),
    PAIR_CIPHERTEXT: lambda c: 1 if c is None else (
        varint_width(len(c.payload) + 1) + len(c.payload) + varint_width(c.length_plain)),
    VOTE: lambda v: ((1 if v[0] < 4 else varint_width(v[0] << 5))
                     + _walk_size(v[2], _JUSTIFICATION_SIZES[v[2].kind])),
    DECISION: lambda d: 1 if d[0] < 64 else varint_width(d[0] << 1),
    JUSTIFICATION: lambda j: 1 + _walk_size(j, _JUSTIFICATION_SIZES[j.kind]),
    PREVOTE: lambda pv: _walk_size(pv, _EMBEDDED_PREVOTE_SIZES),
}


def _fold(wire) -> tuple:
    """A field table as (the sum of its fixed widths, (getter, width
    function) of each other entry)."""
    fixed = sum(WIDTH[t] for _, t in wire if type(WIDTH[t]) is int)
    return fixed, tuple((_getter(name), WIDTH[t]) for name, t in wire
                        if type(WIDTH[t]) is not int)


def _walk_size(obj, folded) -> int:
    fixed, variable = folded
    for get, width in variable:
        fixed += width(get(obj))
    return fixed


_BODY_SIZES = {kind: _fold(wire) for kind, wire in WIRE.items()}
_JUSTIFICATION_SIZES = {kind: _fold(wire) for kind, wire in JUSTIFICATION_WIRE.items()}
_EMBEDDED_PREVOTE_SIZES = _fold(EMBEDDED_PREVOTE_WIRE)


def body_size(m) -> int:
    """len(m.encode_body()), from the widths of the fields `WIRE` lists."""
    return _walk_size(m, _BODY_SIZES[type(m)])


# -- decoding ------------------------------------------------------------------
#
# `READ` gives each wire type's reader, read(data, off, ctx, name) -> (value,
# offset after it), which raises ValueError on bytes the type's packer never
# writes.  `ctx` holds the envelope's sender and instance and every field read
# so far at this level and the levels that hold it; `name` is the entry's
# field.  A share's signer is the `signer` read before it at its level, else
# the envelope sender; a coin or decryption share's holder is the sender.


def _read_bytes(data: bytes, off: int, size: int) -> Tuple[bytes, int]:
    end = off + size
    if end > len(data):
        raise ValueError("truncated field")
    return data[off:end], end


def _read_u8(data, off, ctx, name):
    if off >= len(data):
        raise ValueError("truncated field")
    return data[off], off + 1


def _read_varint(data, off, ctx, name):
    return read_varint(data, off)


def _read_signed_share(data, off, ctx, name):
    signer, off = read_varint(data, off)
    tag, off = _read_bytes(data, off, TAG_LEN)
    return SignatureShare(signer, tag), off


def _read_payload(size, data, off):
    """The ciphertext whose `size`-byte payload starts at data[off:]."""
    payload, off = _read_bytes(data, off, size)
    length_plain, off = read_varint(data, off)
    return Ciphertext(payload, length_plain), off


def _read_ciphertext(data, off, ctx, name):
    size, off = read_varint(data, off)
    return _read_payload(size, data, off)


def _read_pair_ciphertext(data, off, ctx, name):
    size, off = read_varint(data, off)
    return (None, off) if size == 0 else _read_payload(size - 1, data, off)


def _read_justification_fields(kind, data, off, ctx):
    if kind not in JUSTIFICATION_WIRE:
        raise ValueError(f"unknown justification kind {kind}")
    values, off = _read_fields(JUSTIFICATION_WIRE[kind], data, off, ctx)
    return Justification(kind, **values), off


def _read_vote(data, off, ctx, name):
    head, off = read_varint(data, off)
    r, value = head >> 5, head >> 3 & 3
    if value > ABSTAIN:
        raise ValueError(f"vote head with value {value}")
    j, off = _read_justification_fields(head & 7, data, off, {**ctx, "round": r})
    return (r, value, j), off


def _read_decision(data, off, ctx, name):
    head, off = read_varint(data, off)
    return (head >> 1, head & 1), off


def _read_justification(data, off, ctx, name):
    kind, off = _read_u8(data, off, ctx, name)
    return _read_justification_fields(kind, data, off, ctx)


_PLACE_BIT = {"prevote_zero": 0, "prevote_one": 1}


def _read_prevote(data, off, ctx, name):
    values, off = _read_fields(EMBEDDED_PREVOTE_WIRE, data, off, ctx)
    return AbbaPrevote(ctx["instance"], ctx["slot"], ctx["round"], _PLACE_BIT[name],
                       **values), off


READ = {
    U8: _read_u8,
    VARINT: _read_varint,
    **_TAG_READERS,
    SIGNED_SHARE: _read_signed_share,
    CIPHERTEXT: _read_ciphertext,
    PAIR_CIPHERTEXT: _read_pair_ciphertext,
    VOTE: _read_vote,
    DECISION: _read_decision,
    JUSTIFICATION: _read_justification,
    PREVOTE: _read_prevote,
}


def _read_fields(wire, data: bytes, off: int, outer: dict) -> Tuple[dict, int]:
    """The fields `wire` lists, read from data[off:], and the offset after
    them; each reader sees `outer` and the fields read before its own."""
    ctx, values = dict(outer), {}
    for name, t in wire:
        value, off = READ[t](data, off, ctx, name)
        if type(name) is tuple:
            values.update(zip(name, value))
        else:
            values[name] = value
        ctx.update(values)
    return values, off


KINDS = {kind.TAG: kind for kind in WIRE}


def decode_body(tag: int, sender: int, instance: int, body: bytes):
    """The message of kind `tag` whose body is `body`, sent by `sender` in
    `instance`; ValueError if `body` is not exactly one such body."""
    kind = KINDS.get(tag)
    if kind is None:
        raise ValueError(f"unknown tag {tag}")
    values, off = _read_fields(WIRE[kind], body, 0, {"sender": sender, "instance": instance})
    if off != len(body):
        raise ValueError("trailing bytes after the body")
    return kind(instance=instance, **values)


def decode(data: bytes) -> "Envelope":
    """The envelope `data` encodes, addressed to no one in particular (the
    destination is not on the wire); ValueError if `data` is not exactly
    one envelope."""
    if len(data) < ENVELOPE_HEADER:
        raise ValueError("truncated envelope header")
    sender, instance, count = HEADER.unpack_from(data)
    off, entries = ENVELOPE_HEADER, []
    for _ in range(count):
        if off + ENTRY_HEADER > len(data):
            raise ValueError("truncated entry header")
        tag, length = ENTRY.unpack_from(data, off)
        body, off = _read_bytes(data, off + ENTRY_HEADER, length)
        entries.append(decode_body(tag, sender, instance, body))
    if off != len(data):
        raise ValueError("trailing bytes after the envelope")
    return Envelope(sender, instance, tuple(entries))


@dataclass(init=False)
class Envelope:
    """One delivery unit: all messages one party sent one peer in one step.
    It waits in the simulator's queue as itself.  Equality is on the four
    fields below; the class attributes after them are per-envelope
    bookkeeping that a new envelope reads from the class until first
    written: its wire size once computed, and the queue's (the step it was
    queued at, how often a policy deferred it, and whether it touches a
    targeting policy's target, once the policy has looked)."""

    sender: int
    instance: int
    entries: tuple
    dst: int  # transport metadata; not part of the wire bytes

    _size = None
    enqueued = 0
    deferrals = 0
    targeted = None

    def __init__(self, sender: int, instance: int, entries: tuple, dst: int = BROADCAST,
                 size: Optional[int] = None):
        """`size`, when given, is `len(self.encode())`, computed by the sender."""
        self.sender = sender
        self.instance = instance
        self.entries = entries
        self.dst = dst
        if size is not None:
            self._size = size

    @classmethod
    def fanout(cls, sender: int, instance: int, entries: tuple, dsts: Tuple[int, ...],
               size: Optional[int] = None) -> list:
        """One envelope per destination in `dsts`, all sharing `entries` and
        `size`, each built as the constructor builds it, without a call to
        `__init__` per envelope: a broadcast step sends n-1 of them."""
        new = object.__new__
        envs = []
        for dst in dsts:
            env = new(cls)
            env.sender = sender
            env.instance = instance
            env.entries = entries
            env.dst = dst
            if size is not None:
                env._size = size
            envs.append(env)
        return envs

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
