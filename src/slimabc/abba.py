"""Binary Byzantine agreement biased towards 1.

Every quorum here is the signing quorum `crypto.t_sig` (n-f, which is
2f+1 as n = 3f+1).  Round structure: a pre-process exchange (wait for a
quorum), then per round a justified pre-vote, a justified main-vote (a
quorum of pre-votes, unanimous bit or abstain), a decision check (a
quorum of identical non-abstain main-votes combine into a transferable
decision signature), and a common coin (a quorum of shares) feeding the
next round's pre-vote.

Justification discipline (what makes the bias and agreement stick):
  - pre-process for 1 is only accepted once a verified payload proof for
    the slot is known locally, so a 1 can never be conjured out of air;
  - round-1 pre-vote for 1 carries one valid pre-process-for-1 share,
    round-1 pre-vote for 0 carries a threshold signature combined from
    a quorum of pre-process-for-0 shares (impossible once f+1 honest parties
    input 1);
  - later pre-votes carry the prior round's pre-vote threshold
    signature, or the prior round's abstain threshold signature when the
    bit equals that round's coin;
  - a main-vote for b carries the round's pre-vote-b threshold
    signature; an abstain embeds two fully justified pre-votes, one per
    bit, so abstaining is impossible once only one bit is justifiable.

Both vote kinds go through one intake, as the justified agreement of
Cachin, Kursawe and Shoup (PODC 2000) gives them one accept rule: a vote
with an invalid justification is never counted toward any threshold, the
first from each sender per round is counted, and votes for rounds ahead of
the local machine are buffered, the first of each kind from each sender
only.

Every entry point appends what it emits to the caller's list `out`.  The
decision is emitted once, in `_decide`, which sets `decided` and then hands
the decision to the machine's owner (`owner.abba_decided(out)`), so the
owner's reply follows the decision in the same `out`.

What waits for the payload proof (pre-processes for 1 and votes justified
by one) waits in one buffer, `_ev_pending`, which the proof replays.

A decided machine holds a transferable decision signature and reads no
vote again, so where `decided` is set it frees its vote ledgers, coin
shares and parked rounds.  It keeps the entered rounds' signing strings,
which `on_decision` still reads, and `_ev_pending`: a late proof hands its
votes once more to the public handlers, which drop them, and skips its
pre-processes.  Signing strings are built once per (instance, slot) and
round entered, in a bounded cache shared by every machine of the process.
"""
from __future__ import annotations

import functools
import struct
from typing import Dict, Iterable, List, Optional, Tuple

from .crypto import CoinShare, PartyCrypto, ThresholdSignature
from .messages import (
    ABSTAIN,
    AbbaCoinShare,
    AbbaDecision,
    AbbaMainvote,
    AbbaPreprocess,
    AbbaPrevote,
    JUST_ABSTAIN_THRESHOLD,
    JUST_CONFLICT,
    JUST_PREPROCESS_ONE,
    JUST_PREPROCESS_ZERO,
    JUST_PREVOTE_THRESHOLD,
    Justification,
    Message,
)


class AlreadyInputError(Exception):
    pass


# The last round the signing strings can name (they pack it as ">H"): the
# handlers drop a vote, coin share or decision outside 1..ROUND_MAX unread.
ROUND_MAX = 0xFFFF


def preprocess_bytes(instance: int, slot: int, bit: int) -> bytes:
    return b"ABBA-PP" + struct.pack(">QHB", instance, slot, bit)


def prevote_bytes(instance: int, slot: int, round_: int, bit: int) -> bytes:
    return b"ABBA-PV" + struct.pack(">QHHB", instance, slot, round_, bit)


def mainvote_bytes(instance: int, slot: int, round_: int, value: int) -> bytes:
    return b"ABBA-MV" + struct.pack(">QHHB", instance, slot, round_, value)


def abba_coin_name(instance: int, slot: int, round_: int) -> bytes:
    return b"ABBA-COIN" + struct.pack(">QHH", instance, slot, round_)


# Entries the signing-string caches keep: the rounds that a run's machines
# enter close together, so one run's parties share each tuple.
STRINGS_CACHE_MAX = 256


@functools.lru_cache(maxsize=STRINGS_CACHE_MAX)
def preprocess_strings(instance: int, slot: int) -> Tuple[bytes, bytes]:
    """The slot's pre-process signing strings for bit 0 and bit 1."""
    return (preprocess_bytes(instance, slot, 0), preprocess_bytes(instance, slot, 1))


@functools.lru_cache(maxsize=STRINGS_CACHE_MAX)
def round_strings(instance: int, slot: int, r: int) -> Tuple[bytes, ...]:
    """Round r's signing strings: pre-vote 0 and 1, then main-vote 0, 1 and ABSTAIN.
    Call it only for a round a machine enters, never for a round off the wire."""
    return (
        prevote_bytes(instance, slot, r, 0),
        prevote_bytes(instance, slot, r, 1),
        mainvote_bytes(instance, slot, r, 0),
        mainvote_bytes(instance, slot, r, 1),
        mainvote_bytes(instance, slot, r, ABSTAIN),
    )


class AbbaMachine:
    def __init__(self, instance: int, slot: int, crypto: PartyCrypto, owner=None):
        self.instance = instance
        self.slot = slot
        self.crypto = crypto
        self.owner = owner  # told of the decision once, by _decide; None reports nothing
        self.quorum = crypto.t_sig

        self.input_given: Optional[int] = None
        self.evidence_known = False  # a verified payload proof for this slot exists locally
        self.round = 0  # 0 until a quorum of pre-process messages arrives

        # Signing strings: pre-process per bit; pre-vote per bit and main-vote
        # per value (0, 1, ABSTAIN) for round 1, whose votes are checked
        # before it is entered, and for each later round entered, so round
        # numbers from the wire never add entries.  Every vote counted is of
        # round 1 or of a round entered.
        self._pp_msgs = preprocess_strings(instance, slot)
        self._round_msgs: Dict[int, Tuple[bytes, ...]] = {1: round_strings(instance, slot, 1)}

        # Vote ledgers keep arrival order: the first quorum of a dict is the
        # quorum a threshold signature or a decision is built from.  They,
        # the coin shares and _future are freed once decided (_decide).
        self._pp: Dict[int, AbbaPreprocess] = {}
        self._prevotes: Dict[int, Dict[int, AbbaPrevote]] = {}
        self._mainvotes: Dict[int, Dict[int, AbbaMainvote]] = {}
        self._coin_shares: Dict[int, Dict[int, CoinShare]] = {}
        self.coins: Dict[int, int] = {}
        # Parked (sender, vote) pairs, the first per key in arrival order, so
        # copies from one sender take one entry: votes for rounds ahead, per
        # round, keyed by (kind, sender); votes awaiting the payload proof,
        # keyed by (kind, round, sender), a pre-process for 1 under round 0.
        self._future: Dict[int, Dict[Tuple[type, int], Tuple[int, Message]]] = {}
        self._ev_pending: Dict[Tuple[type, int, int], Tuple[int, Message]] = {}

        # Progress within the current round: 0 awaits a quorum of pre-votes, 1 has
        # sent the main-vote, 2 has checked for a decision and sent the coin share.
        self._stage = 0

        self.decided: Optional[Tuple[int, int, ThresholdSignature]] = None  # (bit, round, sig)

    # -- inputs ------------------------------------------------------------

    def input(self, bit: int, out: List[Message]) -> None:
        if self.input_given is not None:
            raise AlreadyInputError(f"slot {self.slot} already has input {self.input_given}")
        self.input_given = bit
        share = self.crypto.sig_share(self._pp_msgs[bit])
        out.append(AbbaPreprocess(self.instance, self.slot, bit, share))
        self._pump(out)

    def set_evidence_known(self, out: List[Message]) -> None:
        """Replay what waited for the payload proof; call it once."""
        self.evidence_known = True
        replay, self._ev_pending = self._ev_pending, {}
        self._replay(replay.values(), out)
        self._pump(out)

    # -- handlers ------------------------------------------------------------

    def on_preprocess(self, sender: int, msg: AbbaPreprocess, out: List[Message]) -> None:
        if self.decided or sender in self._pp or msg.bit not in (0, 1):
            return
        if not self.crypto.verify_share(self._pp_msgs[msg.bit], sender, msg.share):
            return
        if msg.bit == 1 and not self.evidence_known:
            self._ev_pending.setdefault((AbbaPreprocess, 0, sender), (sender, msg))
            return
        pp = self._pp
        pp[sender] = msg
        # Pre-process votes only move the machine out of round 0.
        if self.round == 0 and len(pp) >= self.quorum:
            self._pump(out)

    # A justified vote is counted in its round's ledger.  Only the current
    # stage's quorum can move the machine (pre-votes end stage 0, main-votes
    # stage 1); every other vote waits in the ledger for the _pump that
    # reaches its stage.  Votes for a round not entered yet are parked, except
    # round 1's, which are verifiable before entry.

    def on_prevote(self, sender: int, msg: AbbaPrevote | AbbaMainvote,
                   out: List[Message]) -> None:
        """The one intake of both vote kinds (`on_mainvote` is this function):
        a vote of a well-formed value is counted in its kind's ledger, the
        first per sender and round, once its validator accepts it; a quorum
        in the current round ends the kind's stage (0 or 1)."""
        kind = type(msg)
        if kind is AbbaPrevote:
            if msg.bit not in (0, 1):
                return
            ledgers, stage = self._prevotes, 0
        elif msg.value in (0, 1, ABSTAIN):
            ledgers, stage = self._mainvotes, 1
        else:
            return
        r = msg.round
        if self.decided or not 1 <= r <= ROUND_MAX:
            return
        if r > self.round and r > 1:
            self._future.setdefault(r, {}).setdefault((kind, sender), (sender, msg))
            return
        votes = ledgers.get(r)
        if votes is not None and sender in votes:
            return
        if stage == 0:
            ok = self._validate_prevote(sender, msg)
        else:
            ok = self._validate_mainvote(sender, msg)
        if ok == "pending":
            self._ev_pending.setdefault((kind, r, sender), (sender, msg))
            return
        if not ok:
            return
        if votes is None:
            votes = ledgers[r] = {}
        votes[sender] = msg
        if r == self.round and self._stage == stage and len(votes) >= self.quorum:
            self._pump(out)

    # Two names, so each vote kind has its own handler name in the dispatch
    # table and its own count in a tracer that wraps methods by name.
    on_mainvote = on_prevote

    def on_coin_share(self, sender: int, msg: AbbaCoinShare, out: List[Message]) -> None:
        r = msg.round
        if self.decided or not 1 <= r <= ROUND_MAX or sender in self._coin_shares.get(r, {}):
            return
        name = abba_coin_name(self.instance, self.slot, r)
        if not self.crypto.coin_share_verify(name, sender, msg.share):
            return
        self._coin_shares.setdefault(r, {})[sender] = msg.share
        self._pump(out)

    def on_decision(self, sender: int, msg: AbbaDecision, out: List[Message]) -> None:
        """Adopt a transferable decision; `_decide` forwards it once."""
        r, bit = msg.round, msg.bit
        if bit not in (0, 1) or not 1 <= r <= ROUND_MAX:
            return
        msgs = self._round_msgs.get(r)
        # A round not entered (a decision's) gets its string built, never cached.
        signed = mainvote_bytes(self.instance, self.slot, r, bit) if msgs is None else msgs[2 + bit]
        if not self.crypto.verify_signature(signed, msg.sig):
            return
        if self.decided is None:
            self._decide(bit, r, msg.sig, out)

    # -- justification checks -----------------------------------------------

    # Validators take votes of round 1 or of a round entered (see on_prevote),
    # so each finds its signing strings in _round_msgs.

    def _validate_prevote(self, sender: int, msg: AbbaPrevote):
        r, bit, crypto = msg.round, msg.bit, self.crypto
        if msg.share.signer != sender or not crypto.verify_share(
            self._round_msgs[r][bit], sender, msg.share
        ):
            return False
        j = msg.justification
        if r == 1:
            if bit == 1:
                if j.kind != JUST_PREPROCESS_ONE or j.share is None:
                    return False
                if not crypto.verify_share(self._pp_msgs[1], j.signer, j.share):
                    return False
                if not self.evidence_known:
                    return "pending"
                return True
            if j.kind != JUST_PREPROCESS_ZERO or j.sig is None:
                return False
            return crypto.verify_signature(self._pp_msgs[0], j.sig)
        if j.kind == JUST_PREVOTE_THRESHOLD and j.sig is not None:
            return crypto.verify_signature(self._round_msgs[r - 1][bit], j.sig)
        if j.kind == JUST_ABSTAIN_THRESHOLD and j.sig is not None:
            coin = self.coins.get(r - 1)
            if coin is None or bit != coin:
                return False
            return crypto.verify_signature(self._round_msgs[r - 1][2 + ABSTAIN], j.sig)
        return False

    def _validate_mainvote(self, sender: int, msg: AbbaMainvote):
        msgs, value = self._round_msgs[msg.round], msg.value
        if msg.share.signer != sender or not self.crypto.verify_share(
            msgs[2 + value], sender, msg.share
        ):
            return False
        j = msg.justification
        if value in (0, 1):
            if j.kind != JUST_PREVOTE_THRESHOLD or j.sig is None:
                return False
            return self.crypto.verify_signature(msgs[value], j.sig)
        # abstain: embed one justified pre-vote per bit for this round
        if j.kind != JUST_CONFLICT or j.prevote_zero is None or j.prevote_one is None:
            return False
        pv0, pv1 = j.prevote_zero, j.prevote_one
        if (pv0.bit, pv1.bit) != (0, 1) or pv0.round != msg.round or pv1.round != msg.round:
            return False
        for pv in (pv0, pv1):
            ok = self._validate_prevote(pv.share.signer, pv)
            if ok == "pending":
                return "pending"
            if not ok:
                return False
        return True

    # -- progress ------------------------------------------------------------

    def _pump(self, out: List[Message]) -> None:
        while self.decided is None:
            r = self.round
            if r == 0:
                if self.input_given is None or len(self._pp) < self.quorum:
                    break
                self._enter_round_one(out)
            elif self._stage == 0:
                if len(self._prevotes.get(r, ())) < self.quorum:
                    break
                self._emit_mainvote(r, out)
            elif self._stage == 1:
                if len(self._mainvotes.get(r, ())) < self.quorum:
                    break
                self._check_decision(r, out)
            else:
                shares = self._coin_shares.get(r, {})
                if len(shares) < self.quorum:
                    break
                self.coins[r] = self.crypto.coin_toss_bit(
                    abba_coin_name(self.instance, self.slot, r),
                    list(shares.values())[: self.quorum],
                )
                self._advance(r + 1, out)

    def _enter(self, r: int) -> None:
        self.round = r
        self._stage = 0
        if r not in self._round_msgs:
            self._round_msgs[r] = round_strings(self.instance, self.slot, r)

    def _enter_round_one(self, out: List[Message]) -> None:
        self._enter(1)
        signer = next((s for s, m in self._pp.items() if m.bit == 1), None)
        if signer is not None:
            just = Justification(JUST_PREPROCESS_ONE, signer=signer, share=self._pp[signer].share)
            bit = 1
        else:
            zeros = [m.share for m in list(self._pp.values())[: self.quorum]]
            sig = self.crypto.combine_shares(self._pp_msgs[0], zeros)
            just = Justification(JUST_PREPROCESS_ZERO, sig=sig)
            bit = 0
        self._emit_prevote(1, bit, just, out)

    def _emit_prevote(self, r: int, bit: int, just: Justification, out: List[Message]) -> None:
        share = self.crypto.sig_share(self._round_msgs[r][bit])
        out.append(AbbaPrevote(self.instance, self.slot, r, bit, just, share))

    def _emit_mainvote(self, r: int, out: List[Message]) -> None:
        self._stage = 1
        first = list(self._prevotes[r].values())[: self.quorum]
        bits = {pv.bit for pv in first}
        if len(bits) == 1:
            (bit,) = bits
            sig = self.crypto.combine_shares(self._round_msgs[r][bit],
                                             [pv.share for pv in first])
            value, just = bit, Justification(JUST_PREVOTE_THRESHOLD, sig=sig)
        else:
            pv0 = next(pv for pv in first if pv.bit == 0)
            pv1 = next(pv for pv in first if pv.bit == 1)
            value = ABSTAIN
            just = Justification(JUST_CONFLICT, prevote_zero=pv0, prevote_one=pv1)
        share = self.crypto.sig_share(self._round_msgs[r][2 + value])
        out.append(AbbaMainvote(self.instance, self.slot, r, value, just, share))

    def _check_decision(self, r: int, out: List[Message]) -> None:
        self._stage = 2
        first = list(self._mainvotes[r].values())[: self.quorum]
        values = {mv.value for mv in first}
        if len(values) == 1 and ABSTAIN not in values:
            (bit,) = values
            sig = self.crypto.combine_shares(self._round_msgs[r][2 + bit],
                                             [mv.share for mv in first])
            self._decide(bit, r, sig, out)
            return
        share = self.crypto.coin_share(abba_coin_name(self.instance, self.slot, r))
        out.append(AbbaCoinShare(self.instance, self.slot, r, share))

    def _decide(self, bit: int, r: int, sig: ThresholdSignature, out: List[Message]) -> None:
        """Record the decision, free what only an undecided machine reads,
        emit the decision and hand it to the owner."""
        self.decided = (bit, r, sig)
        self._pp = {}
        self._prevotes = {}
        self._mainvotes = {}
        self._coin_shares = {}
        self._future = {}
        out.append(AbbaDecision(self.instance, self.slot, r, bit, sig))
        if self.owner is not None:
            self.owner.abba_decided(out)

    def _advance(self, r: int, out: List[Message]) -> None:
        self._enter(r)
        prev = r - 1
        non_abstain = [m for m in self._mainvotes.get(prev, {}).values() if m.value != ABSTAIN]
        values = {m.value for m in non_abstain}
        if len(values) > 1:
            # both bits cannot carry valid pre-vote threshold signatures
            raise AssertionError(f"conflicting justified main-votes in round {prev}")
        if non_abstain:
            m = non_abstain[0]
            self._emit_prevote(
                r, m.value, Justification(JUST_PREVOTE_THRESHOLD, sig=m.justification.sig), out
            )
        else:
            abstains = [
                m.share for m in self._mainvotes[prev].values() if m.value == ABSTAIN
            ][: self.quorum]
            sig = self.crypto.combine_shares(self._round_msgs[prev][2 + ABSTAIN], abstains)
            self._emit_prevote(
                r, self.coins[prev], Justification(JUST_ABSTAIN_THRESHOLD, sig=sig), out
            )
        self._replay(self._future.pop(r, {}).values(), out)

    def _replay(self, parked: Iterable[Tuple[int, Message]], out: List[Message]) -> None:
        """Hand parked votes to the public handlers again, in arrival order;
        an undecided machine takes a parked (verified) pre-process into `_pp`."""
        for sender, msg in parked:
            kind = type(msg)
            if kind is AbbaPreprocess:
                if self.decided is None:
                    self._pp.setdefault(sender, msg)
            elif kind is AbbaPrevote:
                self.on_prevote(sender, msg, out)
            else:
                self.on_mainvote(sender, msg, out)
