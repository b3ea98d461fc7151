"""Binary Byzantine agreement biased towards 1.

Round structure: a pre-process exchange (wait n-f), then per round a
justified pre-vote, a justified main-vote (2f+1, unanimous bit or
abstain), a decision check (2f+1 identical non-abstain main-votes
combine into a transferable decision signature), and a common coin
(2f+1 shares) feeding the next round's pre-vote.

Justification discipline (what makes the bias and agreement stick):
  - pre-process for 1 is only accepted once a verified payload proof for
    the slot is known locally, so a 1 can never be conjured out of air;
  - round-1 pre-vote for 1 carries one valid pre-process-for-1 share,
    round-1 pre-vote for 0 carries a threshold signature combined from
    n-f pre-process-for-0 shares (impossible once f+1 honest parties
    input 1);
  - later pre-votes carry the prior round's pre-vote threshold
    signature, or the prior round's abstain threshold signature when the
    bit equals that round's coin;
  - a main-vote for b carries the round's pre-vote-b threshold
    signature; an abstain embeds two fully justified pre-votes, one per
    bit, so abstaining is impossible once only one bit is justifiable.

A vote with an invalid justification is never counted toward any
threshold.  Votes for rounds ahead of the local machine are buffered.
"""
from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from .crypto import CoinShare, PartyCrypto, SignatureShare, ThresholdSignature
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


def preprocess_bytes(instance: int, slot: int, bit: int) -> bytes:
    return b"ABBA-PP" + struct.pack(">QHB", instance, slot, bit)


def prevote_bytes(instance: int, slot: int, round_: int, bit: int) -> bytes:
    return b"ABBA-PV" + struct.pack(">QHHB", instance, slot, round_, bit)


def mainvote_bytes(instance: int, slot: int, round_: int, value: int) -> bytes:
    return b"ABBA-MV" + struct.pack(">QHHB", instance, slot, round_, value)


def abba_coin_name(instance: int, slot: int, round_: int) -> bytes:
    return b"ABBA-COIN" + struct.pack(">QHH", instance, slot, round_)


class AbbaMachine:
    def __init__(self, instance: int, slot: int, crypto: PartyCrypto):
        self.instance = instance
        self.slot = slot
        self.crypto = crypto
        self.n = crypto.n
        self.f = crypto.f
        self.quorum = 2 * self.f + 1

        self.input_given: Optional[int] = None
        self.evidence_known = False  # a verified payload proof for this slot exists locally
        self.round = 0  # 0 until n-f pre-process messages arrive

        # Signing strings: pre-process per bit, built once; pre-vote per bit
        # and main-vote per value (0, 1, ABSTAIN) only for rounds entered, so
        # round numbers from the wire never add entries.
        self._pp_msgs = (preprocess_bytes(instance, slot, 0), preprocess_bytes(instance, slot, 1))
        self._round_msgs: Dict[int, Tuple[bytes, ...]] = {}

        self._pp: Dict[int, AbbaPreprocess] = {}
        self._pp_order: List[int] = []
        self._pp_pending_one: List[Tuple[int, AbbaPreprocess]] = []
        self._prevotes: Dict[int, Dict[int, AbbaPrevote]] = {}
        self._pv_order: Dict[int, List[int]] = {}
        self._mainvotes: Dict[int, Dict[int, AbbaMainvote]] = {}
        self._mv_order: Dict[int, List[int]] = {}
        self._coin_shares: Dict[int, Dict[int, CoinShare]] = {}
        self.coins: Dict[int, int] = {}
        self._future: Dict[int, List[Tuple[str, int, Message]]] = {}
        self._ev_pending: List[Tuple[str, int, Message]] = []

        self._mv_sent: set = set()
        self._checked: set = set()
        self._coin_sent: set = set()
        self.decided: Optional[Tuple[int, int, ThresholdSignature]] = None  # (bit, round, sig)
        self._decision_forwarded = False

    # -- inputs ------------------------------------------------------------

    def input(self, bit: int) -> List[Message]:
        if self.input_given is not None:
            raise AlreadyInputError(f"slot {self.slot} already has input {self.input_given}")
        self.input_given = bit
        share = self.crypto.sig_share(preprocess_bytes(self.instance, self.slot, bit))
        out: List[Message] = [AbbaPreprocess(self.instance, self.slot, bit, share)]
        self._pump(out)
        return out

    def set_evidence_known(self) -> List[Message]:
        if self.evidence_known:
            return []
        self.evidence_known = True
        out: List[Message] = []
        pending, self._pp_pending_one = self._pp_pending_one, []
        for sender, msg in pending:
            self._accept_preprocess(sender, msg)
        replay, self._ev_pending = self._ev_pending, []
        for kind, sender, msg in replay:
            if kind == "pv":
                self.on_prevote(sender, msg, out)
            else:
                self.on_mainvote(sender, msg, out)
        self._pump(out)
        return out

    # -- handlers ------------------------------------------------------------

    def on_preprocess(self, sender: int, msg: AbbaPreprocess, out: List[Message]) -> None:
        if self.decided or sender in self._pp or msg.bit not in (0, 1):
            return
        if not self.crypto.verify_share(self._pp_msgs[msg.bit], sender, msg.share):
            return
        if msg.bit == 1 and not self.evidence_known:
            self._pp_pending_one.append((sender, msg))
            return
        self._accept_preprocess(sender, msg)
        self._pump(out)

    def _accept_preprocess(self, sender: int, msg: AbbaPreprocess) -> None:
        if sender not in self._pp:
            self._pp[sender] = msg
            self._pp_order.append(sender)

    def on_prevote(self, sender: int, msg: AbbaPrevote, out: List[Message]) -> None:
        if self.decided or msg.bit not in (0, 1) or msg.round < 1:
            return
        if msg.round > max(self.round, 1):  # round-1 votes are verifiable before entry
            self._future.setdefault(msg.round, []).append(("pv", sender, msg))
            return
        if sender in self._prevotes.get(msg.round, {}):
            return
        ok = self._validate_prevote(sender, msg)
        if ok == "pending":
            self._ev_pending.append(("pv", sender, msg))
            return
        if not ok:
            return
        self._prevotes.setdefault(msg.round, {})[sender] = msg
        self._pv_order.setdefault(msg.round, []).append(sender)
        self._pump(out)

    def on_mainvote(self, sender: int, msg: AbbaMainvote, out: List[Message]) -> None:
        if self.decided or msg.value not in (0, 1, ABSTAIN) or msg.round < 1:
            return
        if msg.round > max(self.round, 1):
            self._future.setdefault(msg.round, []).append(("mv", sender, msg))
            return
        if sender in self._mainvotes.get(msg.round, {}):
            return
        ok = self._validate_mainvote(sender, msg)
        if ok == "pending":
            self._ev_pending.append(("mv", sender, msg))
            return
        if not ok:
            return
        self._mainvotes.setdefault(msg.round, {})[sender] = msg
        self._mv_order.setdefault(msg.round, []).append(sender)
        self._pump(out)

    def on_coin_share(self, sender: int, msg: AbbaCoinShare, out: List[Message]) -> None:
        if self.decided or sender in self._coin_shares.get(msg.round, {}):
            return
        name = abba_coin_name(self.instance, self.slot, msg.round)
        if not self.crypto.coin_share_verify(name, sender, msg.share):
            return
        self._coin_shares.setdefault(msg.round, {})[sender] = msg.share
        self._pump(out)

    def on_decision(self, sender: int, msg: AbbaDecision, out: List[Message]) -> None:
        """Adopt a transferable decision; forward it exactly once."""
        if msg.bit not in (0, 1):
            return
        if not self.crypto.verify_signature(self._mv_msg(msg.round, msg.bit), msg.sig):
            return
        if self.decided is None:
            self.decided = (msg.bit, msg.round, msg.sig)
        if not self._decision_forwarded:
            self._decision_forwarded = True
            out.append(AbbaDecision(self.instance, self.slot, msg.round, msg.bit, msg.sig))

    # -- justification checks -----------------------------------------------

    def _validate_prevote(self, sender: int, msg: AbbaPrevote):
        if msg.share.signer != sender or not self.crypto.verify_share(
            self._pv_msg(msg.round, msg.bit), sender, msg.share
        ):
            return False
        j = msg.justification
        if msg.round == 1:
            if msg.bit == 1:
                if j.kind != JUST_PREPROCESS_ONE or j.share is None:
                    return False
                if not self.crypto.verify_share(self._pp_msgs[1], j.signer, j.share):
                    return False
                if not self.evidence_known:
                    return "pending"
                return True
            if j.kind != JUST_PREPROCESS_ZERO or j.sig is None:
                return False
            return self.crypto.verify_signature(self._pp_msgs[0], j.sig)
        if j.kind == JUST_PREVOTE_THRESHOLD and j.sig is not None:
            return self.crypto.verify_signature(self._pv_msg(msg.round - 1, msg.bit), j.sig)
        if j.kind == JUST_ABSTAIN_THRESHOLD and j.sig is not None:
            coin = self.coins.get(msg.round - 1)
            if coin is None or msg.bit != coin:
                return False
            return self.crypto.verify_signature(self._mv_msg(msg.round - 1, ABSTAIN), j.sig)
        return False

    def _validate_mainvote(self, sender: int, msg: AbbaMainvote):
        if msg.share.signer != sender or not self.crypto.verify_share(
            self._mv_msg(msg.round, msg.value), sender, msg.share
        ):
            return False
        j = msg.justification
        if msg.value in (0, 1):
            if j.kind != JUST_PREVOTE_THRESHOLD or j.sig is None:
                return False
            return self.crypto.verify_signature(self._pv_msg(msg.round, msg.value), j.sig)
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
            if (
                self.round == 0
                and self.input_given is not None
                and len(self._pp) >= self.n - self.f
            ):
                self._enter_round_one(out)
                continue
            r = self.round
            if r >= 1 and r not in self._mv_sent and len(self._prevotes.get(r, {})) >= self.quorum:
                self._emit_mainvote(r, out)
                continue
            if (
                r >= 1
                and r in self._mv_sent
                and r not in self._checked
                and len(self._mainvotes.get(r, {})) >= self.quorum
            ):
                self._check_decision(r, out)
                continue
            if (
                r in self._checked
                and r not in self.coins
                and len(self._coin_shares.get(r, {})) >= self.quorum
            ):
                shares = list(self._coin_shares[r].values())[: self.quorum]
                self.coins[r] = self.crypto.coin_toss_bit(
                    abba_coin_name(self.instance, self.slot, r), shares
                )
                self._advance(r + 1, out)
                continue
            break

    def _pv_msg(self, r: int, bit: int) -> bytes:
        msgs = self._round_msgs.get(r)
        if msgs is None:  # a round not entered yet: build, never cache
            return prevote_bytes(self.instance, self.slot, r, bit)
        return msgs[bit]

    def _mv_msg(self, r: int, value: int) -> bytes:
        msgs = self._round_msgs.get(r)
        if msgs is None:
            return mainvote_bytes(self.instance, self.slot, r, value)
        return msgs[2 + value]

    def _enter(self, r: int) -> None:
        self.round = r
        i, s = self.instance, self.slot
        self._round_msgs[r] = (
            prevote_bytes(i, s, r, 0),
            prevote_bytes(i, s, r, 1),
            mainvote_bytes(i, s, r, 0),
            mainvote_bytes(i, s, r, 1),
            mainvote_bytes(i, s, r, ABSTAIN),
        )

    def _enter_round_one(self, out: List[Message]) -> None:
        self._enter(1)
        one_senders = [s for s in self._pp_order if self._pp[s].bit == 1]
        if one_senders:
            signer = one_senders[0]
            just = Justification(JUST_PREPROCESS_ONE, signer=signer, share=self._pp[signer].share)
            bit = 1
        else:
            zeros = [self._pp[s].share for s in self._pp_order[: self.n - self.f]]
            sig = self.crypto.combine_shares(self._pp_msgs[0], zeros)
            just = Justification(JUST_PREPROCESS_ZERO, sig=sig)
            bit = 0
        self._emit_prevote(1, bit, just, out)
        self._drain_future(1, out)

    def _emit_prevote(self, r: int, bit: int, just: Justification, out: List[Message]) -> None:
        share = self.crypto.sig_share(self._pv_msg(r, bit))
        out.append(AbbaPrevote(self.instance, self.slot, r, bit, just, share))

    def _emit_mainvote(self, r: int, out: List[Message]) -> None:
        self._mv_sent.add(r)
        first = self._pv_order[r][: self.quorum]
        bits = {self._prevotes[r][s].bit for s in first}
        if len(bits) == 1:
            (bit,) = bits
            sig = self.crypto.combine_shares(
                self._pv_msg(r, bit), [self._prevotes[r][s].share for s in first]
            )
            value, just = bit, Justification(JUST_PREVOTE_THRESHOLD, sig=sig)
        else:
            pv0 = next(self._prevotes[r][s] for s in first if self._prevotes[r][s].bit == 0)
            pv1 = next(self._prevotes[r][s] for s in first if self._prevotes[r][s].bit == 1)
            value = ABSTAIN
            just = Justification(JUST_CONFLICT, prevote_zero=pv0, prevote_one=pv1)
        share = self.crypto.sig_share(self._mv_msg(r, value))
        out.append(AbbaMainvote(self.instance, self.slot, r, value, just, share))

    def _check_decision(self, r: int, out: List[Message]) -> None:
        self._checked.add(r)
        first = self._mv_order[r][: self.quorum]
        values = {self._mainvotes[r][s].value for s in first}
        if len(values) == 1 and ABSTAIN not in values:
            (bit,) = values
            sig = self.crypto.combine_shares(
                self._mv_msg(r, bit), [self._mainvotes[r][s].share for s in first]
            )
            self.decided = (bit, r, sig)
            if not self._decision_forwarded:
                self._decision_forwarded = True
                out.append(AbbaDecision(self.instance, self.slot, r, bit, sig))
            return
        if r not in self._coin_sent:
            self._coin_sent.add(r)
            share = self.crypto.coin_share(abba_coin_name(self.instance, self.slot, r))
            out.append(AbbaCoinShare(self.instance, self.slot, r, share))

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
            sig = self.crypto.combine_shares(self._mv_msg(prev, ABSTAIN), abstains)
            self._emit_prevote(
                r, self.coins[prev], Justification(JUST_ABSTAIN_THRESHOLD, sig=sig), out
            )
        self._drain_future(r, out)

    def _drain_future(self, r: int, out: List[Message]) -> None:
        for kind, sender, msg in self._future.pop(r, []):
            if kind == "pv":
                self.on_prevote(sender, msg, out)
            else:
                self.on_mainvote(sender, msg, out)
