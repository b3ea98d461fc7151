"""Per-slot agreement invocation.

Wraps one binary-agreement machine with the slot's input layer: each
party announces a 1-bit claim (V-message) for the slot, claiming 1 iff
it holds the verified (ciphertext, proof) pair.  Claims travel bare —
pair dissemination is the proposal/suggestion multicasts' job — though
a claim that does attach a pair is verified and adopted (an attached
pair that fails verification demotes the claim to 0).  Once 2f+1
claims are in, the local claim bit feeds the agreement machine.  A
party that learns the slot decided 1 without holding the pair
multicasts a recovery request; any holder answers with the pair.
After deciding 1, holders contribute decryption shares and the
plaintext is recovered from f+1 of them.

The invocation reports its own transitions to its owner as they happen:
input fixed, decided, and outcome ready (decided 0, or decided 1 and
decrypted).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .abba import AbbaMachine, AlreadyInputError
from .crypto import Ciphertext, DecryptionShare, PartyCrypto, ThresholdSignature
from .messages import (
    AbbaCoinShare,
    AbbaDecision,
    AbbaMainvote,
    AbbaPreprocess,
    AbbaPrevote,
    DecShare,
    Message,
    Recover,
    RecoverResp,
    VMsg,
)
from .ppb import verify_proof

# Slot-level message type -> name of the SlotInvocation method that handles it,
# called as handler(sender, msg, out).  A party resolves the names on the class
# when it is built, not per call, so a method replaced on the class before
# then is the one its dispatch calls.
SLOT_HANDLERS = {
    VMsg: "on_v",
    AbbaPreprocess: "on_preprocess",
    AbbaPrevote: "on_prevote",
    AbbaMainvote: "on_mainvote",
    AbbaCoinShare: "on_coin_share",
    AbbaDecision: "on_decision",
    DecShare: "on_dec_share",
    RecoverResp: "on_recover_resp",
}


class InvalidProofError(Exception):
    pass


class SlotOwner:
    """Receives an invocation's transitions, each once, when it happens.
    These hooks do nothing; a party overrides them."""

    def slot_input(self, inv: "SlotInvocation") -> None: ...

    def slot_decided(self, inv: "SlotInvocation") -> None: ...

    def slot_ready(self, inv: "SlotInvocation") -> None: ...


NO_OWNER = SlotOwner()


class SlotInvocation:
    def __init__(self, instance: int, slot: int, crypto: PartyCrypto,
                 owner: SlotOwner = NO_OWNER):
        self.instance = instance
        self.slot = slot
        self.crypto = crypto
        self.owner = owner
        self.abba = AbbaMachine(instance, slot, crypto)
        self._claim_quorum = 2 * crypto.f + 1  # claims that fix the input
        self._dec_quorum = crypto.f + 1  # decryption shares that recover the plaintext
        self.pair: Optional[Tuple[Ciphertext, ThresholdSignature]] = None
        self.u = 0
        self.started = False
        self.input_bit: Optional[int] = None  # set when the machine got its input
        self.decided: Optional[Tuple[int, int]] = None  # (bit, round)
        self.plaintext: Optional[bytes] = None
        self._v_senders: Dict[int, int] = {}
        self._v_out: Optional[VMsg] = None
        # Decryption shares, verified ones and ones parked until the pair is
        # known (the first per sender, in arrival order); both are emptied
        # once the plaintext is recovered.
        self._dec_shares: Dict[int, DecryptionShare] = {}
        self._dec_pending: Dict[int, DecryptionShare] = {}
        self._dec_share_sent = False
        self._recover_sent = False

    # -- pair dissemination ---------------------------------------------------

    def record_pair(self, ciphertext: Ciphertext, proof: ThresholdSignature,
                    out: List[Message]) -> bool:
        """Adopt a verified (ciphertext, proof) pair; idempotent."""
        if self.pair is not None:
            return verify_proof(self.crypto, self.instance, self.slot, ciphertext, proof)
        if not verify_proof(self.crypto, self.instance, self.slot, ciphertext, proof):
            return False
        self.pair = (ciphertext, proof)
        out.extend(self.abba.set_evidence_known())
        pending, self._dec_pending = self._dec_pending, {}
        for sender, share in pending.items():
            self.on_dec_share(sender, DecShare(self.instance, self.slot, share), out)
        self._after_abba(out)
        if self.decided is not None and self.decided[0] == 1:
            self._emit_dec_share(out)
            self._try_decrypt()
        return True

    def inv_start(self, bit: int, ciphertext: Optional[Ciphertext] = None,
                  proof: Optional[ThresholdSignature] = None,
                  out: Optional[List[Message]] = None) -> List[Message]:
        """Fix the local claim and produce the V-message (flushed by the owner).

        Emissions are appended to `out` (a new list if none is given), which
        is returned."""
        if self.started:
            raise AlreadyInputError(f"slot {self.slot} invocation already started")
        if out is None:
            out = []
        if bit == 1:
            if ciphertext is None or proof is None or not self.record_pair(
                ciphertext, proof, out
            ):
                raise InvalidProofError(f"slot {self.slot}: cannot start with unproven payload")
            self.u = 1
        self.started = True
        self._v_out = VMsg(self.instance, self.slot, self.u)
        if len(self._v_senders) >= self._claim_quorum:
            self._fix_input(out)
        return out

    def take_v(self) -> Optional[VMsg]:
        v, self._v_out = self._v_out, None
        return v

    def on_v(self, sender: int, msg: VMsg, out: List[Message]) -> None:
        claims = self._v_senders
        if sender in claims:
            return
        effective = 0
        if msg.u == 1 and msg.pair is not None:
            if self.record_pair(*msg.pair, out):
                effective = 1  # a claimed 1 without a verifiable pair demotes to 0
        claims[sender] = effective
        if effective == 1 and self.u == 0:
            self.u = 1
        if self.input_bit is None and self.started and len(claims) >= self._claim_quorum:
            self._fix_input(out)

    def _fix_input(self, out: List[Message]) -> None:
        """Feed the local claim to the agreement machine, once 2f+1 claims are in."""
        self.input_bit = self.u
        self.owner.slot_input(self)
        out.extend(self.abba.input(self.u))
        self._after_abba(out)

    # -- agreement traffic ----------------------------------------------------
    # Each forwarder runs _after_abba only when the machine's decision is new.

    def on_preprocess(self, sender, msg, out: List[Message]) -> None:
        abba = self.abba
        abba.on_preprocess(sender, msg, out)
        if abba.decided is not None and self.decided is None:
            self._after_abba(out)

    def on_prevote(self, sender, msg, out: List[Message]) -> None:
        abba = self.abba
        abba.on_prevote(sender, msg, out)
        if abba.decided is not None and self.decided is None:
            self._after_abba(out)

    def on_mainvote(self, sender, msg, out: List[Message]) -> None:
        abba = self.abba
        abba.on_mainvote(sender, msg, out)
        if abba.decided is not None and self.decided is None:
            self._after_abba(out)

    def on_coin_share(self, sender, msg, out: List[Message]) -> None:
        abba = self.abba
        abba.on_coin_share(sender, msg, out)
        if abba.decided is not None and self.decided is None:
            self._after_abba(out)

    def on_decision(self, sender, msg, out: List[Message]) -> None:
        abba = self.abba
        abba.on_decision(sender, msg, out)
        if abba.decided is not None and self.decided is None:
            self._after_abba(out)

    def _after_abba(self, out: List[Message]) -> None:
        if self.abba.decided is None or self.decided is not None:
            return
        bit, round_, _sig = self.abba.decided
        self.decided = (bit, round_)
        self.owner.slot_decided(self)
        if bit == 0:
            self.owner.slot_ready(self)
        else:
            if self.pair is not None:
                self._emit_dec_share(out)
                self._try_decrypt()
            elif not self._recover_sent:
                self._recover_sent = True
                out.append(Recover(self.instance, self.slot))

    # -- decryption and recovery ----------------------------------------------

    def _emit_dec_share(self, out: List[Message]) -> None:
        if self._dec_share_sent or self.pair is None:
            return
        self._dec_share_sent = True
        out.append(DecShare(self.instance, self.slot, self.crypto.dec_share(self.pair[0])))

    def on_dec_share(self, sender: int, msg: DecShare, out: List[Message]) -> None:
        if self.plaintext is not None or sender in self._dec_shares:
            return
        if msg.share.holder != sender:
            return
        if self.pair is None:
            self._dec_pending.setdefault(sender, msg.share)
            return
        if not self.crypto.tpke_dec_share_verify(self.pair[0], sender, msg.share):
            return
        self._dec_shares[sender] = msg.share
        if len(self._dec_shares) >= self._dec_quorum:
            self._try_decrypt()

    def _try_decrypt(self) -> None:
        if (
            self.plaintext is None
            and self.decided is not None
            and self.decided[0] == 1
            and self.pair is not None
            and len(self._dec_shares) >= self._dec_quorum
        ):
            shares = list(self._dec_shares.values())[: self._dec_quorum]
            self.plaintext = self.crypto.tpke_dec(self.pair[0], shares)
            self._dec_shares = {}
            self._dec_pending = {}
            self.owner.slot_ready(self)

    def on_recover_resp(self, sender: int, msg: RecoverResp, out: List[Message]) -> None:
        self.record_pair(msg.ciphertext, msg.proof, out)

    # -- outcome ----------------------------------------------------------------

    @property
    def outcome_ready(self) -> bool:
        if self.decided is None:
            return False
        return self.decided[0] == 0 or self.plaintext is not None
