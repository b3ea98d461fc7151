"""Per-slot agreement invocation.

Wraps one binary-agreement machine with the slot's input layer: each
party announces a 1-bit claim `u` for the slot, 1 iff it holds the
verified (ciphertext, proof) pair, when the slot starts; the owner sends
it as a V-message.  Claims are bare (pair dissemination is the
proposal/suggestion multicasts' job), and a received claim's bit is not
read: claims only time the input.  Once 2f+1 distinct parties' claims are
in, `u` feeds the agreement machine (`abba.input_given` is then set), and
later claims are ignored.  A party that learns the slot decided 1 without
holding the pair multicasts a recovery request; any holder answers with
the pair.  A holder contributes its decryption share once, when both the
decision 1 and the pair are known, and the plaintext is recovered from f+1
shares.

The invocation reports its own transitions to its owner as they happen:
input fixed, decided, and outcome ready (decided 0, or decided 1 and
decrypted).  The agreement machine reports its decision to the invocation
the same way, once (`abba_decided`), so the agreement forwarders only pass
traffic on, and `decided` is read off the machine.
"""
from __future__ import annotations

import weakref
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
        # A weak proxy, as the party's: a strong one would make a reference cycle.
        self.abba = AbbaMachine(instance, slot, crypto, weakref.proxy(self))
        self._claim_quorum = crypto.t_sig  # claims that fix the input
        self._dec_quorum = crypto.f + 1  # decryption shares that recover the plaintext
        self.pair: Optional[Tuple[Ciphertext, ThresholdSignature]] = None
        self.u: Optional[int] = None  # the local claim, set when the slot starts
        self.plaintext: Optional[bytes] = None
        self._v_senders: Dict[int, None] = {}  # claim senders until the input is fixed
        # Decryption shares, verified ones and ones parked until the pair is
        # known (the first per sender, in arrival order); both are emptied
        # once the plaintext is recovered.
        self._dec_shares: Dict[int, DecryptionShare] = {}
        self._dec_pending: Dict[int, DecryptionShare] = {}
        self._recover_sent = False

    # -- pair dissemination ---------------------------------------------------

    def record_pair(self, ciphertext: Ciphertext, proof: ThresholdSignature,
                    out: List[Message]) -> bool:
        """Adopt a verified (ciphertext, proof) pair; idempotent.  The proof
        binds only the payload's digest, so a ciphertext that is not
        well-formed is refused whatever its proof.  A slot decided 1 before
        the pair contributes its decryption share here; one that the pair's
        evidence replay decides, in `abba_decided`."""
        verified = (self.crypto.ciphertext_wellformed(ciphertext)
                    and verify_proof(self.crypto, self.instance, self.slot, ciphertext, proof))
        if self.pair is not None or not verified:
            return verified
        decided = self.abba.decided
        self.pair = (ciphertext, proof)
        self.abba.set_evidence_known(out)
        pending, self._dec_pending = self._dec_pending, {}
        for sender, share in pending.items():
            self.on_dec_share(sender, DecShare(self.instance, self.slot, share), out)
        if decided is not None and decided[0] == 1:
            self._share_and_decrypt(out)
        return True

    def inv_start(self, bit: int, ciphertext: Optional[Ciphertext],
                  proof: Optional[ThresholdSignature], out: List[Message]) -> None:
        """Start the slot: fix the local claim `u` (1 needs the proven pair),
        which the owner sends as the V-message."""
        if self.u is not None:
            raise AlreadyInputError(f"slot {self.slot} invocation already started")
        if bit == 1 and (ciphertext is None or proof is None
                         or not self.record_pair(ciphertext, proof, out)):
            raise InvalidProofError(f"slot {self.slot}: cannot start with unproven payload")
        self.u = bit
        if len(self._v_senders) >= self._claim_quorum:
            self._fix_input(out)

    def on_v(self, sender: int, msg: VMsg, out: List[Message]) -> None:
        if self.abba.input_given is not None:
            return
        claims = self._v_senders
        claims[sender] = None
        if self.u is not None and len(claims) >= self._claim_quorum:
            self._fix_input(out)

    def _fix_input(self, out: List[Message]) -> None:
        """Feed the local claim to the agreement machine, once 2f+1 claims are in."""
        self._v_senders.clear()
        self.owner.slot_input(self)
        self.abba.input(self.u, out)

    # -- agreement traffic ----------------------------------------------------
    # Named pass-throughs, one per agreement message kind: a tracer wraps each by name.

    def on_preprocess(self, sender, msg, out: List[Message]) -> None:
        self.abba.on_preprocess(sender, msg, out)

    def on_prevote(self, sender, msg, out: List[Message]) -> None:
        self.abba.on_prevote(sender, msg, out)

    def on_mainvote(self, sender, msg, out: List[Message]) -> None:
        self.abba.on_mainvote(sender, msg, out)

    def on_coin_share(self, sender, msg, out: List[Message]) -> None:
        self.abba.on_coin_share(sender, msg, out)

    def on_decision(self, sender, msg, out: List[Message]) -> None:
        self.abba.on_decision(sender, msg, out)

    def abba_decided(self, out: List[Message]) -> None:
        """The machine's one report of its decision, just appended to `out`.
        Decided 0 is the slot's outcome; after 1, a holder of the pair sends
        its decryption share and a party without it a recovery request."""
        self.owner.slot_decided(self)
        if self.abba.decided[0] == 0:
            self.owner.slot_ready(self)
        elif self.pair is not None:
            self._share_and_decrypt(out)
        else:
            self._recover_sent = True
            out.append(Recover(self.instance, self.slot))

    @property
    def decided(self) -> Optional[Tuple[int, int]]:
        """(bit, round) of the machine's decision, or None."""
        decided = self.abba.decided
        return None if decided is None else decided[:2]

    # -- decryption and recovery ----------------------------------------------

    def _share_and_decrypt(self, out: List[Message]) -> None:
        out.append(DecShare(self.instance, self.slot, self.crypto.dec_share(self.pair[0])))
        self._try_decrypt()

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
        decided = self.abba.decided
        if (
            self.plaintext is None
            and decided is not None
            and decided[0] == 1
            and len(self._dec_shares) >= self._dec_quorum
        ):
            shares = list(self._dec_shares.values())[: self._dec_quorum]
            self.plaintext = self.crypto.tpke_dec(self.pair[0], shares)
            self._dec_shares = {}
            self._dec_pending = {}
            self.owner.slot_ready(self)

    def on_recover_resp(self, sender: int, msg: RecoverResp, out: List[Message]) -> None:
        if self.pair is None:  # a held pair makes the answer change nothing
            self.record_pair(msg.ciphertext, msg.proof, out)

    # -- outcome ----------------------------------------------------------------

    @property
    def outcome_ready(self) -> bool:
        if self.decided is None:
            return False
        return self.decided[0] == 0 or self.plaintext is not None
