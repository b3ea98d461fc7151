"""Prioritized provable broadcast.

Only committee members broadcast.  Receivers countersign the first
payload per committee member, binding (instance, slot, payload digest)
under the signature so a second diverging payload from the same sender
can never assemble a proof.  The sender combines t_sig = n-f countersignatures
into the transferable proof.  Its signers hold the ciphertext already, so a
pair message to one of them may leave the ciphertext out.
"""
from __future__ import annotations

import struct
from typing import Dict, KeysView, Optional, Tuple

from .crypto import (
    Ciphertext,
    PartyCrypto,
    SignatureShare,
    ThresholdSignature,
)


class NotCommitteeMemberError(Exception):
    pass


def ppb_sign_bytes(instance: int, slot: int, ct_digest: bytes) -> bytes:
    return b"PPB" + struct.pack(">QH", instance, slot) + ct_digest


def verify_proof(crypto: PartyCrypto, instance: int, slot: int,
                 ciphertext: Ciphertext, sig: ThresholdSignature) -> bool:
    return crypto.verify_signature(ppb_sign_bytes(instance, slot, ciphertext.ct_digest()), sig)


class PpbSender:
    """Broadcast side; only constructible for the party's own slot."""

    def __init__(self, instance: int, crypto: PartyCrypto, committee: Tuple[int, ...],
                 ciphertext: Ciphertext):
        if crypto.party not in committee:
            raise NotCommitteeMemberError(f"party {crypto.party} not in committee")
        self.instance = instance
        self.slot = crypto.party
        self.crypto = crypto
        self.ciphertext = ciphertext
        self._bytes = ppb_sign_bytes(instance, self.slot, ciphertext.ct_digest())
        self._shares: Dict[int, SignatureShare] = {}
        self.proof: Optional[ThresholdSignature] = None

    def on_share(self, sender: int, share: SignatureShare) -> Optional[ThresholdSignature]:
        """Returns the proof exactly once, when t_sig valid shares are in."""
        if self.proof is not None or sender in self._shares:
            return None
        if not self.crypto.verify_share(self._bytes, sender, share):
            return None
        self._shares[sender] = share
        if len(self._shares) >= self.crypto.t_sig:
            self.proof = self.crypto.combine_shares(self._bytes, self._shares.values())
            return self.proof
        return None

    @property
    def signers(self) -> KeysView[int]:
        """The parties whose countersignatures formed the proof (each signed
        this ciphertext's digest); fixed once the proof is."""
        return self._shares.keys()


class PpbReceiver:
    """Countersigning ledger for one instance; one signature per sender."""

    def __init__(self, instance: int, crypto: PartyCrypto, committee: Tuple[int, ...]):
        self.instance = instance
        self.crypto = crypto
        self.committee = committee
        # Slot -> the payload countersigned for it, the slot's first well-formed one.
        self.countersigned: Dict[int, Ciphertext] = {}

    def on_payload(self, sender: int, ciphertext: Ciphertext) -> Optional[SignatureShare]:
        """Countersign the first well-formed payload from a committee member,
        or stay silent."""
        if sender not in self.committee or sender in self.countersigned:
            return None
        if not self.crypto.ciphertext_wellformed(ciphertext):
            return None
        self.countersigned[sender] = ciphertext
        return self.crypto.sig_share(ppb_sign_bytes(self.instance, sender, ciphertext.ct_digest()))
