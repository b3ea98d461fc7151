"""Prioritized provable broadcast.

Only committee members broadcast.  Receivers countersign the first
payload per committee member, binding (instance, slot, payload digest)
under the signature so a second diverging payload from the same sender
can never assemble a proof.  The sender combines n-f countersignatures
into the transferable proof.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .committee import Committee
from .crypto import (
    Ciphertext,
    PartyCrypto,
    SignatureShare,
    ThresholdSignature,
    digest,
)


class NotCommitteeMemberError(Exception):
    pass


def ppb_sign_bytes(instance: int, slot: int, ct_digest: bytes) -> bytes:
    return b"PPB" + struct.pack(">QH", instance, slot) + ct_digest


@dataclass(frozen=True)
class PpbProof:
    instance: int
    slot: int
    sig: ThresholdSignature


def verify_proof(crypto: PartyCrypto, instance: int, slot: int,
                 ciphertext: Ciphertext, sig: ThresholdSignature) -> bool:
    return crypto.verify_signature(ppb_sign_bytes(instance, slot, ciphertext.ct_digest()), sig)


class PpbSender:
    """Broadcast side; only constructible for the party's own slot."""

    def __init__(self, instance: int, crypto: PartyCrypto, committee: Committee,
                 ciphertext: Ciphertext):
        if crypto.party not in committee:
            raise NotCommitteeMemberError(f"party {crypto.party} not in committee")
        self.instance = instance
        self.slot = crypto.party
        self.crypto = crypto
        self.ciphertext = ciphertext
        self._bytes = ppb_sign_bytes(instance, self.slot, ciphertext.ct_digest())
        self._shares: Dict[int, SignatureShare] = {}
        self.proof: Optional[PpbProof] = None

    def on_share(self, sender: int, share: SignatureShare) -> Optional[PpbProof]:
        """Returns the proof exactly once, when n-f valid shares are in."""
        if self.proof is not None or sender in self._shares:
            return None
        if not self.crypto.verify_share(self._bytes, sender, share):
            return None
        self._shares[sender] = share
        if len(self._shares) >= self.crypto.n - self.crypto.f:
            sig = self.crypto.combine_shares(self._bytes, self._shares.values())
            self.proof = PpbProof(self.instance, self.slot, sig)
            return self.proof
        return None


class PpbReceiver:
    """Countersigning ledger for one instance; one signature per sender."""

    def __init__(self, instance: int, crypto: PartyCrypto, committee: Committee,
                 validator: Optional[Callable[[Ciphertext], bool]] = None):
        self.instance = instance
        self.crypto = crypto
        self.committee = committee
        self.validator = validator
        self.abandoned = False
        self.payloads: Dict[int, Ciphertext] = {}  # slot -> first ciphertext seen

    def on_payload(self, sender: int, ciphertext: Ciphertext) -> Optional[SignatureShare]:
        """Countersign the first payload from a committee member, or stay silent."""
        if self.abandoned or sender not in self.committee or sender in self.payloads:
            return None
        if self.validator is not None and not self.validator(ciphertext):
            return None
        self.payloads[sender] = ciphertext
        return self.crypto.sig_share(ppb_sign_bytes(self.instance, sender, ciphertext.ct_digest()))

    def abandon(self) -> None:
        self.abandoned = True
