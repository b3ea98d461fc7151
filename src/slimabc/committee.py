"""Coin-backed committee selection.

Each instance, every party contributes one coin share for the name
derived from the instance number; once f+1 distinct valid shares are
collected the toss yields f+1 distinct committee members, the same
tuple at every party; that tuple is the committee.  The machine takes
its own share when it is built; the first valid share per sender wins.
"""
from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from .crypto import CoinShare, PartyCrypto


def committee_coin_name(instance: int) -> bytes:
    return b"CS" + struct.pack(">Q", instance)


class CsState:
    """Per-party committee-selection machine for one instance; `own` is the
    local share, for the owner to multicast."""

    def __init__(self, instance: int, crypto: PartyCrypto):
        self.crypto = crypto
        self.name = committee_coin_name(instance)
        self.committee: Optional[Tuple[int, ...]] = None
        self._shares: Dict[int, CoinShare] = {}
        self.own = crypto.coin_share(self.name)
        self.on_share(crypto.party, self.own)

    def on_share(self, sender: int, share: CoinShare) -> Optional[Tuple[int, ...]]:
        if self.committee is not None:
            return self.committee
        if sender in self._shares:
            return None
        if not self.crypto.coin_share_verify(self.name, sender, share):
            return None
        self._shares[sender] = share
        size = self.crypto.f + 1  # f+1 shares elect f+1 members
        if len(self._shares) >= size:
            self.committee = self.crypto.coin_toss_committee(self.name, self._shares.values(), size)
        return self.committee
