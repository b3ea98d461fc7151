"""The asynchronous adversary: delivery policies and byzantine behaviors.

A policy picks which queued envelope the event loop delivers next (reorder,
delay, starve); the loop's fairness bound still delivers every envelope
eventually.  A behavior wraps a byzantine party's honest state machine in an
outbound filter (drop, corrupt, equivocate, mutate votes); the loop restores
the true sender on whatever a filter returns, mirroring authenticated
channels.  `POLICIES` and `BEHAVIORS` name each one once, for configs.
"""
from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .messages import (
    AbbaMainvote,
    AbbaPrevote,
    Envelope,
    PpbPayload,
    Proposal,
    Suggestion,
    VMsg,
    carries_pair,
)

# -- delivery policies ------------------------------------------------------------


class Policy:
    """Picks which pending envelope is delivered next (`choose` returns its
    index in the queue, a list of `Envelope`s in the order they were queued).
    Every policy is built as cls(policy_params, rng)."""

    def __init__(self, params: dict, rng: random.Random):
        """The base policy reads neither its parameters nor the RNG."""


class FifoPolicy(Policy):
    def choose(self, pending: List[Envelope]) -> int:
        return 0


class RandomPolicy(Policy):
    """Draws each index as `rng.randrange(len(pending))` does, without its
    call frames: `len(pending).bit_length()` random bits, drawn again while
    the result is out of range, so the sequence of choices is the same."""

    def __init__(self, params: dict, rng: random.Random):
        super().__init__(params, rng)
        self._getrandbits = rng.getrandbits

    def choose(self, pending: List[Envelope]) -> int:
        n = len(pending)
        k = n.bit_length()
        getrandbits = self._getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r


class TargetingPolicy(Policy):
    """Targets the (instance, slot) of the first proposal enqueued; the event
    loop shows it each queued envelope until the target is set.  The target
    never changes once set, so each queued envelope is classified against it
    once, by `touches` into `Envelope.targeted`, the first time `choose`
    looks at it: one queued before the first proposal can touch the target
    too."""

    target: Optional[Tuple[int, int]] = None

    def note_enqueue(self, env: Envelope) -> None:
        if self.target is None:
            for m in env.entries:
                if isinstance(m, Proposal):
                    self.target = (m.instance, m.slot)
                    return


class AdversarialDelayPolicy(TargetingPolicy):
    """Defers every envelope touching the target slot `budget` times."""

    def __init__(self, params: dict, rng: random.Random):
        super().__init__(params, rng)
        self.budget = params.get("budget", 12)

    def touches(self, env: Envelope) -> bool:
        inst, slot = self.target
        for m in env.entries:
            if m.slot == slot and m.instance == inst:
                return True
        return False

    def choose(self, pending: List[Envelope]) -> int:
        if self.target is None:
            return 0
        budget = self.budget
        for i, env in enumerate(pending):
            targeted = env.targeted
            if targeted is None:
                targeted = env.targeted = self.touches(env)
            if targeted and env.deferrals < budget:
                env.deferrals += 1
                continue
            return i
        return 0


class TargetedStarvePolicy(TargetingPolicy):
    """Holds the target slot's pair dissemination back while anything else
    is deliverable, so that slot's agreement must run without it."""

    def touches(self, env: Envelope) -> bool:
        inst, slot = self.target
        for m in env.entries:
            if m.slot == slot and m.instance == inst and carries_pair(m):
                return True
        return False

    def choose(self, pending: List[Envelope]) -> int:
        if self.target is not None:
            for i, env in enumerate(pending):
                targeted = env.targeted
                if targeted is None:
                    targeted = env.targeted = self.touches(env)
                if not targeted:
                    return i
        return 0


POLICIES = {
    "fifo": FifoPolicy,
    "random": RandomPolicy,
    "adversarial-delay": AdversarialDelayPolicy,
    "targeted-starve": TargetedStarvePolicy,
}


# -- byzantine behaviors -------------------------------------------------------------


def _with_last(obj, value):
    """A copy of record `obj` with its last field set to `value`: every
    share-carrying message kind keeps its share last, and every share type
    its share bytes."""
    return type(obj)(*obj[:-1], value)


def _flip_share(msg):
    share = msg.share
    raw = share.share_bytes
    return _with_last(msg, _with_last(share, bytes([raw[0] ^ 0xFF]) + raw[1:]))


class Behavior:
    """Built as cls(spec, crypto, rng).  A subclass defines `mutate(step, dst,
    msg)`, which the base `filter` calls per entry, or overrides `filter`."""

    def __init__(self, spec, crypto, rng: random.Random):
        self.spec = spec
        self.crypto = crypto
        self.rng = rng

    def crashed(self, step: int) -> bool:
        return False

    def filter(self, step: int, envs: List[Envelope]) -> List[Envelope]:
        """Pass each envelope through `mutate`, entry by entry: an envelope
        whose entries all come back as they were is passed on as is; one left
        with no entries is dropped."""
        out = []
        mutate = self.mutate
        for env in envs:
            dst, entries, changed = env.dst, [], False
            for m in env.entries:
                e = mutate(step, dst, m)
                if e is not m:
                    changed = True
                    if e is None:
                        continue
                entries.append(e)
            if not changed:
                out.append(env)
            elif entries:
                out.append(Envelope(env.sender, env.instance, tuple(entries), dst))
        return out


class CrashBehavior(Behavior):
    def crashed(self, step: int) -> bool:
        return step >= self.spec.at_step

    def filter(self, step: int, envs: List[Envelope]) -> List[Envelope]:
        return [] if self.crashed(step) else envs


class SilentBehavior(Behavior):
    def filter(self, step: int, envs: List[Envelope]) -> List[Envelope]:
        return []


class EquivocatePpbBehavior(Behavior):
    """Send a diverging ciphertext to every odd-numbered destination."""

    def mutate(self, step: int, dst: int, msg):
        if isinstance(msg, PpbPayload) and dst % 2 == 1:
            alt = self.crypto.tpke_enc(b"EQV" + msg.instance.to_bytes(8, "big"))
            return PpbPayload(msg.instance, msg.slot, alt)
        return msg


class CorruptSharesBehavior(Behavior):
    def mutate(self, step: int, dst: int, msg):
        if hasattr(msg, "share"):
            return _flip_share(msg)
        return msg


class WithholdSuggestionsBehavior(Behavior):
    def mutate(self, step: int, dst: int, msg):
        if isinstance(msg, (Proposal, Suggestion)):
            return None
        return msg


class RandomVotesBehavior(Behavior):
    """Redraws the bit of each pre-vote and the value of each main-vote,
    keeping the original share, and flips some 0-claims to 1.  The claim
    flip has had no effect since claims went bare (`BENCH_20.json`): no
    receiver reads a claim's bit.  It stays because removing it would shift
    this behavior's random draws and change every random-votes report."""

    def mutate(self, step: int, dst: int, msg):
        kind = type(msg)
        if kind is AbbaPrevote:
            return AbbaPrevote(msg.instance, msg.slot, msg.round, self.rng.randrange(2),
                               msg.justification, msg.share)
        if kind is AbbaMainvote:
            return AbbaMainvote(msg.instance, msg.slot, msg.round, self.rng.choice((0, 1, 2)),
                                msg.justification, msg.share)
        if kind is VMsg and msg.u == 0 and self.rng.random() < 0.3:
            return VMsg(msg.instance, msg.slot, 1)  # claim 1 without holding the pair
        return msg


BEHAVIORS = {
    "crash": CrashBehavior,
    "silent": SilentBehavior,
    "equivocate-ppb": EquivocatePpbBehavior,
    "corrupt-shares": CorruptSharesBehavior,
    "withhold-suggestions": WithholdSuggestionsBehavior,
    "random-votes": RandomVotesBehavior,
}
