"""Observe-only tracing of simulator runs, installed from outside the program.

`Tracer.install()` replaces public methods of the program's classes with
wrappers that time each call as a span and count it; `uninstall()` puts the
originals back.  The wrappers only read arguments and results, so a traced
run's report is byte-identical to an untraced one (the benchmark checks
this on every traced run).

Spans are kept in memory as columns (name, start, end, parent, run id) and
written out once, at the end.  Their clock excludes the tracer's own
bookkeeping, so a span's duration is the program's time, not the tracer's.
"""
from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from slimabc import crypto, messages
from slimabc.abba import AbbaMachine
from slimabc.committee import CsState
from slimabc.invocation import SlotInvocation
from slimabc.ppb import PpbReceiver, PpbSender
from slimabc.protocol import Party
from slimabc import simnet

STAGES = ("coin", "ppb", "pairs", "vclaims", "abba", "decrypt")
STAGE_OF = {
    messages.CsShare: "coin",
    messages.PpbPayload: "ppb",
    messages.PpbShare: "ppb",
    messages.Proposal: "pairs",
    messages.Suggestion: "pairs",
    messages.VMsg: "vclaims",
    messages.AbbaPreprocess: "abba",
    messages.AbbaPrevote: "abba",
    messages.AbbaMainvote: "abba",
    messages.AbbaCoinShare: "abba",
    messages.AbbaDecision: "abba",
    messages.DecShare: "decrypt",
    messages.Recover: "decrypt",
    messages.RecoverResp: "decrypt",
}
# Wire layout of Envelope.encode: each entry is a 1-byte tag and a 4-byte body
# length before its body; each envelope starts with sender (2), instance (8)
# and entry count (2).
ENTRY_HEADER = 5
ENVELOPE_HEADER = 12

COIN_FUNCTIONS = ("coin_share", "coin_share_verify", "coin_toss_bit", "coin_toss_committee")
POLICIES = (simnet.FifoPolicy, simnet.RandomPolicy, simnet.AdversarialDelayPolicy,
            simnet.TargetedStarvePolicy)
BEHAVIORS = (simnet.Behavior, simnet.CrashBehavior, simnet.SilentBehavior)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._group_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_run = array("q")
        self._stack: list = []  # open spans: [index, name id, group ids, start, child time]
        self._excluded = 0.0  # tracer bookkeeping time, taken out of the span clock
        self.calls: List[int] = []
        self.name_busy: List[float] = []  # outermost spans of each name
        self._name_depth: List[int] = []
        self.group_busy: List[float] = []  # outermost spans of each group
        self.group_self: List[float] = []  # span time minus direct child spans
        self._group_depth: List[int] = []
        self.counts: Counter = Counter()
        self.run_id = -1
        self.honest: frozenset = frozenset()
        self.pending: Optional[list] = None
        self._distinct: Dict[str, set] = {}
        self._recovering: set = set()
        self._patches: List[Tuple[type, str, object]] = []

    # -- spans --------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.name_busy.append(0.0)
            self._name_depth.append(0)
        return self._name_ids[name]

    def _group_id(self, group: str) -> int:
        if group not in self._group_ids:
            self._group_ids[group] = len(self._group_ids)
            self.group_busy.append(0.0)
            self.group_self.append(0.0)
            self._group_depth.append(0)
        return self._group_ids[group]

    def _open(self, nid: int, gids: Tuple[int, ...], t_raw: float) -> None:
        now = perf_counter()
        self._excluded += now - t_raw
        start = now - self._excluded
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_run.append(self.run_id)
        self._stack.append([index, nid, gids, start, 0.0])
        self._name_depth[nid] += 1
        for g in gids:
            self._group_depth[g] += 1

    def _close(self) -> float:
        t_raw = perf_counter()
        end = t_raw - self._excluded
        index, nid, gids, start, child = self._stack.pop()
        d = end - start
        self.span_end[index] = end
        self.calls[nid] += 1
        if self._name_depth[nid] == 1:
            self.name_busy[nid] += d
        self._name_depth[nid] -= 1
        for g in gids:
            if self._group_depth[g] == 1:
                self.group_busy[g] += d
            self._group_depth[g] -= 1
            self.group_self[g] += d - child
        if self._stack:
            self._stack[-1][4] += d
        return t_raw

    @contextmanager
    def span(self, name: str, *groups: str):
        nid, gids = self._name_id(name), tuple(self._group_id(g) for g in groups)
        self._open(nid, gids, perf_counter())
        try:
            yield
        finally:
            self._close()

    # -- installing and removing wrappers -------------------------------------------

    def _wrap(self, cls: type, attr: str, name: str, groups: Tuple[str, ...],
              pre: Optional[Callable] = None, post: Optional[Callable] = None) -> None:
        orig = cls.__dict__[attr]
        nid, gids = self._name_id(name), tuple(self._group_id(g) for g in groups)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t_raw = perf_counter()
            token = pre(args) if pre is not None else None
            tracer._open(nid, gids, t_raw)
            try:
                result = orig(*args, **kwargs)
            finally:
                t_end = tracer._close()
            if post is not None:
                post(args, result, token)
            tracer._excluded += perf_counter() - t_end
            return result

        self._patches.append((cls, attr, orig))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        tp = crypto.ThresholdProvider
        for attr in ("sig_share", "combine_shares", "tpke_dec_share", "tpke_dec_share_verify",
                     "ciphertext_wellformed"):
            self._wrap(tp, attr, f"crypto.{attr}", ("crypto",))
        self._wrap(tp, "__init__", "crypto.key_setup", ("crypto",))
        self._wrap(tp, "verify_share", "crypto.verify_share", ("crypto",),
                   post=self._count_verify_share)
        self._wrap(tp, "verify_signature", "crypto.verify_signature", ("crypto",),
                   post=self._count_verify_signature)
        self._wrap(tp, "tpke_enc", "crypto.tpke_enc", ("crypto",),
                   pre=lambda a: self._add("crypto.tpke_enc.bytes", len(a[1])))
        self._wrap(tp, "tpke_dec", "crypto.tpke_dec", ("crypto",),
                   pre=lambda a: self._add("crypto.tpke_dec.bytes", a[1].length_plain))
        for attr in COIN_FUNCTIONS:
            self._wrap(tp, attr, f"crypto.{attr}", ("crypto", "crypto.coin"))

        self._wrap(messages.Envelope, "size", "messages.size", ("messages.size",))
        self._wrap(CsState, "on_share", "committee.on_share", ("committee",))
        self._wrap(PpbReceiver, "on_payload", "ppb.on_payload", ("ppb",))
        self._wrap(PpbSender, "on_share", "ppb.on_share", ("ppb",))
        for attr in ("input", "set_evidence_known", "on_preprocess", "on_prevote",
                     "on_mainvote", "on_coin_share", "on_decision"):
            self._wrap(AbbaMachine, attr, f"abba.{attr}", ("abba",))
        self._wrap(SlotInvocation, "record_pair", "invocation.record_pair", ("invocation",),
                   pre=lambda a: a[0].pair is None, post=self._count_record_pair)
        for attr in ("inv_start", "on_v", "on_preprocess", "on_prevote", "on_mainvote",
                     "on_coin_share", "on_decision", "on_dec_share", "on_recover_resp"):
            self._wrap(SlotInvocation, attr, f"invocation.{attr}", ("invocation",),
                       post=self._note_recover)

        self.install_wire_accounting()
        self._wrap(Party, "begin", "protocol.begin", ("protocol",))
        self._wrap(simnet.HarnessParty, "begin", "simnet.harness.begin", ("simnet.harness",))
        for cls in POLICIES:
            self._wrap(cls, "choose", "simnet.choose", ("simnet.choose",),
                       pre=self._on_choose)
        for cls in BEHAVIORS:
            self._wrap(cls, "filter", "simnet.filter", ("simnet.filter",))
        self._wrap(simnet.RunRecorder, "attach", "simnet.recorder.attach", ("simnet.recorder",),
                   pre=self._on_attach)
        for attr in ("on_committee", "on_sweep", "on_abba_input", "on_slot_decided",
                     "on_finalized", "finish"):
            self._wrap(simnet.RunRecorder, attr, f"simnet.recorder.{attr}", ("simnet.recorder",))

    def install_wire_accounting(self) -> None:
        """Wrap only the two party entry points, to account the bytes they receive."""
        self._wrap(Party, "handle", "protocol.handle", ("protocol",), pre=self._on_envelope)
        self._wrap(simnet.HarnessParty, "handle", "simnet.harness.handle", ("simnet.harness",),
                   pre=self._on_envelope)

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, orig = self._patches.pop()
            setattr(cls, attr, orig)

    @contextmanager
    def installed(self, wire_only: bool = False):
        try:
            if wire_only:
                self.install_wire_accounting()
            else:
                self.install()
            yield self
        finally:
            self.uninstall()

    # -- per-run state and counters -------------------------------------------------

    def begin_run(self, honest) -> None:
        """Start a new run id; `honest` are the parties whose traffic is accounted."""
        self.run_id += 1
        self.honest = frozenset(honest)
        self.pending = None
        self._distinct = {"crypto.verify_share": set(), "crypto.verify_signature": set()}
        self._recovering = set()

    def _add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def _distinct_input(self, name: str, key) -> None:
        seen = self._distinct[name]
        if key not in seen:
            seen.add(key)
            self.counts[name + ".distinct"] += 1

    def _count_verify_share(self, args, result, _token) -> None:
        self._distinct_input("crypto.verify_share", args[1:4])
        if not result:
            self.counts["crypto.verify_share.rejected"] += 1

    def _count_verify_signature(self, args, result, _token) -> None:
        self._distinct_input("crypto.verify_signature", args[1:3])

    def _count_record_pair(self, args, result, was_empty) -> None:
        if was_empty and args[0].pair is not None:
            self.counts["invocation.record_pair.adopted"] += 1
        self._note_recover(args, result, None)

    def _note_recover(self, args, _result, _token) -> None:
        inv = args[0]
        if inv._recover_sent and inv not in self._recovering:
            self._recovering.add(inv)
            self.counts["invocation.recover_sent"] += 1

    def _on_attach(self, args) -> None:
        self.pending = args[2]

    def _on_choose(self, args) -> None:
        if self.pending is None:  # the harness loop never attaches a recorder
            self.pending = args[1]

    def _on_envelope(self, args) -> None:
        env = args[1]
        if self.pending is not None:
            queued = len(self.pending) + 1  # the delivered envelope was still queued
            self.counts["simnet.pending.sum"] += queued
            self.counts["simnet.pending.samples"] += 1
            if queued > self.counts["simnet.pending.max"]:
                self.counts["simnet.pending.max"] = queued
        if env.sender not in self.honest:
            return
        counts = self.counts
        counts["messages.envelopes"] += 1
        counts["messages.entries"] += len(env.entries)
        for m in env.entries:
            stage = STAGE_OF[type(m)]
            counts[f"messages.{stage}.entries"] += 1
            counts[f"messages.{stage}.bytes"] += len(m.encode_body())

    # -- results ----------------------------------------------------------------------

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[self._name_ids[n]] for n in names if n in self._name_ids)

    def busy_of(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self.name_busy[nid]

    def group_busy_of(self, group: str) -> float:
        gid = self._group_ids.get(group)
        return 0.0 if gid is None else self.group_busy[gid]

    def group_self_of(self, group: str) -> float:
        gid = self._group_ids.get(group)
        return 0.0 if gid is None else self.group_self[gid]

    def wire_bytes(self) -> int:
        """Bytes of honest envelopes handled, rebuilt from the stage accounting."""
        c = self.counts
        return (sum(c[f"messages.{s}.bytes"] for s in STAGES)
                + ENTRY_HEADER * c["messages.entries"]
                + ENVELOPE_HEADER * c["messages.envelopes"])

    def write_spans(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            run=np.frombuffer(self.span_run, dtype=np.int64),
        )
