"""Simulator: config validation, determinism, policies, behaviors, traces."""
import functools
import gc
import hashlib
import itertools
import json
import random
import typing

import pytest

from slimabc import BehaviorSpec, ConfigError, SimConfig, sim_run
from slimabc.crypto import key_setup
from slimabc.messages import (
    ABSTAIN,
    JUST_NONE,
    AbbaCoinShare,
    AbbaMainvote,
    AbbaPreprocess,
    AbbaPrevote,
    CsShare,
    DecShare,
    Envelope,
    Justification,
    Message,
    PpbPayload,
    PpbShare,
    Proposal,
    Recover,
    RecoverResp,
    Suggestion,
    VMsg,
)
from slimabc.adversary import BEHAVIORS, POLICIES, AdversarialDelayPolicy, SilentBehavior
from slimabc.config import config_from_dict, load_scenario, scenario_dict
from slimabc.protocol import Party
from slimabc.simnet import (HarnessParty, abba_harness_run, deliver, make_proven_pair,
                            replay_trace)


def base_cfg(**kw):
    d = dict(n=4, f=1, seed=0, instances=1, policy="fifo")
    d.update(kw)
    return SimConfig(**d)


# -- configuration --------------------------------------------------------------

def test_config_rejects_bad_resilience():
    for n, f in ((5, 1), (4, 2), (3, 0), (7, 1)):
        with pytest.raises(ConfigError):
            base_cfg(n=n, f=f).validate()


def test_config_rejects_bad_byzantine_sets():
    with pytest.raises(ConfigError):  # more than f
        base_cfg(byzantine=(BehaviorSpec(0, "crash"), BehaviorSpec(1, "crash")),
                 n=4, f=1).validate()
    with pytest.raises(ConfigError):  # duplicate party
        base_cfg(n=7, f=2,
                 byzantine=(BehaviorSpec(0, "crash"), BehaviorSpec(0, "silent"))).validate()
    with pytest.raises(ConfigError):  # unknown kind
        base_cfg(byzantine=(BehaviorSpec(0, "scramble"),)).validate()
    with pytest.raises(ConfigError):  # out-of-range party
        base_cfg(byzantine=(BehaviorSpec(9, "crash"),)).validate()


def test_config_rejects_bad_policy_and_ranges():
    with pytest.raises(ConfigError):
        base_cfg(policy="chaotic").validate()
    with pytest.raises(ConfigError):
        base_cfg(overlap=1.5).validate()
    with pytest.raises(ConfigError):
        base_cfg(batch_size=0).validate()
    with pytest.raises(ConfigError):
        base_cfg(instances=0).validate()


def test_config_checks_policy_params():
    for params in ({"fairness_bound": "x"}, {"fairness_bound": 0}, {"fairness_bound": 2.5},
                   {"fairness_bound": True}, {"budget": -1}, {"budget": "12"},
                   {"fairness_bnd": 2}, {"budget": 16, "budgett": 5}):
        with pytest.raises(ConfigError):
            base_cfg(policy="adversarial-delay", policy_params=params).validate()
    for params in ({}, {"fairness_bound": 3}, {"fairness_bound": 1, "budget": 0},
                   {"budget": 16}):
        base_cfg(policy="adversarial-delay", policy_params=params).validate()


@pytest.mark.parametrize("change", [{"seed": True}, {"seed": 1.5}, {"overlap": "x"},
                                    {"max_steps": 2.5}])
def test_sim_run_checks_field_types(change):
    """A config built in code gets the type checks a scenario file gets."""
    with pytest.raises(ConfigError):
        sim_run(base_cfg(**change))


def test_scenario_dict_roundtrip(tmp_path):
    cfg = base_cfg(n=7, f=2, seed=42, policy="adversarial-delay",
                   byzantine=(BehaviorSpec(1, "crash", at_step=30),), overlap=0.25)
    again = config_from_dict(scenario_dict(cfg))
    assert again == cfg
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_dict(cfg)))
    assert load_scenario(str(path)) == cfg


def test_scenario_format_tag_checked(tmp_path):
    path = tmp_path / "bad.json"
    d = scenario_dict(base_cfg())
    d["format"] = "something-else"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigError):
        load_scenario(str(path))


# -- determinism ------------------------------------------------------------------

def test_identical_config_identical_report():
    cfg = base_cfg(n=7, f=2, seed=17, instances=2, policy="random",
                   byzantine=(BehaviorSpec(3, "random-votes"),))
    a, b = sim_run(cfg), sim_run(cfg)
    assert a.to_json() == b.to_json()


def test_seed_changes_schedule():
    digests = {sim_run(base_cfg(seed=s, policy="random")).log_digest for s in range(4)}
    # delivered logs may coincide, the full trace digest should not for all
    assert len(digests) > 1


# -- policies and behaviors --------------------------------------------------------

def test_every_policy_terminates_and_agrees():
    for policy in ("fifo", "random", "adversarial-delay", "targeted-starve"):
        rep = sim_run(base_cfg(n=7, f=2, seed=5, instances=2, policy=policy))
        assert rep.ok, (policy, rep.failures)
        assert rep.finalized_instances == 2


def test_every_behavior_tolerated():
    kinds = ("crash", "silent", "equivocate-ppb", "corrupt-shares",
             "withhold-suggestions", "random-votes")
    for kind in kinds:
        byz = (BehaviorSpec(0, kind, at_step=25), BehaviorSpec(4, kind, at_step=25))
        rep = sim_run(base_cfg(n=7, f=2, seed=8, instances=2, policy="random",
                               byzantine=byz))
        assert rep.ok, (kind, rep.failures)


def test_delay_policy_defers_an_envelope_queued_before_its_target_is_known():
    """The target member's own payload is queued before its proposal names
    the target; it is still deferred `budget` times, then chosen."""
    provider = key_setup(128, 4, 0)
    ct, proof = make_proven_pair(provider, 1, 2, b"batch")
    budget = 3
    pol = AdversarialDelayPolicy({"budget": budget}, random.Random(0))
    early = Envelope(2, 1, (PpbPayload(1, 2, ct),), 0)
    # A fresh envelope's bookkeeping reads the class defaults.
    assert (early.enqueued, early.deferrals, early.targeted, early._size) == (0, 0, None, None)
    assert not {"enqueued", "deferrals", "targeted", "_size"} & vars(early).keys()
    pol.note_enqueue(early)
    assert pol.target is None
    proposal = Envelope(2, 1, (Proposal(1, 2, ct, proof),), 1)
    other = Envelope(0, 1, (VMsg(1, 0, 0),), 1)
    for env in (proposal, other):
        pol.note_enqueue(env)
    assert pol.target == (1, 2)
    pending = [early, proposal, other]
    for _ in range(budget):
        assert pol.choose(pending) == 2
    assert pol.choose(pending) == 0
    assert early.deferrals == proposal.deferrals == budget
    assert (other.deferrals, other.targeted) == (0, False)  # looked at, never deferred


def filter_envelopes(provider):
    """Envelopes from party 3 mixing votes, claims, pairs and a recovery."""
    ct, proof = make_proven_pair(provider, 1, 3, b"batch")
    share = provider.sig_share(3, b"vote")
    just = Justification(JUST_NONE)
    entries = (
        AbbaPrevote(1, 0, 1, 1, just, share),
        AbbaMainvote(1, 0, 2, ABSTAIN, just, share),
        VMsg(1, 0, 0),
        VMsg(1, 1, 1),
        PpbPayload(1, 3, ct),
        Suggestion(1, 3, ct, proof),
        Recover(1, 2),
    )
    envs = [Envelope(3, 1, entries[i % 7:] + entries[:i % 7], dst=i % 3) for i in range(30)]
    return envs + [Envelope(3, 1, (Recover(1, 2),), dst=0),
                   Envelope(3, 1, (Suggestion(1, 3, ct, proof),), dst=1)]


def construct_filter(behavior, step, envs):
    """Behavior.filter building a new envelope for every envelope it keeps.
    Returns (envelope, source envelope, every entry came back as is) each."""
    out = []
    for env in envs:
        mutated = [behavior.mutate(step, env.dst, m) for m in env.entries]
        entries = tuple(e for e in mutated if e is not None)
        if entries:
            same = all(e is m for e, m in zip(mutated, env.entries))
            out.append((Envelope(env.sender, env.instance, entries, dst=env.dst), env, same))
    return out


@pytest.mark.parametrize("kind", ["equivocate-ppb", "corrupt-shares", "withhold-suggestions",
                                  "random-votes"])
def test_behavior_filter_matches_construction_and_passes_unchanged_envelopes(kind):
    provider = key_setup(128, 4, 0)
    envs = filter_envelopes(provider)

    def behavior():
        return BEHAVIORS[kind](BehaviorSpec(3, kind), provider.party_handle(3),
                               random.Random("byz"))

    got = behavior().filter(5, envs)
    want = construct_filter(behavior(), 5, envs)
    assert got == [env for env, _, _ in want]
    assert [g is src for g, (_, src, _) in zip(got, want)] == [same for _, _, same in want]
    assert {same for _, _, same in want} == {True, False}


def test_deliver_restores_the_true_sender_of_a_filtered_envelope(monkeypatch):
    """A behavior cannot spoof: every envelope its filter returns naming
    another sender is queued, and so delivered and accounted, under the
    byzantine party's own id."""
    returned = []

    def spoof(self, step, envs):
        out = [Envelope((env.sender + 1) % 4, env.instance, env.entries, env.dst)
               for env in envs]
        returned.extend(out)
        return out

    monkeypatch.setattr(SilentBehavior, "filter", spoof)
    cfg = SimConfig(4, 1, seed=0, policy="fifo", byzantine=(BehaviorSpec(3, "silent"),))
    provider = key_setup(128, 4, 0)
    parties = [HarnessParty(p, provider.party_handle(p), cfg, None) for p in range(4)]
    delivered = []
    steps, messages, _, _, stalled = deliver(
        parties, cfg, on_step=lambda step, env: delivered.append(env))
    assert not stalled and returned and {env.sender for env in returned} == {0}
    spoofed = {id(env.entries) for env in returned}
    from_byz = [env for env in delivered if id(env.entries) in spoofed]
    assert from_byz and {env.sender for env in from_byz} == {3}
    assert messages == sum(env.sender != 3 for env in delivered)  # honest traffic only


def test_random_votes_change_votes_as_record_replace_does():
    provider = key_setup(128, 4, 0)
    envs = filter_envelopes(provider)
    spec = BehaviorSpec(3, "random-votes")
    got = BEHAVIORS["random-votes"](spec, provider.party_handle(3), random.Random(9)).filter(
        1, envs)
    rng = random.Random(9)

    def mutate(msg):
        if isinstance(msg, AbbaPrevote):
            return msg._replace(bit=rng.randrange(2))
        if isinstance(msg, AbbaMainvote):
            return msg._replace(value=rng.choice((0, 1, 2)))
        if isinstance(msg, VMsg) and msg.u == 0 and rng.random() < 0.3:
            return msg._replace(u=1)
        return msg

    want = [Envelope(e.sender, e.instance, tuple(mutate(m) for m in e.entries), dst=e.dst)
            for e in envs]
    assert got == want
    assert got[-1] is envs[-1] and got[-2] is envs[-2]  # no vote or claim: passed as is


def test_flipped_shares_equal_record_replace():
    """corrupt-shares builds each changed message directly; it must equal the
    `_replace` reference for every share-carrying kind."""
    provider = key_setup(128, 4, 0)
    sig = provider.sig_share(3, b"vote")
    coin = provider.coin_share(3, b"coin")
    dec = provider.tpke_dec_share(3, provider.tpke_enc(b"batch"))
    just = Justification(JUST_NONE)
    msgs = [CsShare(1, coin), PpbShare(1, 3, sig), AbbaPreprocess(1, 0, 1, sig),
            AbbaPrevote(1, 0, 1, 1, just, sig), AbbaMainvote(1, 0, 2, ABSTAIN, just, sig),
            AbbaCoinShare(1, 0, 1, coin), DecShare(1, 3, dec)]
    assert {type(m) for m in msgs} == {
        kind for kind in typing.get_args(Message)
        if "share" in kind._fields}
    behavior = BEHAVIORS["corrupt-shares"](BehaviorSpec(3, "corrupt-shares"),
                                           provider.party_handle(3), random.Random(0))
    for msg in msgs:
        raw = msg.share.share_bytes
        flipped = msg.share._replace(share_bytes=bytes([raw[0] ^ 0xFF]) + raw[1:])
        got = behavior.mutate(0, 1, msg)
        assert got == msg._replace(share=flipped)
        assert type(got) is type(msg) and type(got.share) is type(msg.share)


def test_equivocated_payload_equals_record_replace():
    provider = key_setup(128, 4, 0)
    payload = PpbPayload(2, 3, provider.tpke_enc(b"batch"))
    behavior = BEHAVIORS["equivocate-ppb"](BehaviorSpec(3, "equivocate-ppb"),
                                           provider.party_handle(3), random.Random(0))
    alt = provider.tpke_enc(b"EQV" + (2).to_bytes(8, "big"))
    assert behavior.mutate(0, 1, payload) == payload._replace(ciphertext=alt)
    assert behavior.mutate(0, 2, payload) is payload


@pytest.mark.parametrize("seed", (0, 7))
def test_random_policy_draws_as_randrange(seed):
    """Lengths 1, 2, every power of two and one past it, where the rejection
    loop of `randrange` redraws least and most often."""
    lengths = sorted({m for k in range(12) for m in (2**k, 2**k + 1)})
    pol = POLICIES["random"]({}, random.Random(seed))
    ref = random.Random(seed)
    for length in lengths * 25:
        assert pol.choose([None] * length) == ref.randrange(length)


def test_random_votes_draw_as_randrange_choice_and_random():
    """Over many seeds and mixes of votes and claims, each redrawn bit is
    `randrange(2)`, each redrawn value `choice((0, 1, 2))` and each claim
    flip `random() < 0.3`, drawn from one generator in message order."""
    provider = key_setup(128, 4, 0)
    share = provider.sig_share(3, b"vote")
    just = Justification(JUST_NONE)
    msgs = (AbbaPrevote(1, 0, 1, 1, just, share), AbbaMainvote(1, 0, 2, ABSTAIN, just, share),
            VMsg(1, 0, 0))
    for seed in range(100):
        behavior = BEHAVIORS["random-votes"](BehaviorSpec(3, "random-votes"),
                                             provider.party_handle(3),
                                             random.Random(f"{seed}|byz|3"))
        ref = random.Random(f"{seed}|byz|3")
        mix = random.Random(seed)
        for _ in range(40):
            msg = mix.choice(msgs)
            if type(msg) is AbbaPrevote:
                want = msg._replace(bit=ref.randrange(2))
            elif type(msg) is AbbaMainvote:
                want = msg._replace(value=ref.choice((0, 1, 2)))
            else:
                want = msg._replace(u=1) if ref.random() < 0.3 else msg
            assert behavior.mutate(1, 0, msg) == want, seed


def test_lemma_checks_recorded_under_starvation():
    rep = sim_run(base_cfg(n=7, f=2, seed=13, instances=2, policy="targeted-starve"))
    assert rep.ok, rep.failures
    assert len(rep.lemma) == 2
    for snap in rep.lemma:
        assert snap["lemma1"] and snap["lemma2"]


def test_fairness_override_counter_exposed():
    rep = sim_run(base_cfg(n=4, f=1, seed=2, policy="targeted-starve",
                           policy_params={"fairness_bound": 16}))
    assert rep.ok
    assert rep.fairness_overrides >= 0


# -- traces --------------------------------------------------------------------------

def test_trace_replay_roundtrip(tmp_path):
    trace = tmp_path / "run.trace"
    cfg = base_cfg(n=4, f=1, seed=6, instances=2, policy="random")
    sim_run(cfg, trace_path=str(trace))
    ok, step, detail = replay_trace(str(trace))
    assert ok, (step, detail)


def test_trace_replay_catches_tampering(tmp_path):
    trace = tmp_path / "run.trace"
    sim_run(base_cfg(seed=7), trace_path=str(trace))
    lines = trace.read_text().splitlines()
    rec = json.loads(lines[5])
    rec["size"] = rec["size"] + 1
    lines[5] = json.dumps(rec)
    trace.write_text("\n".join(lines) + "\n")
    ok, step, detail = replay_trace(str(trace))
    assert not ok
    assert step is not None


def test_trace_replay_names_a_truncated_trace(tmp_path):
    trace = tmp_path / "run.trace"
    sim_run(base_cfg(seed=7), trace_path=str(trace))
    lines = trace.read_text().splitlines()
    assert len(lines) == 89  # the header and steps 1..88
    trace.write_text("\n".join(lines[:-3]) + "\n")
    assert replay_trace(str(trace)) == (False, 86, "trace ended early")


def test_trace_replay_names_an_over_long_trace(tmp_path):
    trace = tmp_path / "run.trace"
    sim_run(base_cfg(seed=7), trace_path=str(trace))
    lines = trace.read_text().splitlines()
    extra = json.loads(lines[-1])
    extra["step"] += 1
    trace.write_text("\n".join(lines + [json.dumps(extra)]) + "\n")
    assert replay_trace(str(trace)) == (False, 89, "replay ended early")


# -- agreement harness ----------------------------------------------------------------

def test_harness_deterministic_and_validated():
    args = dict(n=4, f=1, seed=3, inputs={0: 1, 1: 1, 2: 0, 3: 0})
    a = abba_harness_run(**args)
    b = abba_harness_run(**args)
    assert a == b
    with pytest.raises(ConfigError):
        abba_harness_run(4, 1, 0, {0: 1})  # one bit per party required
    with pytest.raises(ConfigError):
        abba_harness_run(4, 1, 0, {0: 2, 1: 0, 2: 0, 3: 0})
    with pytest.raises(ConfigError):  # bools are not input bits
        abba_harness_run(4, 1, 0, [True, False, True, True])
    for max_steps in (0, -1, 2.5, True):
        with pytest.raises(ConfigError):  # no vacuous or untyped step budget
            abba_harness_run(4, 1, 0, [1, 1, 0, 0], max_steps=max_steps)
    assert abba_harness_run(4, 1, 0, [1, 1, 0, 0], max_steps=1)["steps"] == 1
    with pytest.raises(ConfigError):  # n != 3f+1
        abba_harness_run(4, 2, 0, [1, 1, 0, 0])
    with pytest.raises(ConfigError):  # unknown behavior kind
        abba_harness_run(4, 1, 0, [1, 1, 0, 0], byzantine=(BehaviorSpec(0, "scramble"),))
    with pytest.raises(ConfigError):  # more than f byzantine parties
        abba_harness_run(4, 1, 0, [1, 1, 0, 0],
                         byzantine=(BehaviorSpec(0, "crash"), BehaviorSpec(1, "crash")))
    for seed in (True, 1.5):
        with pytest.raises(ConfigError):  # the seed is checked as a SimConfig field
            abba_harness_run(4, 1, seed, [1, 1, 0, 0])


def test_harness_party_answers_recover_with_its_pair():
    provider = key_setup(128, 4, 2)
    pair = make_proven_pair(provider, 1, 0, b"payload")
    cfg = SimConfig(n=4, f=1)
    holder = HarnessParty(0, provider.party_handle(0), cfg, pair)
    other = HarnessParty(1, provider.party_handle(1), cfg, None)
    holder.begin()
    other.begin()
    (resp,) = holder.handle(Envelope(2, 1, (Recover(1, 0),), dst=0))
    assert (resp.sender, resp.instance, resp.dst) == (0, 1, 2)
    assert resp.entries == (RecoverResp(1, 0, *pair),)
    assert other.handle(Envelope(2, 1, (Recover(1, 0),), dst=1)) == []


def test_harness_party_drops_pair_traffic_it_cannot_fill_in():
    """The harness runs no provable broadcast: a payload, and a proof-only
    proposal or suggestion for a slot whose pair the party lacks, are
    dropped, not raised on."""
    provider = key_setup(128, 4, 2)
    ct, proof = make_proven_pair(provider, 1, 0, b"payload")
    for entry in (PpbPayload(1, 2, ct), Proposal(1, 0, None, proof),
                  Suggestion(1, 0, None, proof)):
        party = HarnessParty(1, provider.party_handle(1), SimConfig(n=4, f=1), None)
        party.begin()
        sender = entry.slot
        assert party.handle(Envelope(sender, 1, (entry,), dst=1)) == []
        assert party.inv.pair is None


def test_stalled_and_crash_runs_keep_stop_and_step_counts():
    """The stop check ends a run at the same step whether it finishes or
    runs out of steps (values recorded before the O(1) unfinished set)."""
    cut = sim_run(base_cfg(n=7, f=2, seed=5, instances=2, policy="random", max_steps=300))
    assert (cut.stalled, cut.steps) == (True, 300)
    crash = sim_run(base_cfg(n=7, f=2, seed=5, instances=2, policy="random",
                             byzantine=(BehaviorSpec(0, "crash", at_step=15),
                                        BehaviorSpec(3, "crash", at_step=0))))
    assert (crash.stalled, crash.steps) == (False, 443)
    r = abba_harness_run(4, 1, 7, [1, 1, 0, 0], max_steps=40)
    assert (r["stalled"], r["steps"]) == (True, 40)
    r = abba_harness_run(4, 1, 7, [1, 1, 0, 0], byzantine=(BehaviorSpec(1, "crash", at_step=3),))
    assert (r["stalled"], r["steps"]) == (False, 36)


def test_the_loop_hands_a_crashed_party_nothing_from_its_crash_step(monkeypatch):
    """A crashed party's `handle` is never called at or after its `at_step`,
    and its `begin` is never called when that step is 0, so the loop alone
    silences it and `CrashBehavior.filter` passes what it sees unchanged."""
    calls = []  # (pid, step) of every begin (step 0) and handle
    now = [0]  # the step being delivered
    begin, handle = Party.begin, Party.handle
    monkeypatch.setattr(Party, "begin", lambda self: calls.append((self.pid, 0)) or begin(self))
    monkeypatch.setattr(Party, "handle",
                        lambda self, env: calls.append((self.pid, now[0])) or handle(self, env))
    handled_before_crash = 0
    for n, seed in itertools.product((4, 7), range(20)):
        f, at = (n - 1) // 3, 7 * seed % 40
        cfg = base_cfg(n=n, f=f, seed=seed, instances=2, policy="random",
                       byzantine=tuple(BehaviorSpec(p, "crash", at_step=at) for p in range(f)))
        cfg.validate()
        provider = key_setup(cfg.security_param, n, seed)
        parties = [Party(p, provider.party_handle(p), cfg) for p in range(n)]
        calls.clear()
        now[0] = 1
        deliver(parties, cfg, on_step=lambda step, env: now.__setitem__(0, step + 1))
        crashed = [(pid, step) for pid, step in calls if pid < f]
        assert all(step < at for _, step in crashed), (n, seed)
        assert {pid for pid, step in crashed if step == 0} == (set(range(f)) if at else set())
        handled_before_crash += sum(step > 0 for _, step in crashed)
    assert handled_before_crash > 0


def test_harness_all_zero_and_all_one():
    for bit in (0, 1):
        r = abba_harness_run(4, 1, 9, {i: bit for i in range(4)})
        assert not r["stalled"]
        assert {v[0] for v in r["decisions"].values()} == {bit}


@pytest.mark.parametrize("enabled", (True, False))
def test_runs_pause_the_collector_and_restore_it(enabled, monkeypatch):
    """`sim_run` and `abba_harness_run` run with the cyclic collector paused
    and leave it as they found it, also when a party raises mid-run."""
    seen = []
    choose = POLICIES["random"].choose

    def watched(self, pending):
        seen.append(gc.isenabled())
        return choose(self, pending)

    monkeypatch.setattr(POLICIES["random"], "choose", watched)
    runs = (lambda: sim_run(base_cfg(seed=1, policy="random")),
            lambda: abba_harness_run(7, 2, 1, [1, 1, 1, 0, 0, 0, 0]))
    try:
        (gc.enable if enabled else gc.disable)()
        for run in runs:
            run()
            assert gc.isenabled() is enabled
        handle, calls = Party.handle, []

        def failing(self, env):
            calls.append(env)
            if len(calls) == 50:
                raise RuntimeError("party failed")
            return handle(self, env)

        monkeypatch.setattr(Party, "handle", failing)
        monkeypatch.setattr(HarnessParty, "handle", failing)
        for run in runs:
            calls.clear()
            with pytest.raises(RuntimeError, match="party failed"):
                run()
            assert len(calls) == 50
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen and True not in seen


HARNESS_KINDS = ("random-votes", "crash", "silent", "corrupt-shares")


def no_cycle_runs():
    """(run, stalls) cases: n=4 runs, honest-only and with each behavior, under
    each policy; n=7 runs whose parties stop mid-instance with live slots
    (crashed late, or cut short); and one harness run per `HARNESS_KINDS` entry."""
    for kind in ("honest", *BEHAVIORS):
        byz = () if kind == "honest" else (BehaviorSpec(0, kind, at_step=20),)
        for policy in POLICIES:
            cfg = base_cfg(seed=3, instances=2, policy=policy, byzantine=byz)
            yield pytest.param(functools.partial(sim_run, cfg), False, id=f"{kind}-{policy}")
    for at_step in (20, 200):
        cfg = base_cfg(n=7, f=2, seed=3, instances=2, policy="random",
                       byzantine=(BehaviorSpec(0, "corrupt-shares"),
                                  BehaviorSpec(1, "crash", at_step=at_step)))
        yield pytest.param(functools.partial(sim_run, cfg), False, id=f"crash-late-{at_step}")
    cut = base_cfg(n=7, f=2, seed=5, instances=2, policy="random", max_steps=300)
    yield pytest.param(functools.partial(sim_run, cut), True, id="cut-short")
    for kind in HARNESS_KINDS:
        run = functools.partial(abba_harness_run, 7, 2, 5, [0, 0, 1, 1, 1, 0, 1],
                                byzantine=(BehaviorSpec(0, kind, at_step=20),))
        yield pytest.param(run, False, id=f"harness-{kind}")


@pytest.mark.parametrize("run, stalls", no_cycle_runs())
def test_finished_runs_leave_no_reference_cycles(run, stalls):
    """A finished run is freed by reference counting alone, so the simulator
    may pause the cyclic collector for it."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        if isinstance(result, dict):  # the harness's
            assert result["stalled"] is stalls
        else:
            assert result.stalled is stalls and (stalls or result.ok), result.failures
        assert gc.collect() == 0
    finally:
        gc.enable()
HARNESS_DIGEST = "a0d61d0f998d1f0b5cc9f973f4efea1793632bdf008722fa9b0b9deaad3f34cf"


def harness_grid():
    """144 harness runs: n in {4, 7, 13} x four behaviors x four policies x 3 seeds."""
    for n in (4, 7, 13):
        f = (n - 1) // 3
        for kind in HARNESS_KINDS:
            for policy in POLICIES:
                for seed in range(3):
                    rng = random.Random(f"harness-pin|{n}|{kind}|{policy}|{seed}")
                    inputs = [rng.randrange(2) for _ in range(n)]
                    byz = tuple(BehaviorSpec(p, kind, at_step=5 * p) for p in range(f))
                    yield abba_harness_run(n, f, seed, inputs, byzantine=byz, policy=policy)


def test_harness_results_pinned():
    h = hashlib.sha256()
    for res in harness_grid():
        h.update(json.dumps(res, sort_keys=True).encode())
    assert h.hexdigest() == HARNESS_DIGEST
