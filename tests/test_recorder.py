"""The run recorder's property checks: each one made to fire by a planted fault.

Every case runs a fault-free n=4 run of two instances, plants one violation
into the recorder's records or the parties' state, and calls `finish`, once
as if the run had finished and once as if it had stalled."""
import functools
import hashlib

import pytest

from slimabc.config import SimConfig
from slimabc.crypto import key_setup
from slimabc.protocol import Party, RequestBatch
from slimabc.recorder import RunRecorder
from slimabc.simnet import deliver

TOTALITY = "totality: some honest party did not finish all instances"


def _committee_mismatch(rec, parties):
    rec.committees[1][2] = (2, 3)


def _logs_diverge_in_length(rec, parties):
    parties[3].log.pop()


def _logs_diverge_in_order(rec, parties):
    log = parties[3].log
    log[0], log[1] = log[1], log[0]


def _duplicate_request(rec, parties):
    for p in parties:
        p.log.append(p.log[0])


def _slot_not_in_committee(rec, parties):
    ref = parties[0]
    batch = RequestBatch(2, 1, ref.outputs_by_instance[1][0].requests)
    ref.outputs_by_instance[1][2] = batch
    ref.archive[1][2] = (rec.provider.tpke_enc(batch.encode()), ref.archive[1][0][1])


def _missing_pair(rec, parties):
    del parties[0].archive[1][0]


def _no_reencryption_match(rec, parties):
    ref = parties[0]
    ref.archive[1][0] = (rec.provider.tpke_enc(b"another batch"), ref.archive[1][0][1])


def _binding_broken(rec, parties):
    ref = parties[0]
    batch = RequestBatch(1, 1, ref.outputs_by_instance[1][0].requests)
    ref.outputs_by_instance[1][0] = batch
    ref.archive[1][0] = (rec.provider.tpke_enc(batch.encode()), ref.archive[1][0][1])


def _other_party_output(rec, parties):
    """The binding-broken and missing-pair faults, at a party other than the first."""
    other = parties[1]
    other.outputs_by_instance[1][0] = RequestBatch(1, 1, other.outputs_by_instance[1][0].requests)
    del other.archive[1][0]


def _other_party_content(rec, parties):
    """A batch the first party's re-encryption check would catch, at party 1."""
    outputs = parties[1].outputs_by_instance[1]
    outputs[0] = RequestBatch(0, 1, outputs[0].requests[1:])


def _decide_zero(rec, inst, slot):
    rec.decisions[(inst, slot)] = {p: (0, r) for p, (_, r) in rec.decisions[(inst, slot)].items()}


def _no_slot_decided_one(rec, parties):
    for slot in (2, 3):
        _decide_zero(rec, 2, slot)
        rec.inputs[(2, slot)] = dict.fromkeys(rec.inputs[(2, slot)], 0)


def _empty_instance(rec, parties):
    parties[0].outputs_by_instance[2] = {}


def _nothing_finalized(rec, parties):
    parties[1].outputs_by_instance.clear()


def _split_abba_bits(rec, parties):
    rec.decisions[(1, 0)][3] = (0, 1)
    rec.inputs[(1, 0)] = {0: 1, 1: 0, 2: 0, 3: 0}  # too few 1-inputs to bias it


def _zero_without_zero_input(rec, parties):
    _decide_zero(rec, 1, 1)
    rec.inputs[(1, 1)] = {0: 1}  # one 1-input is below the f+1 of biased validity


def _one_without_input_or_pair(rec, parties):
    for p in parties:
        del p.archive[1][0]
    del parties[0].outputs_by_instance[1][0]
    rec.inputs[(1, 0)] = dict.fromkeys(rec.inputs[(1, 0)], 0)


def _biased_zero(rec, parties):
    _decide_zero(rec, 2, 3)
    rec.inputs[(2, 3)][0] = 0  # three honest 1-inputs and one 0-input


def _lemma1(rec, parties):
    rec.lemma[0].update(best_effective=1, lemma1=False, lemma2=False)


def _lemma2(rec, parties):
    rec.lemma[1].update(best_effective=2, lemma2=False)


def _many(rec, parties):
    """Violations in both instances, so the order of the failures is pinned."""
    _committee_mismatch(rec, parties)
    rec.committees[2][3] = (0, 3)
    _logs_diverge_in_order(rec, parties)
    for slot in (0, 1):
        _decide_zero(rec, 1, slot)
    for slot in (2, 3):
        _decide_zero(rec, 2, slot)
    rec.inputs[(2, 2)] = dict.fromkeys(rec.inputs[(2, 2)], 0)
    _binding_broken(rec, parties)
    del parties[0].archive[2][3]
    rec.lemma[1].update(best_effective=1, lemma1=False, lemma2=False)
    rec.lemma[0].update(best_effective=2, lemma2=False)


# name -> (plant, prefixes of the failures of the finished run, in order)
CASES = {
    "committee-mismatch": (_committee_mismatch, [
        "committee_agreement: honest parties derived different committees"]),
    "logs-diverge-in-length": (_logs_diverge_in_length, [
        "agreement: honest delivery logs diverge"]),
    "logs-diverge-in-order": (_logs_diverge_in_order, [
        "agreement: honest delivery logs diverge",
        "total_order: logs are not prefix-consistent"]),
    "duplicate-request": (_duplicate_request, [
        "delivery_dedup: a request was delivered twice"]),
    "slot-not-in-committee": (_slot_not_in_committee, [
        "validity_content: instance 1 slot 2 not in committee"]),
    "missing-pair": (_missing_pair, [
        "validity_content: instance 1 slot 0 missing pair"]),
    "no-reencryption-match": (_no_reencryption_match, [
        "validity_content: instance 1 slot 0 batch does not re-encrypt to the broadcast "
        "ciphertext"]),
    "binding-broken": (_binding_broken, [
        "validity_content: instance 1 slot 0 binding broken"]),
    "other-party-output": (_other_party_output, [
        "validity_content: instance 1 slot 0 at party 1 missing pair",
        "validity_content: instance 1 slot 0 at party 1 binding broken"]),
    "other-party-content": (_other_party_content, [
        "validity_content: instance 1 slot 0 at party 1 differs from party 0"]),
    "no-slot-decided-one": (_no_slot_decided_one, [
        "validity_decided_one: instance 2: no slot decided 1"]),
    "empty-instance": (_empty_instance, [
        "validity_nonempty: fault-free instance delivered nothing"]),
    "nothing-finalized": (_nothing_finalized, []),
    "split-abba-bits": (_split_abba_bits, [
        "abba_agreement: instance 1 slot 0 decided {0, 1}"]),
    "zero-without-zero-input": (_zero_without_zero_input, [
        "abba_validity: instance 1 slot 1: 0 without honest 0-input"]),
    "one-without-input-or-pair": (_one_without_input_or_pair, [
        "validity_content: instance 1 slot 0 at party 1 missing pair",
        "validity_content: instance 1 slot 0 at party 2 missing pair",
        "validity_content: instance 1 slot 0 at party 3 missing pair",
        "abba_validity: instance 1 slot 0: 1 without honest 1-input or proven pair"]),
    "biased-zero": (_biased_zero, [
        "biased_validity: instance 2 slot 3: 3 honest 1-inputs but decided 0"]),
    "lemma1": (_lemma1, ["lemma: instance 1: {"]),
    "lemma2": (_lemma2, ["lemma: instance 2: {"]),
    "many": (_many, [
        "committee_agreement: honest parties derived different committees",
        "agreement: honest delivery logs diverge",
        "total_order: logs are not prefix-consistent",
        "validity_decided_one: instance 1: no slot decided 1",
        "validity_content: instance 1 slot 0 binding broken",
        "validity_decided_one: instance 2: no slot decided 1",
        "validity_content: instance 2 slot 3 missing pair",
        "abba_validity: instance 1 slot 0: 0 without honest 0-input",
        "abba_validity: instance 1 slot 1: 0 without honest 0-input",
        "abba_validity: instance 2 slot 3: 0 without honest 0-input",
        "biased_validity: instance 1 slot 0: 4 honest 1-inputs but decided 0",
        "biased_validity: instance 1 slot 1: 4 honest 1-inputs but decided 0",
        "biased_validity: instance 2 slot 3: 4 honest 1-inputs but decided 0",
        "lemma: instance 1: {",
        "lemma: instance 2: {"]),
}

# sha256 over every case's report JSON, finished then stalled, in CASES order.
PLANTED_DIGEST = "b6f97a65e283cccef2679119c8af13be4c329263f74d5ffb86cc9dd494f79103"


def honest_run():
    """A fault-free n=4 run of two instances, stopped before `finish`."""
    cfg = SimConfig(4, 1, seed=1, instances=2)
    provider = key_setup(cfg.security_param, cfg.n, cfg.seed)
    rec = RunRecorder(cfg, provider)
    parties = [Party(p, provider.party_handle(p), cfg, observer=rec) for p in range(cfg.n)]
    steps, messages, nbytes, overrides, stalled = deliver(parties, cfg, rec)
    assert not stalled
    return rec, parties, (steps, messages, nbytes, overrides)


@functools.lru_cache(maxsize=None)
def planted_report(name, stalled):
    rec, parties, (steps, messages, nbytes, overrides) = honest_run()
    if name is not None:
        CASES[name][0](rec, parties)
    return rec.finish(steps, messages, nbytes, stalled, overrides)


def broken(report):
    return {key for key, ok in report.assertions.items() if not ok}


def test_fault_free_run_passes_every_check():
    report = planted_report(None, False)
    assert report.ok and report.failures == []
    assert len(report.assertions) == 13


@pytest.mark.parametrize("name", CASES)
def test_planted_violation_fires(name):
    expected = CASES[name][1]
    report = planted_report(name, False)
    assert len(report.failures) == len(expected), report.failures
    for failure, prefix in zip(report.failures, expected):
        assert failure.startswith(prefix), failure
    # a failure names its property, and its assertion key is false
    assert broken(report) == {
        f.split(":")[0] for f in report.failures
        if not f.startswith("lemma:")
    } | {k for k in ("lemma1", "lemma2") if not report.assertions[k]}
    assert report.assertions.keys() == planted_report(None, False).assertions.keys()
    stalled = planted_report(name, True)
    assert TOTALITY in stalled.failures and not stalled.assertions["totality"]


def test_lemma_failures_break_their_own_keys():
    assert broken(planted_report("lemma1", False)) == {"lemma1", "lemma2"}
    assert broken(planted_report("lemma2", False)) == {"lemma2"}


def test_stalled_run_checks_logs_up_to_the_shortest():
    assert broken(planted_report("logs-diverge-in-length", True)) == {"totality"}
    assert broken(planted_report("nothing-finalized", False)) == set()
    assert broken(planted_report("nothing-finalized", True)) == {"totality", "validity_nonempty"}


def test_every_assertion_key_is_made_to_fail():
    """A property that no planted case makes fail is a property no test checks."""
    fired = set()
    for name in CASES:
        for stalled in (False, True):
            fired |= broken(planted_report(name, stalled))
    assert fired == set(planted_report(None, False).assertions)


def test_each_check_runs_on_its_own():
    """Calling the checks one by one, before `finish`, yields its failures."""
    rec, parties, _ = honest_run()
    _many(rec, parties)
    run = rec.context(False)
    found = [f"{prop}: {detail}" for check, _ in RunRecorder.CHECKS
             for prop, detail, *_ in check(rec, run)]
    assert found == planted_report("many", False).failures
    assert [v[2:] for v in rec.check_lemmas(run)] == [("lemma2",), ("lemma1", "lemma2")]


def test_planted_reports_pinned():
    h = hashlib.sha256()
    for name in CASES:
        for stalled in (False, True):
            h.update(planted_report(name, stalled).to_json().encode() + b"\n")
    assert h.hexdigest() == PLANTED_DIGEST
