"""Acceptance gate: one test per shipped claim, one printed verdict line each.

The adversarial grid and the fifo scaling sweep are expensive, so they run
once and are shared by every criterion that reads them.
"""
import hashlib
import itertools
import statistics
import struct
from itertools import combinations

from slimabc import BehaviorSpec, SimConfig, key_setup, sim_run
from slimabc.committee import committee_coin_name
from slimabc.metrics import scaling_fit
from slimabc.simnet import abba_harness_run

GRID = ((4, 1), (7, 2), (10, 3))
SWEEP = ((4, 1), (7, 2), (10, 3), (13, 4))
FAIR_POLICIES = ("fifo", "random", "adversarial-delay")
FAULTS = ("honest", "crash", "equivocate-ppb", "corrupt-shares")
SEEDS_PER_CELL = 17  # 12 cells x 17 seeds = 204 >= 200 runs per (n, f)
SWEEP_SEEDS = 30
# sha256 over every grid report's JSON, in grid order; moves only when some
# run's observable behaviour does
GRID_DIGEST = "58681f90dbc5a5ee8ef24b7a3b9e9081de967f02b1f4ab07ac221c7b08e188f2"

_cache = {}


def verdict(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def run_one(n, f, seed, policy, fault, instances=1, request_size=32):
    byz = ()
    if fault != "honest":
        # exactly f faulty parties; crash times staggered across seeds
        byz = tuple(BehaviorSpec(p, fault, at_step=(seed * 7) % 40) for p in range(f))
    cfg = SimConfig(n=n, f=f, seed=seed, instances=instances, policy=policy,
                    pool_size=16, batch_size=8, request_size=request_size,
                    byzantine=byz)
    return cfg, sim_run(cfg)


def grid_reports():
    if "grid" not in _cache:
        rows = []
        for (n, f), fault, policy in itertools.product(GRID, FAULTS, FAIR_POLICIES):
            for seed in range(SEEDS_PER_CELL):
                cfg, rep = run_one(n, f, seed, policy, fault)
                rows.append((cfg, fault, rep))
        _cache["grid"] = rows
    return _cache["grid"]


def fifo_sweep():
    if "sweep" not in _cache:
        per_n = {}
        for n, f in SWEEP:
            reps = [run_one(n, f, s, "fifo", "honest")[1] for s in range(SWEEP_SEEDS)]
            assert all(r.ok for r in reps), n
            per_n[n] = reps
        _cache["sweep"] = per_n
    return _cache["sweep"]


def test_grid_reports_pinned():
    h = hashlib.sha256()
    for _, _, rep in grid_reports():
        h.update(rep.to_json().encode())
    assert h.hexdigest() == GRID_DIGEST


def test_c01_agreement():
    rows = grid_reports()
    bad = [
        (cfg.n, cfg.seed, fault, cfg.policy)
        for cfg, fault, rep in rows
        if not (rep.assertions["agreement"] and rep.assertions["total_order"]
                and rep.assertions["abba_agreement"]
                and rep.assertions["committee_agreement"])
    ]
    per_nf = {n: sum(1 for cfg, _, _ in rows if cfg.n == n) for n, _ in GRID}
    assert all(v >= 200 for v in per_nf.values()), per_nf
    verdict(1, "agreement", not bad,
            f"{len(rows) - len(bad)}/{len(rows)} runs with identical honest "
            f"outputs; {per_nf} per n" + (f"; first bad {bad[0]}" if bad else ""))


def test_c02_validity():
    rows = grid_reports()
    bad = []
    for cfg, fault, rep in rows:
        ok = (rep.assertions["validity_content"]
              and rep.assertions["validity_decided_one"]
              and rep.assertions.get("validity_nonempty", True)
              and rep.finalized_instances == cfg.instances
              and rep.delivered_total >= 1)
        if not ok:
            bad.append((cfg.n, cfg.seed, fault, cfg.policy, rep.failures))
    verdict(2, "validity", not bad,
            f"{len(rows) - len(bad)}/{len(rows)} runs: nonempty output sets, "
            f"batches decrypt and trace to committee broadcasts"
            + (f"; first bad {bad[0]}" if bad else ""))


def test_c03_totality():
    rows = grid_reports()
    bad = [(cfg.n, cfg.seed, fault, cfg.policy)
           for cfg, fault, rep in rows
           if rep.stalled or not rep.assertions["totality"]]
    policies = {cfg.policy for cfg, _, _ in rows}
    assert policies == set(FAIR_POLICIES)
    verdict(3, "totality", not bad,
            f"{len(rows) - len(bad)}/{len(rows)} runs finalized everywhere under "
            f"{sorted(policies)}" + (f"; first bad {bad[0]}" if bad else ""))


def test_c04_recovery_lemmas():
    rows = list(grid_reports())
    starved = 0
    for (n, f), fault in itertools.product(GRID, ("honest", "crash")):
        for seed in range(10):
            cfg, rep = run_one(n, f, seed, "targeted-starve", fault)
            assert rep.ok, (n, seed, fault, rep.failures)
            assert rep.lemma, "starved run recorded no lemma snapshots"
            rows.append((cfg, fault, rep))
            starved += 1
    bad = [(cfg.n, cfg.seed, fault)
           for cfg, fault, rep in rows
           if not (rep.assertions["lemma1"] and rep.assertions["lemma2"])]
    verdict(4, "recovery lemmas", not bad,
            f"{len(rows) - len(bad)}/{len(rows)} runs (incl. {starved} "
            f"targeted-starve) satisfied both holder-count lemmas"
            + (f"; first bad {bad[0]}" if bad else ""))


def test_c05_biased_agreement():
    # f+1 honest parties input 1, f byzantine parties vote adversarially.
    biased_bad = []
    cases = [(4, 1, [0, 1, 1, 0], 350), (7, 2, [0, 0, 1, 1, 1, 0, 0], 150)]
    total = 0
    for n, f, inputs, seeds in cases:
        byz = tuple(BehaviorSpec(p, "random-votes") for p in range(f))
        for seed in range(seeds):
            r = abba_harness_run(n, f, seed, inputs, byzantine=byz)
            honest = [p for p in range(n) if p >= f]
            if r["stalled"] or any(r["decisions"][p][0] != 1 for p in honest):
                biased_bad.append((n, seed))
            total += 1

    plain_bad = []
    vectors = list(itertools.product((0, 1), repeat=4))
    for seed in range(8):
        for vec in vectors:
            r = abba_harness_run(4, 1, 1000 + seed, list(vec))
            bits = {bit for bit, _ in r["decisions"].values()}
            ok = not r["stalled"] and len(bits) == 1
            if ok and len(set(vec)) == 1:
                ok = bits == {vec[0]}
            if not ok:
                plain_bad.append((vec, seed))
    plain_total = 8 * len(vectors)

    verdict(5, "biased agreement", not biased_bad and not plain_bad,
            f"{total - len(biased_bad)}/{total} adversarial runs decided 1; "
            f"{plain_total - len(plain_bad)}/{plain_total} mixed-input runs "
            f"agreed with valid bits")


def test_c06_message_scaling():
    per_n = fifo_sweep()
    ns = [n for n, _ in SWEEP]
    means = [statistics.fmean(r.messages for r in per_n[n]) for n in ns]
    slope = scaling_fit(ns, means)
    c_fit = 1.25 * sum(m * n * n for n, m in zip(ns, means)) / sum(n ** 4 for n in ns)
    worst = max(r.messages / (n * n) for n in ns for r in per_n[n])
    ok = 1.7 <= slope <= 2.4 and worst <= c_fit
    verdict(6, "message scaling", ok,
            f"slope {slope:.3f} in [1.7, 2.4]; every run under {c_fit:.1f}*n^2 "
            f"(max observed {worst:.1f}*n^2)")


def test_c07_byte_scaling():
    ls, means_l = [], []
    for rs in (32, 320, 3200):  # batch payload 256 B, 2.5 KiB, 25 KiB
        reps = [run_one(7, 2, s, "fifo", "honest", request_size=rs)[1]
                for s in range(SWEEP_SEEDS)]
        assert all(r.ok for r in reps), rs
        ls.append(8 * rs)
        means_l.append(statistics.fmean(r.bytes for r in reps))
    slope = scaling_fit(ls, means_l)

    per_n = fifo_sweep()  # fixed 256 B batches
    per_n2 = [statistics.fmean(r.bytes for r in per_n[n]) / (n * n)
              for n, _ in SWEEP]
    spread = max(per_n2) / min(per_n2)
    ok = 0.8 <= slope <= 1.2 and spread <= 2.0
    verdict(7, "byte scaling", ok,
            f"slope vs payload {slope:.3f} in [0.8, 1.2]; bytes/n^2 spread "
            f"{spread:.3f}x <= 2x across n")


def test_c08_round_latency():
    per_n = fifo_sweep()
    # pool the adversarial grid too: coin rounds only show up under
    # reordering and byzantine votes, not in the honest fifo sweep
    pooled = {n: [r for rep in per_n[n] for r in rep.rounds.values()]
              for n, _ in SWEEP}
    for cfg, _, rep in grid_reports():
        pooled[cfg.n].extend(rep.rounds.values())
    mean_rounds = {n: statistics.fmean(vals) for n, vals in pooled.items()}
    mean_phases = {n: statistics.fmean(ph for rep in per_n[n]
                                       for ph in rep.phases.values())
                   for n, _ in SWEEP}
    phase_slope = scaling_fit([n for n, _ in SWEEP],
                              [mean_phases[n] for n, _ in SWEEP])
    ok = all(v <= 4.0 for v in mean_rounds.values())
    verdict(8, "round latency", ok,
            "mean rounds/slot "
            + ", ".join(f"n={n}: {v:.2f}" for n, v in mean_rounds.items())
            + f" all <= 4; phases grow as n^{phase_slope:.2f} (reported only)")


def test_c09_crypto_oracles():
    msg = b"acceptance oracle message"
    checks = []

    for n, f in ((4, 1), (7, 2)):
        prov = key_setup(128, n, seed=5)
        shares = [prov.sig_share(p, msg) for p in range(n)]
        sigs = {prov.combine_shares(msg, sub).sig_bytes
                for sub in combinations(shares, n - f)}
        checks.append(("combine subset independence", n, len(sigs) == 1))

    prov4 = key_setup(128, 4, seed=5)
    ct = prov4.tpke_enc(b"sealed batch")
    dec = {prov4.tpke_dec(ct, [prov4.tpke_dec_share(p, ct) for p in sub])
           for sub in combinations(range(4), 2)}
    checks.append(("tpke roundtrip all f+1 subsets", 4, dec == {b"sealed batch"}))

    ones = 0
    for k in range(10_000):
        name = b"freq" + struct.pack(">I", k)
        ones += prov4.coin_toss_bit(name, [prov4.coin_share(p, name) for p in (0, 1)])
    freq = ones / 10_000
    checks.append(("coin bit frequency", round(freq, 4), 0.47 <= freq <= 0.53))

    prov7 = key_setup(128, 7, seed=5)
    counts = [0] * 7
    for inst in range(10_000):
        name = committee_coin_name(inst)
        members = prov7.coin_toss_committee(
            name, [prov7.coin_share(p, name) for p in (0, 1, 2)], kappa=3)
        for m in members:
            counts[m] += 1
    lo, hi = 0.9 * 3 / 7, 1.1 * 3 / 7
    member_ok = all(lo <= c / 10_000 <= hi for c in counts)
    checks.append(("committee frequency +-10%",
                   [round(c / 10_000, 3) for c in counts], member_ok))

    ok = all(c[2] for c in checks)
    verdict(9, "crypto oracles", ok, "; ".join(f"{c[0]} ({c[1]})" for c in checks))


def test_c10_dedupe_and_determinism():
    multi, dup_bad = 0, []
    for seed in range(5):
        cfg = SimConfig(n=4, f=1, seed=seed, instances=3, policy="random",
                        pool_size=8, batch_size=8, overlap=1.0)
        rep = sim_run(cfg)
        assert rep.ok, rep.failures
        decided = {}
        for key, bit in rep.decisions.items():
            inst = int(key.split(":")[0])
            decided[inst] = decided.get(inst, 0) + (bit == 1)
        for inst, k in decided.items():
            if k >= 2:
                multi += 1
                if rep.duplicate_ratios[inst] < 0.5:
                    dup_bad.append((seed, inst, rep.duplicate_ratios[inst]))
    assert multi >= 1, "no instance output two or more slots"

    zero_bad = []
    for seed in range(5):
        cfg = SimConfig(n=4, f=1, seed=seed, instances=3, policy="random",
                        pool_size=16, batch_size=8, overlap=0.0)
        rep = sim_run(cfg)
        assert rep.ok, rep.failures
        zero_bad += [(seed, i, r) for i, r in rep.duplicate_ratios.items() if r != 0.0]

    det_bad = []
    for n, f, policy, fault in ((4, 1, "random", "crash"),
                                (7, 2, "adversarial-delay", "random-votes"),
                                (10, 3, "targeted-starve", "honest")):
        cfg1, rep1 = run_one(n, f, 3, policy, fault, instances=2)
        cfg2, rep2 = run_one(n, f, 3, policy, fault, instances=2)
        if rep1.to_json() != rep2.to_json():
            det_bad.append((n, policy))

    ok = not dup_bad and not zero_bad and not det_bad
    verdict(10, "dedupe and determinism", ok,
            f"{multi} shared-pool instances with >=2 slots all hit ratio >= 0.5; "
            f"disjoint pools always 0.0; {3 - len(det_bad)}/3 configs "
            f"byte-identical on rerun")
