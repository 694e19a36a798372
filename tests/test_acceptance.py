"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every criterion runs at its stated tolerance and budget; tolerances are
frozen here, not imported, so a source change that weakens a guarantee
fails loudly.
"""

import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from xchannel.analysis import ORACLE_TOL, DofReport, dof_slope, oracle_verify_3user, sweep_rates
from xchannel.channel import generate_channels, generate_messages, generate_noise
from xchannel.receive import CONDITION_LIMIT, assemble_system, observe_all
from xchannel.schedule import (
    build_csit_table,
    build_schedule,
    count_csit_variants,
    permute_schedule,
)
from xchannel.simulate import run_simulation
from xchannel.transmit import audit_csit_trace, build_transmit_plan

from helpers import full_store, noise_map, realization, stored_noise, stream

GRID = [(M, N) for M in range(1, 9) for N in range(2, 9)]


def _report(capsys, name, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert passed, line


def test_criterion_1_hand_oracle_ten_seeds(capsys):
    # full (3, 3) pipeline vs independent hand formulas, 10 draws of seed 0, 1e-12, < 1 s;
    # the oracle's tolerance is a module constant, held here to at most the criterion's 1e-12
    start = time.perf_counter()
    failures = []
    for draw in range(10):
        (report,) = oracle_verify_3user(range(draw, draw + 1))
        if not report.passed:
            failures.append((draw, next(c.name for c in report.checks if not c.passed)))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0 and ORACLE_TOL <= 1e-12
    _report(capsys, "criterion-1 oracle-10-seeds", ok,
            f"failures={failures} tol={ORACLE_TOL} elapsed={elapsed:.2f}s (budget 1s)")


def test_criterion_2_rational_dof_grid(capsys):
    # exact Fraction accounting equals 2M/(M+1) for 1<=M<=8, 2<=N<=8, < 1 s
    start = time.perf_counter()
    bad = []
    for M, N in GRID:
        rep = DofReport(build_schedule(M, N))
        if not (rep.equal and rep.achieved == Fraction(2 * M, M + 1)):
            bad.append((M, N, str(rep.achieved)))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    _report(capsys, "criterion-2 rational-dof-grid", ok,
            f"mismatches={bad} configs={len(GRID)} elapsed={elapsed:.2f}s (budget 1s)")


def test_criterion_3_noiseless_decode_sweep(capsys):
    # 2<=M<=6, 2<=N<=6, 50 seeds each: recovery at 1e-8; decode failures are
    # allowed only below 1% overall and only with condition > 1e12; < 30 s
    start = time.perf_counter()
    total = 0
    failures = 0
    bad_failure = []
    bad_error = []
    for M in range(2, 7):
        for N in range(2, 7):
            for seed in range(50):
                res = run_simulation(build_schedule(M, N), seed=seed)
                d = res.decoding
                for i, (ok, condition, est, truth) in enumerate(
                    zip(d.decoded, d.condition, d.estimates, res.truths)
                ):
                    total += 1
                    if not ok:
                        failures += 1
                        if not condition > CONDITION_LIMIT:
                            bad_failure.append((M, N, seed, i, condition))
                        continue
                    err = np.abs(est - truth).max()
                    scale = max(1.0, np.abs(truth).max())
                    if err / scale > 1e-8:
                        bad_error.append((M, N, seed, i, err / scale))
    elapsed = time.perf_counter() - start
    rate = failures / total
    ok = (not bad_error and not bad_failure and rate < 0.01 and elapsed < 30.0)
    _report(capsys, "criterion-3 noiseless-decode", ok,
            f"decodes={total} failure_rate={rate:.4%} ill_conditioned_only="
            f"{not bad_failure} errors>{1e-8}={bad_error[:3]} "
            f"elapsed={elapsed:.1f}s (budget 30s)")


def test_criterion_4_csit_contract(capsys):
    # (a) golden 3x3 state table, (b) per-receiver state counts on the grid,
    # (c) zero forbidden reads while precoding anywhere on the grid
    table = build_csit_table(build_schedule(3, 3))
    golden_ok = table.states == ("NDDPPN", "DNDPNP", "DDNNPP")

    count_bad = []
    read_bad = []
    for M, N in GRID:
        s = build_schedule(M, N)
        t = build_csit_table(s)
        for i, row in enumerate(t.states):
            c = {state: row.count(state) for state in "PDN"}
            want = {"P": s.k * (M - 1), "D": s.k * (N - 1),
                    "N": s.T - s.k * (M - 1) - s.k * (N - 1)}
            if c != want:
                count_bad.append((M, N, i, c))
        h = generate_channels(full_store(M, N, s.T), stream(0)).h
        plan = build_transmit_plan(realization(s, h), t)
        if len(plan.csit_violations) or len(audit_csit_trace(plan.csit_reads, t)):
            read_bad.append((M, N))
    sims = 0
    for M in range(2, 7):
        for N in range(2, 7):
            for seed in range(5):
                res = run_simulation(build_schedule(M, N), seed=seed)
                sims += 1
                if len(res.plan.csit_violations) or len(audit_csit_trace(
                    res.plan.csit_reads, res.schedule.csit
                )):
                    read_bad.append((M, N, seed))
    ok = golden_ok and not count_bad and not read_bad
    _report(capsys, "criterion-4 csit-contract", ok,
            f"golden_table={golden_ok} count_mismatches={count_bad[:3]} "
            f"forbidden_reads={read_bad} audited_plans={len(GRID) + sims}")


def test_criterion_5_schedule_permutations(capsys):
    # ordering freedom: 36 variants at (3, 3); 20 random permutations at each
    # of (3,3), (4,4), (2,4) decode to the same messages
    variants_ok = count_csit_variants(build_schedule(3, 3)) == 36
    rng = np.random.default_rng(0)
    bad = []
    for M, N in [(3, 3), (4, 4), (2, 4)]:
        base = build_schedule(M, N)
        canonical = run_simulation(base, seed=0)
        for trial in range(20):
            p1 = list(rng.permutation(base.phase1_len))
            p2 = list(rng.permutation(base.T - base.phase1_len))
            permuted = permute_schedule(base, p1, p2)
            res = run_simulation(permuted, seed=0)
            if not res.all_recovered():
                bad.append((M, N, trial, "recovery"))
                continue
            for i in range(N):
                same = np.allclose(res.decoding.estimates[i],
                                   canonical.decoding.estimates[i],
                                   rtol=1e-6, atol=1e-9)
                if not same:
                    bad.append((M, N, trial, i))
    ok = variants_ok and not bad
    _report(capsys, "criterion-5 permutation-invariance", ok,
            f"variants_3x3={count_csit_variants(build_schedule(3, 3))} mismatches={bad[:3]} "
            f"trials={3 * 20}")


def test_criterion_6_rate_slope_matches_dof(capsys):
    # empirical pre-log from 40-80 dB, >= 200 draws, within 5% of 2M/(M+1),
    # all four configs inside 5 minutes
    start = time.perf_counter()
    snrs = [40.0, 50.0, 60.0, 70.0, 80.0]
    results = []
    bad = []
    for M, N in [(2, 2), (3, 3), (2, 4), (4, 3)]:
        points = sweep_rates(build_schedule(M, N), snrs, draws=200, seed=0, normalize=True)
        fit = dof_slope(points)
        target = 2.0 * M / (M + 1)
        rel = abs(fit.slope - target) / target
        results.append((M, N, round(fit.slope, 4), round(rel, 5)))
        if rel > 0.05:
            bad.append((M, N, fit.slope, target))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    _report(capsys, "criterion-6 rate-slope", ok,
            f"(M,N,slope,rel_err)={results} elapsed={elapsed:.1f}s (budget 300s)")


def test_criterion_7_noise_covariance_empirical(capsys):
    # the analytic decode covariance must match 1e5 noise redraws on one fixed
    # (3, 3) realization entrywise within 5%, with the residual-vs-noise-map
    # correspondence crosschecked through the literal pipeline; the noise map B
    # is built by plain loops from the schedule's members and the plan's slot scale
    s = build_schedule(3, 3)
    table = build_csit_table(s)
    store = full_store(3, 3, s.T)  # channels and noise drawn on all T slots, the used ones stored
    ch = realization(s, generate_channels(store, stream(0)).h)
    ms = generate_messages(s, stream(1))
    plan = build_transmit_plan(ch, table)
    clean = observe_all(plan, ms)
    noisy0 = observe_all(plan, ms, stored_noise(s, generate_noise(store, stream(2))))
    systems = assemble_system(noisy0)
    clean_sys = assemble_system(clean)
    noise_maps = noise_map(s, plan.slot_scale)

    # pipeline crosscheck: for 100 independent redraws the noisy right-hand
    # side minus the clean one equals noise_map @ noise row, exactly
    cross_bad = []
    for seed in range(100):
        grid = generate_noise(store, stream(1000 + seed))
        noisy = assemble_system(observe_all(plan, ms, stored_noise(s, grid)))
        for i in range(3):
            want = noise_maps[i] @ grid[i]
            if np.max(np.abs((noisy.y[i] - clean_sys.y[i]) - want)) > 1e-12:
                cross_bad.append((seed, i))
    cross_ok = not cross_bad

    # statistics: 1e5 vectorized redraws of the same residual construction
    R = 100_000
    rng = np.random.default_rng(42)
    worst = 0.0
    cov_ok = True
    for i in range(3):
        B = noise_maps[i]
        n = (rng.standard_normal((R, s.T)) + 1j * rng.standard_normal((R, s.T)))
        n /= np.sqrt(2.0)
        resid = n @ B.T
        emp = (resid.conj().T @ resid).real / R
        sigma = systems.sigma[i]
        err = np.abs(emp - sigma) / np.maximum(np.abs(sigma), 1.0)
        worst = max(worst, float(err.max()))
        if err.max() > 0.05:
            cov_ok = False
    ok = cross_ok and cov_ok
    _report(capsys, "criterion-7 noise-covariance", ok,
            f"pipeline_crosscheck_failures={cross_bad[:3]} redraws={R} "
            f"worst_rel_entry_err={worst:.4f} (tol 0.05)")


def test_criterion_8_pairing_balance(capsys):
    # partial-round constructions stay exactly balanced: every (receiver,
    # copy) unit appears exactly M-1 times at (5,4) and (7,5); the builder
    # accepts the whole grid
    bad = []
    for M, N in [(5, 4), (7, 5)]:
        s = build_schedule(M, N)
        counts = Counter(map(tuple, s.members[s.phase1_len :].reshape(-1, 2).tolist()))
        want = {(i, c) for i in range(N) for c in range(s.k)}
        if set(counts) != want or set(counts.values()) != {M - 1}:
            bad.append((M, N, dict(counts)))
    rejected = []
    for M, N in GRID:
        try:
            s = build_schedule(M, N)
        except Exception as exc:  # noqa: BLE001 - any rejection fails the criterion
            rejected.append((M, N, repr(exc)))
            continue
        counts = Counter(map(tuple, s.members[s.phase1_len :].reshape(-1, 2).tolist()))
        if M > 1 and set(counts.values()) != {M - 1}:
            rejected.append((M, N, "unbalanced"))
    ok = not bad and not rejected
    _report(capsys, "criterion-8 pairing-balance", ok,
            f"spot_checks={['(5,4)', '(7,5)']} bad={bad} grid_rejections={rejected}")
