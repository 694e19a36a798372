"""Tests for DoF accounting, rate evaluation, the hand oracle, and verify_suite."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from xchannel.analysis import (
    RatePoint,
    dof_report,
    dof_slope,
    oracle_verify_3user,
    sum_rate,
    sweep_rates,
    verify_suite,
)
from xchannel.receive import LinearSystem
from xchannel.schedule import build_csit_table, build_schedule
from xchannel.simulate import run_simulation


class TestDofReport:
    @pytest.mark.parametrize(
        "M,N,want",
        [
            (3, 3, Fraction(3, 2)),
            (2, 2, Fraction(4, 3)),
            (4, 3, Fraction(8, 5)),
            (5, 4, Fraction(5, 3)),
            (1, 5, Fraction(1, 1)),
            (8, 8, Fraction(16, 9)),
        ],
    )
    def test_golden_values(self, M, N, want):
        rep = dof_report(build_schedule(M, N))
        assert rep.achieved == want
        assert rep.closed_form == want
        assert rep.equal

    def test_exact_rational_arithmetic(self):
        rep = dof_report(build_schedule(4, 3))
        assert rep.achieved == Fraction(24, 15)
        assert isinstance(rep.achieved, Fraction)

    def test_grid_always_equal(self):
        for M in range(1, 9):
            for N in range(2, 9):
                assert dof_report(build_schedule(M, N)).equal

    def test_to_dict(self):
        d = dof_report(build_schedule(3, 3)).to_dict()
        assert d["achieved"] == "3/2"
        assert d["closed_form"] == "3/2"
        assert d["equal"] is True
        assert (d["T"], d["messages"]) == (6, 9)


def toy_system(G, sigma, T=1):
    G = np.asarray(G, dtype=complex)
    m = G.shape[0]
    return LinearSystem(
        receiver=0, G=G, y=G @ np.ones(m), sigma=np.asarray(sigma, dtype=float),
        noise_map=np.zeros((m, T)), T=T, M=m, k=1,
    )


class TestSumRate:
    def test_scalar_closed_form(self):
        sys1 = toy_system([[1.0]], [[1.0]])
        snrs = [0.0, 10.0, 30.0]
        pts = sum_rate([sys1], snrs)
        assert [p.snr_db for p in pts] == snrs
        for snr, pt in zip(snrs, pts):
            want = math.log2(1.0 + 10.0 ** (snr / 10.0))
            assert pt.sum_rate == pytest.approx(want, rel=1e-12)

    def test_power_split_across_transmitters(self):
        # M = 2 halves the per-message power of each unknown
        sysa = toy_system(np.eye(2), np.eye(2))
        (pt,) = sum_rate([sysa], [20.0])
        want = 2 * math.log2(1.0 + 100.0 / 2.0)
        assert pt.sum_rate == pytest.approx(want, rel=1e-12)

    def test_slot_normalization(self):
        sys1 = toy_system([[1.0]], [[1.0]], T=4)
        (pt,) = sum_rate([sys1], [10.0])
        assert pt.sum_rate == pytest.approx(math.log2(11.0) / 4.0, rel=1e-12)

    def test_per_receiver_adds_up(self):
        sim = run_simulation(3, 3, seed=0, noise_enabled=True, normalize=True)
        (pt,) = sum_rate(list(sim.systems), [30.0])
        assert len(pt.per_receiver) == 3
        assert pt.sum_rate == pytest.approx(sum(pt.per_receiver), rel=1e-12)

    def test_monotone_in_snr(self):
        sim = run_simulation(3, 3, seed=1, noise_enabled=True, normalize=True)
        rates = [p.sum_rate for p in sum_rate(list(sim.systems), (0, 10, 20, 30))]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_noiseless_rejected(self):
        sim = run_simulation(3, 3, seed=0)
        with pytest.raises(RuntimeError, match="noise covariance is singular"):
            sum_rate(list(sim.systems), [20.0])

    def test_bad_allocation_rejected(self):
        sys1 = toy_system([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            sum_rate([sys1], [10.0], allocation="waterfill")
        with pytest.raises(ValueError):
            sum_rate([], [10.0])


class TestSweepAndSlope:
    def test_sweep_deterministic(self):
        a = sweep_rates(2, 2, [40.0, 60.0], draws=5, seed=3)
        b = sweep_rates(2, 2, [40.0, 60.0], draws=5, seed=3)
        assert [(p.snr_db, p.sum_rate) for p in a] == [(p.snr_db, p.sum_rate) for p in b]

    def test_sweep_shape(self):
        pts = sweep_rates(2, 3, [40.0, 50.0, 60.0], draws=3, seed=0)
        assert [p.snr_db for p in pts] == [40.0, 50.0, 60.0]
        assert all(len(p.per_receiver) == 3 for p in pts)

    def test_sweep_needs_draws(self):
        with pytest.raises(ValueError):
            sweep_rates(2, 2, [40.0, 60.0, 80.0], draws=0)

    def test_slope_recovers_synthetic_line(self):
        pts = [
            RatePoint(snr_db=snr, sum_rate=1.5 * snr * math.log2(10.0) / 10.0 + 0.3,
                      per_receiver=())
            for snr in (40.0, 50.0, 60.0, 70.0)
        ]
        fit = dof_slope(pts)
        assert fit.slope == pytest.approx(1.5, abs=1e-9)
        assert fit.intercept == pytest.approx(0.3, abs=1e-9)
        assert fit.residual_rms < 1e-9
        assert fit.points == 4

    def test_slope_needs_three_points(self):
        pts = [RatePoint(snr_db=s, sum_rate=1.0, per_receiver=()) for s in (40.0, 80.0)]
        with pytest.raises(ValueError):
            dof_slope(pts)

    def test_slope_needs_span(self):
        pts = [RatePoint(snr_db=s, sum_rate=1.0, per_receiver=()) for s in (40.0, 45.0, 50.0)]
        with pytest.raises(ValueError):
            dof_slope(pts)

    def test_small_sweep_slope_near_dof(self):
        pts = sweep_rates(2, 2, [40.0, 60.0, 80.0], draws=40, seed=0)
        fit = dof_slope(pts)
        assert fit.slope == pytest.approx(4.0 / 3.0, rel=0.05)


class TestOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_passes_many_seeds(self, seed):
        report = oracle_verify_3user(seed=seed)
        assert report.passed, report.first_failure
        assert report.first_failure is None

    def test_check_inventory(self):
        report = oracle_verify_3user(seed=0)
        names = [c.name for c in report.checks]
        for t in range(1, 7):
            assert f"transmit-slot-{t}" in names
            assert f"receive-slot-{t}" in names
        assert "discarded-pattern" in names
        assert "decode-recovery" in names
        assert sum(1 for n in names if n.startswith("subtraction-")) == 6

    def test_tampered_plan_caught(self):
        # drop the inverse from one precoding coefficient: the slot-4 transmit
        # check must be the first to diverge
        from xchannel.channel import generate_channels, generate_messages, run_streams
        from xchannel.transmit import build_transmit_plan

        s = build_schedule(3, 3)
        channel_seed, message_seed, _ = run_streams(0)  # the oracle's own draws
        ch = generate_channels(3, 3, s.T, channel_seed, mask=s.used)
        ms = generate_messages(3, 3, 1, message_seed)
        plan = build_transmit_plan(s, ms, ch, build_csit_table(s))
        assert oracle_verify_3user(seed=0, plan=plan).passed
        coefficients = plan.coefficients.copy()
        coefficients[3, 0, 0] = ch.h[1, 0, 0]  # member (0, 0), transmitter 0
        tampered = dataclasses.replace(plan, coefficients=coefficients, _signals=None)
        report = oracle_verify_3user(seed=0, plan=tampered)
        assert not report.passed
        assert report.first_failure == "transmit-slot-4"

    def test_report_records_seed(self):
        assert oracle_verify_3user(seed=7).seed == 7


class TestVerifySuite:
    def test_all_checks_pass(self):
        checks = verify_suite(grid=5, oracle_seeds=2, perm_trials=2)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        names = {c.name for c in checks}
        assert {
            "csit-table-3x3",
            "oracle-3x3-2-seeds",
            "dof-grid-to-5",
            "csit-state-counts",
            "csit-audit",
            "noiseless-decode",
            "variant-count-3x3",
            "permutation-decode",
        } <= names
