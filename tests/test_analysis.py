"""Tests for DoF accounting, rate evaluation, the hand oracle, and verify_suite."""

import dataclasses
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from xchannel.analysis import (
    DofReport,
    RatePoint,
    dof_slope,
    oracle_verify_3user,
    sum_rate,
    sweep_rates,
    verify_suite,
)
from xchannel.receive import LinearSystem
from xchannel.schedule import build_schedule
from xchannel.simulate import run_simulation
from xchannel.transmit import TransmitPlan


def first_failure(report):
    """Name of the report's first failing check, None when every check passed."""
    return next((c.name for c in report.checks if not c.passed), None)


def tamper_member(monkeypatch, draw=(0,)):
    """Make run_simulation's plans drop the inverse from one precoding coefficient of
    slot 4 (member (0, 0), transmitter 0), in the given draw of a stacked run."""
    import xchannel.simulate as simulate

    original = simulate.build_transmit_plan

    def tampering(channels, table, **kwargs):
        plan = original(channels, table, **kwargs)
        coefficients = plan.coefficients.copy()
        coefficients[(*draw, 3, 0, 0)] = channels.rows(1, 0)[(*draw, 0)]  # h[1, 0, 0]
        return dataclasses.replace(plan, coefficients=coefficients)

    monkeypatch.setattr(simulate, "build_transmit_plan", tampering)


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
        rep = DofReport(build_schedule(M, N))
        assert rep.achieved == want
        assert rep.closed_form == want
        assert rep.equal

    def test_exact_rational_arithmetic(self):
        rep = DofReport(build_schedule(4, 3))
        assert rep.achieved == Fraction(24, 15)
        assert isinstance(rep.achieved, Fraction)

    def test_grid_always_equal(self):
        for M in range(1, 9):
            for N in range(2, 9):
                assert DofReport(build_schedule(M, N)).equal

    def test_to_dict(self):
        d = DofReport(build_schedule(3, 3)).to_dict()
        assert d["achieved"] == "3/2"
        assert d["closed_form"] == "3/2"
        assert d["equal"] is True
        assert (d["T"], d["messages"]) == (6, 9)


def toy_system(G, sigma, T=1):
    """A stack of one receiver's system, shaped as assemble_system's stack of N = 1 receivers."""
    G = np.asarray(G, dtype=complex)[None]
    m = G.shape[-1]
    return LinearSystem(
        G=G, y=G @ np.ones(m), sigma=np.asarray(sigma, dtype=float)[None],
        noise_map=np.zeros((1, m, T)), T=T, M=m,
    )


class TestSumRate:
    def test_scalar_closed_form(self):
        sys1 = toy_system([[1.0]], [[1.0]])
        snrs = [0.0, 10.0, 30.0]
        pts = sum_rate(sys1, snrs)
        assert [p.snr_db for p in pts] == snrs
        for snr, pt in zip(snrs, pts):
            want = math.log2(1.0 + 10.0 ** (snr / 10.0))
            assert pt.sum_rate == pytest.approx(want, rel=1e-12)

    def test_power_split_across_transmitters(self):
        # M = 2 halves the per-message power of each unknown
        sysa = toy_system(np.eye(2), np.eye(2))
        (pt,) = sum_rate(sysa, [20.0])
        want = 2 * math.log2(1.0 + 100.0 / 2.0)
        assert pt.sum_rate == pytest.approx(want, rel=1e-12)

    def test_slot_normalization(self):
        sys1 = toy_system([[1.0]], [[1.0]], T=4)
        (pt,) = sum_rate(sys1, [10.0])
        assert pt.sum_rate == pytest.approx(math.log2(11.0) / 4.0, rel=1e-12)

    def test_per_receiver_adds_up(self):
        sim = run_simulation(build_schedule(3, 3), seed=0, noise_enabled=True, normalize=True)
        (pt,) = sum_rate(sim.systems, [30.0])
        assert len(pt.per_receiver) == 3
        assert pt.sum_rate == pytest.approx(sum(pt.per_receiver), rel=1e-12)

    def test_monotone_in_snr(self):
        sim = run_simulation(build_schedule(3, 3), seed=1, noise_enabled=True, normalize=True)
        rates = [p.sum_rate for p in sum_rate(sim.systems, (0, 10, 20, 30))]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_noiseless_rejected(self):
        sim = run_simulation(build_schedule(3, 3), seed=0)
        with pytest.raises(RuntimeError, match="noise covariance is singular"):
            sum_rate(sim.systems, [20.0])

    def test_rank_deficient_channel_fails_at_the_snr_it_names(self):
        # G G^H = [[2, 2], [2, 2]] has rank 1: Sigma + P_s G G^H stays positive definite
        # at 100 dB, where the rate is log2(1 + 4 P_s), but rounds to singular at 300 dB
        sys1 = toy_system([[1.0, 1.0], [1.0, 1.0]], np.eye(2))
        (pt,) = sum_rate(sys1, [100.0])
        assert pt.sum_rate == pytest.approx(math.log2(1.0 + 2e10), rel=1e-6)
        with pytest.raises(RuntimeError, match=r"at 300\.0 dB") as exc:
            sum_rate(sys1, [0.0, 300.0])
        assert "noise covariance" not in str(exc.value)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


    def test_equals_a_fresh_cholesky_per_snr(self):
        # a stacked noisy, normalized 8x8 run, against a reference that factors a
        # freshly built Sigma + P_s G G^H at every SNR: bit for bit, inputs untouched
        sim = run_simulation(build_schedule(8, 8), seed=3, draws=range(3), noise_enabled=True, normalize=True)
        systems = sim.systems
        G, sigma = systems.G.tobytes(), systems.sigma.tobytes()
        snrs = [-20.0, 0.0, 40.0, 60.0, 80.0]
        points = sum_rate(systems, snrs)
        sigma_diag = np.linalg.cholesky(systems.sigma).diagonal(axis1=-2, axis2=-1)
        gram = systems.G @ systems.G.conj().swapaxes(-1, -2)
        p_s = 10.0 ** (np.asarray(snrs, dtype=float) / 10.0) / systems.M
        rates = np.empty((len(snrs),) + sigma_diag.shape[:-1])
        for n, p in enumerate(p_s.tolist()):
            L = np.linalg.cholesky(systems.sigma + p * gram)
            rates[n] = np.log(L.diagonal(axis1=-2, axis2=-1).real / sigma_diag).sum(axis=-1)
        rates = np.maximum(rates, 0.0) * (2.0 / (math.log(2) * systems.T))
        want = rates.reshape(len(snrs), -1, 8).mean(axis=1).tolist()
        assert [pt.per_receiver for pt in points] == [tuple(r) for r in want]
        assert [pt.sum_rate for pt in points] == [float(sum(r)) for r in want]
        assert systems.G.tobytes() == G and systems.sigma.tobytes() == sigma


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

    def test_slope_needs_three_points(self):
        pts = [RatePoint(snr_db=s, sum_rate=1.0, per_receiver=()) for s in (40.0, 80.0)]
        with pytest.raises(ValueError):
            dof_slope(pts)

    def test_slope_needs_span(self):
        pts = [RatePoint(snr_db=s, sum_rate=1.0, per_receiver=()) for s in (40.0, 45.0, 50.0)]
        with pytest.raises(ValueError):
            dof_slope(pts)

    def test_slope_needs_snrs_within_300_db(self):
        line = [RatePoint(snr_db=s, sum_rate=s, per_receiver=()) for s in (-300.0, 0.0, 300.0)]
        assert dof_slope(line).slope == pytest.approx(math.log10(2.0) * 10.0)
        for huge in (300.5, -4000.0):
            pts = [RatePoint(snr_db=s, sum_rate=1.0, per_receiver=()) for s in (huge, 0.0, 10.0)]
            with pytest.raises(ValueError, match="between -300 and 300 dB"):
                dof_slope(pts)

    def test_small_sweep_slope_near_dof(self):
        pts = sweep_rates(2, 2, [40.0, 60.0, 80.0], draws=40, seed=0)
        fit = dof_slope(pts)
        assert fit.slope == pytest.approx(4.0 / 3.0, rel=0.05)


class TestOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_passes_many_seeds(self, seed):
        (report,) = oracle_verify_3user(range(seed, seed + 1))
        assert report.passed, first_failure(report)
        assert first_failure(report) is None

    def test_check_inventory(self):
        (report,) = oracle_verify_3user(range(1))
        names = [c.name for c in report.checks]
        for t in range(1, 7):
            assert f"transmit-slot-{t}" in names
            assert f"receive-slot-{t}" in names
        assert "discarded-pattern" in names
        assert "decode-recovery" in names
        assert sum(1 for n in names if n.startswith("subtraction-")) == 6

    def test_tampered_plan_caught(self, monkeypatch):
        # drop the inverse from one precoding coefficient of the run the oracle
        # checks: the slot-4 transmit check must be the first to diverge
        assert oracle_verify_3user(range(1))[0].passed
        tamper_member(monkeypatch)
        (report,) = oracle_verify_3user(range(1))
        assert not report.passed
        assert first_failure(report) == "transmit-slot-4"

    def test_report_records_draw(self):
        assert [r.draw for r in oracle_verify_3user(range(7, 9))] == [7, 8]

    def test_draw_range_matches_single_draw_calls(self):
        # one report per draw of seed 0, in order, each equal check by check to that draw's own call
        reports = oracle_verify_3user(range(10))
        assert isinstance(reports, tuple) and [r.draw for r in reports] == list(range(10))
        for d, report in enumerate(reports):
            (single,) = oracle_verify_3user(range(d, d + 1))
            assert report.draw == single.draw == d
            assert report.passed and single.passed
            assert [(c.name, c.passed, c.detail) for c in report.checks] == [
                (c.name, c.passed, c.detail) for c in single.checks
            ]

    def test_empty_seed_sequence_gives_no_reports(self):
        assert oracle_verify_3user(range(0)) == ()

    def test_stacked_plan_tampered_in_one_draw(self, monkeypatch):
        draws = range(3)
        assert all(r.passed for r in oracle_verify_3user(draws))
        tamper_member(monkeypatch, draw=(1,))
        reports = oracle_verify_3user(draws)
        assert [r.passed for r in reports] == [True, False, True]
        assert first_failure(reports[1]) == "transmit-slot-4"

    def test_comparison_is_plain_python_and_fails_on_nan(self):
        from xchannel.analysis import _rel_close

        assert _rel_close([1 + 1j, 2.0], [1 + 1j, 2.0 + 1e-13], 1e-12)
        assert _rel_close([1e6], [1e6 + 1e-7], 1e-12)  # relative to the larger magnitude
        assert not _rel_close([1.0], [1.0 + 1e-11], 1e-12)
        assert not _rel_close([complex(math.nan, 0.0)], [1.0], 1e-12)
        assert not _rel_close([1.0, 2.0], [1.0, math.nan], 1e-12)


class TestVerifySuite:
    def test_all_checks_pass(self):
        checks = verify_suite(grid=5, oracle_seeds=2)
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

    @pytest.fixture
    def built(self, monkeypatch):
        """The shapes verify_suite builds canonical schedules for, in call order: the
        builds of every xchannel module that imported build_schedule. The schedule
        cache starts and ends empty, so what a test counts does not depend on order."""
        shapes = []

        def counting(M, N):
            shapes.append((M, N))
            return build_schedule(M, N)

        for name, module in list(sys.modules.items()):
            if (name.startswith("xchannel.") and name != "xchannel.schedule"
                    and getattr(module, "build_schedule", None) is build_schedule):
                monkeypatch.setattr(module, "build_schedule", counting)
        build_schedule.cache_clear()
        yield shapes
        build_schedule.cache_clear()

    @pytest.fixture
    def made(self, monkeypatch):
        """The shapes of the schedules constructed and of the CSIT tables built, in order."""
        import xchannel.schedule as schedule

        made = {"schedules": [], "tables": []}
        check = schedule.Schedule.__post_init__
        monkeypatch.setattr(schedule.Schedule, "__post_init__",
                            lambda s: made["schedules"].append((s.M, s.N)) or check(s))
        original = schedule.build_csit_table
        for name, module in list(sys.modules.items()):  # wherever the name was imported
            if name.startswith("xchannel") and getattr(module, "build_csit_table", None) is original:
                monkeypatch.setattr(
                    module, "build_csit_table", lambda s: made["tables"].append((s.M, s.N)) or original(s)
                )
        return made

    def test_one_schedule_per_shape_per_process(self, built, made):
        # From an empty cache the first call constructs the 56 grid shapes, the
        # oracle's (3, 3) among them, and the 10 permuted schedules of (3, 3) and
        # (2, 4), one CSIT table each; a second call constructs and tables only
        # the permuted ones, which are never cached.
        verify_suite(grid=8)
        assert made["tables"] == made["schedules"]
        assert len(made["schedules"]) == 66 and len(set(made["schedules"])) == 56
        repeated = {shape: n for shape, n in Counter(made["schedules"]).items() if n > 1}
        assert repeated == {(3, 3): 6, (2, 4): 6}
        # it asks build_schedule for every grid shape, some more than once, and
        # the second call asks the same again
        first = list(built)
        assert set(first) == {(M, N) for M in range(1, 9) for N in range(2, 9)}
        for shapes in made.values():
            shapes.clear()
        verify_suite(grid=8)
        assert made["schedules"] == made["tables"] == [(3, 3)] * 5 + [(2, 4)] * 5
        assert built[len(first):] == first

    def test_state_count_mismatches_listed_in_grid_order(self, built, monkeypatch):
        # a CSIT table with one N cell turned D (a grant no read needs) on each
        # receiver of odd index fails csit-state-counts, naming the first five
        # (M, N, i) in grid order, as a per-receiver count of the state strings finds them
        import xchannel.schedule as schedule

        original = schedule.build_csit_table

        def tampered(s):
            grid = original(s).grid.copy()
            for i in range(1, s.N, 2):
                grid[i, np.flatnonzero(grid[i] == ord("N"))[0]] = ord("D")
            return schedule.CsitTable(grid)

        monkeypatch.setattr(schedule, "build_csit_table", tampered)
        checks = {c.name: c for c in verify_suite(grid=4, oracle_seeds=1)}
        want = []
        for M in range(1, 5):
            for N in range(2, 5):
                s = build_schedule(M, N)
                expect = {"P": s.k * (M - 1), "D": s.k * (N - 1), "N": s.T - s.k * (M + N - 2)}
                want += [(M, N, i) for i, row in enumerate(s.csit.states)
                         if {state: row.count(state) for state in "PDN"} != expect]
        assert want[:6] == [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 4, 3), (2, 2, 1), (2, 3, 1)]
        assert not checks["csit-state-counts"].passed
        assert checks["csit-state-counts"].detail == f"mismatches {want[:5]}"

    def test_denied_reads_fail_the_audit_check(self, monkeypatch):
        # two reads the contract denies (a row read before its slot) in every
        # audited trace make csit-audit FAIL; nothing raises
        def fabricated(plan):
            return np.vstack([plan.schedule.pair_reads, [[0, 1, 0], [1, 2, 1]]])

        monkeypatch.setattr(TransmitPlan, "csit_reads", property(fabricated))
        checks = {c.name: c for c in verify_suite(grid=3, oracle_seeds=1)}
        audit = checks.pop("csit-audit")
        assert not audit.passed
        assert audit.detail == "violations at [(2, 2), (3, 3), (4, 3), (2, 4), (5, 4), (2, 3)]"
        assert all(c.passed for c in checks.values())

    def test_grid_two_still_builds_shapes_outside_it(self, built, made):
        # from an empty cache: each canonical shape once, plus the PERM_TRIALS (5)
        # permuted schedules each of (3, 3) and (2, 4)
        checks = verify_suite(grid=2, oracle_seeds=1)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        assert [c.name for c in checks][:3] == ["csit-table-3x3", "oracle-3x3-1-seeds", "dof-grid-to-2"]
        assert sorted(set(built)) == [(1, 2), (2, 2), (2, 3), (2, 4), (3, 3), (4, 3), (5, 4)]
        assert sorted(made["schedules"]) == [(1, 2), (2, 2), (2, 3)] + [(2, 4)] * 6 + [(3, 3)] * 6 + [(4, 3), (5, 4)]
