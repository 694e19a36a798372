"""Exact schedule accounting, rate evaluation, and independent verification.

The degrees-of-freedom bookkeeping is done in rational arithmetic so the
closed form 2M/(M+1) is checked exactly, not to floating tolerance. The
3-user oracle re-derives every transmitted and received value of the (3, 3)
instance from first principles (explicit per-slot formulas and plain Python
loops) and compares the pipeline against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import NoiseModel, generate_channels, generate_messages, run_streams
from .receive import (
    LinearSystem,
    ObservationKind,
    assemble_system,
    decode,
    observe_all,
)
from .schedule import (
    Schedule,
    build_csit_table,
    build_schedule,
    count_csit_variants,
    permute_schedule,
)
from .simulate import run_simulation
from .transmit import TransmitPlan, audit_csit_trace, build_transmit_plan

__all__ = [
    "DofReport",
    "RatePoint",
    "SlopeFit",
    "OracleReport",
    "CheckResult",
    "dof_report",
    "sum_rate",
    "sweep_rates",
    "check_snr_grid",
    "dof_slope",
    "oracle_verify_3user",
    "verify_suite",
]


@dataclass(frozen=True)
class DofReport:
    """Exact sum-DoF bookkeeping for one schedule."""

    M: int
    N: int
    case: str
    k: int
    T: int
    message_count: int
    achieved: Fraction
    closed_form: Fraction
    equal: bool

    def to_dict(self) -> dict:
        return {
            "M": self.M,
            "N": self.N,
            "case": self.case,
            "k": self.k,
            "T": self.T,
            "messages": self.message_count,
            "achieved": str(self.achieved),
            "closed_form": str(self.closed_form),
            "equal": self.equal,
        }


def dof_report(schedule: Schedule) -> DofReport:
    """One message per slot-normalized unknown: kMN messages over T slots."""
    achieved = Fraction(schedule.message_count, schedule.T)
    closed = Fraction(2 * schedule.M, schedule.M + 1)
    return DofReport(
        M=schedule.M,
        N=schedule.N,
        case=schedule.case.value,
        k=schedule.k,
        T=schedule.T,
        message_count=schedule.message_count,
        achieved=achieved,
        closed_form=closed,
        equal=achieved == closed,
    )


@dataclass(frozen=True)
class RatePoint:
    snr_db: float
    sum_rate: float
    per_receiver: tuple[float, ...]


def sum_rate(systems, snr_dbs, allocation: str = "equal") -> list[RatePoint]:
    """Achievable sum rate (bits per channel use), one RatePoint per SNR in `snr_dbs`.

    The total budget 10^(snr_db/10) is split equally over the M transmitters,
    giving per-message symbol power P_s; each receiver contributes
    (1/T) log2 det(I + P_s G^H Sigma^-1 G) = (1/T) sum log2(1 + P_s s^2) over the
    singular values s of L^-1 G, Sigma = L L^H, so one stacked Cholesky and SVD
    serve every SNR. Requires the noisy systems (positive definite Sigma) of one
    run, as a sequence or a stacked LinearSystem; draw axes are averaged over.
    """
    if allocation != "equal":
        raise ValueError(f"unknown power allocation {allocation!r}")
    if not systems:
        raise ValueError("need at least one receiver system")
    if not isinstance(systems, LinearSystem):
        sigma, G = (np.stack([getattr(sys, name) for sys in systems]) for name in ("sigma", "G"))
    else:
        sigma, G = systems.sigma, systems.G
    try:
        L = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "noise covariance is singular; rate evaluation needs a noisy run"
        ) from exc
    s2 = np.linalg.svd(np.linalg.solve(L, G), compute_uv=False) ** 2  # (..., N, kM)
    first = next(iter(systems))  # a stack is not indexable
    p_s = 10.0 ** (np.asarray(snr_dbs, dtype=float) / 10.0) / first.M
    rates = np.log1p(p_s.reshape((-1,) + (1,) * s2.ndim) * s2).sum(axis=-1) / (math.log(2) * first.T)
    rates = rates.reshape(len(p_s), -1, s2.shape[-2]).mean(axis=1)  # over draws
    return [
        RatePoint(snr_db=float(snr), sum_rate=float(sum(r)), per_receiver=tuple(r))
        for snr, r in zip(snr_dbs, rates.tolist())
    ]


DRAW_CHUNK_ELEMENTS = 1 << 16  # budget on D*N*M*T, the channel elements a sweep chunk stores


def sweep_rates(
    M: int,
    N: int,
    snr_dbs,
    draws: int = 200,
    seed: int = 0,
    normalize: bool = True,
) -> list[RatePoint]:
    """Ergodic rate curve: average sum_rate over `draws` channel realizations.

    The same realizations are reused at every SNR point, which keeps the
    fitted slope estimate stable. Draw d runs on SeedSequence(seed, spawn_key=(d,)); each chunk
    of draws within DRAW_CHUNK_ELEMENTS (at least one) is one stacked run and one sum_rate.
    """
    if draws < 1:
        raise ValueError(f"need at least one draw, got {draws}")
    snr_dbs = list(snr_dbs)
    schedule = build_schedule(M, N)
    chunk = max(1, DRAW_CHUNK_ELEMENTS // (N * M * schedule.T))
    per = np.zeros((len(snr_dbs), N))
    for start in range(0, draws, chunk):
        seeds = [np.random.SeedSequence(seed, spawn_key=(d,)) for d in range(start, min(start + chunk, draws))]
        sim = run_simulation(
            M, N, seed=seeds, noise_enabled=True, normalize=normalize, schedule=schedule
        )
        points = sum_rate(sim.systems, snr_dbs)
        per += len(seeds) / draws * np.array([pt.per_receiver for pt in points])
        del sim  # free this chunk's arrays before the next chunk draws
    return [
        RatePoint(snr_db=float(snr), sum_rate=float(sum(r)), per_receiver=tuple(r))
        for snr, r in zip(snr_dbs, per.tolist())
    ]


def check_snr_grid(snr_dbs) -> None:
    """Raise ValueError unless the SNRs can fit a slope: at least 3 spanning 20 dB."""
    if len(snr_dbs) < 3:
        raise ValueError(f"need at least 3 rate points, got {len(snr_dbs)}")
    if max(snr_dbs) - min(snr_dbs) < 20.0:
        raise ValueError("rate points must span at least 20 dB")


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual_rms: float
    points: int


def dof_slope(points: list[RatePoint]) -> SlopeFit:
    """Least-squares slope of sum rate against log2(power).

    Needs at least three points spanning at least 20 dB; the slope is the
    empirical pre-log factor and should match the rational DoF.
    """
    snrs = np.array([p.snr_db for p in points], dtype=float)
    check_snr_grid(snrs)
    xs = snrs * (math.log2(10.0) / 10.0)
    ys = np.array([p.sum_rate for p in points], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean((ys - fit) ** 2))),
        points=len(points),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class OracleReport:
    seed: int
    passed: bool
    checks: tuple[CheckResult, ...]

    @property
    def first_failure(self) -> str | None:
        for c in self.checks:
            if not c.passed:
                return c.name
        return None


def _rel_close(a, b, tol) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) <= tol * scale


def oracle_verify_3user(
    seed: int = 0, plan: TransmitPlan | None = None, tol: float = 1e-12
) -> OracleReport:
    """Check the full (3, 3) pipeline against hand-written per-slot formulas.

    The draws are those of run_simulation(3, 3, seed). Every transmitted
    signal, every used received value, all six stored-replay subtractions,
    the discarded-observation pattern (NaN, never drawn), and final recovery
    are re-derived independently (plain loops, explicit index arithmetic) and
    compared at relative tolerance `tol`. Passing a tampered plan makes the
    first divergent transmit check fail, which is how the oracle itself is
    exercised.
    """
    schedule = build_schedule(3, 3)
    channel_seed, message_seed, _ = run_streams(seed)
    channels = generate_channels(3, 3, schedule.T, channel_seed, mask=schedule.used)
    messages = generate_messages(3, 3, schedule.k, message_seed)
    if plan is None:
        plan = build_transmit_plan(
            schedule, messages, channels, build_csit_table(schedule)
        )
    h = channels.h
    w = messages.w[:, :, 0]
    checks: list[CheckResult] = []

    # Transmitted signals. Phase 1 broadcasts message groups verbatim; the
    # three pair slots invert the partner's current fading and re-apply the
    # fading of the member's own broadcast slot.
    X_hand = np.zeros((3, 6), dtype=complex)
    for i in range(3):
        X_hand[:, i] = w[i, :]
    for j in range(3):
        X_hand[j, 3] = h[1, j, 0] / h[1, j, 3] * w[0, j] + h[0, j, 1] / h[0, j, 3] * w[1, j]
        X_hand[j, 4] = h[2, j, 0] / h[2, j, 4] * w[0, j] + h[0, j, 2] / h[0, j, 4] * w[2, j]
        X_hand[j, 5] = h[2, j, 1] / h[2, j, 5] * w[1, j] + h[1, j, 2] / h[1, j, 5] * w[2, j]
    X_pipe = plan.signal_matrix()
    for t in range(6):
        ok = _rel_close(X_pipe[:, t], X_hand[:, t], tol)
        checks.append(
            CheckResult(
                name=f"transmit-slot-{t + 1}",
                passed=ok,
                detail="" if ok else f"pipeline {X_pipe[:, t]} vs oracle {X_hand[:, t]}",
            )
        )

    discarded_expected = {(2, 3), (1, 4), (0, 5)}  # each pair slot's third receiver
    log = observe_all(plan, channels, NoiseModel(enabled=False))
    Y_hand = np.zeros((3, 6), dtype=complex)
    for i in range(3):
        for t in range(6):
            Y_hand[i, t] = sum(h[i, j, t] * X_hand[j, t] for j in range(3))
    for t in range(6):
        used = [i for i in range(3) if (i, t) not in discarded_expected]
        ok = _rel_close(log.values[used, t], Y_hand[used, t], tol)
        checks.append(
            CheckResult(
                name=f"receive-slot-{t + 1}",
                passed=ok,
                detail="" if ok else f"pipeline {log.values[:, t]} vs oracle {Y_hand[:, t]}",
            )
        )

    # Stored-replay subtractions: (receiver, pair slot, stored phase-1 slot,
    # partner) for all six combined observations.
    plan_rows = [
        (0, 3, 1, 1),
        (0, 4, 2, 2),
        (1, 3, 0, 0),
        (1, 5, 2, 2),
        (2, 4, 0, 0),
        (2, 5, 1, 1),
    ]
    for i, t, t_stored, partner in plan_rows:
        lhs = Y_hand[i, t] - Y_hand[i, t_stored]
        rhs = sum(
            h[i, j, t] * h[partner, j, i] / h[partner, j, t] * w[i, j] for j in range(3)
        )
        ok = _rel_close(lhs, rhs, tol)
        checks.append(
            CheckResult(
                name=f"subtraction-r{i + 1}-slot{t + 1}",
                passed=ok,
                detail="" if ok else f"difference {lhs} vs clean combination {rhs}",
            )
        )

    discarded_got = {
        (i, t)
        for i in range(3)
        for t in range(6)
        if log.entries[i][t] == ObservationKind.DISCARDED
    }
    never_drawn = {(i, t) for i, t in discarded_got if np.isnan(h[i, :, t]).all() and np.isnan(log.values[i, t])}
    checks.append(
        CheckResult(
            name="discarded-pattern",
            passed=discarded_got == discarded_expected == never_drawn,
            detail=f"{sorted(discarded_got)}, NaN at {sorted(never_drawn)}",
        )
    )

    recovered = True
    for i, system in enumerate(assemble_system(log, np.arange(3))):
        d = decode(system)
        truth = messages.w[i].T.reshape(-1)
        if not d.success or not _rel_close(d.estimates, truth, 1e-8):
            recovered = False
    checks.append(CheckResult(name="decode-recovery", passed=recovered))

    return OracleReport(seed=seed, passed=all(c.passed for c in checks), checks=tuple(checks))


def _check(name: str, bad: list, failure: str, success: str) -> CheckResult:
    """A check that passes when `bad` is empty, with the detail that fits the outcome."""
    return CheckResult(name=name, passed=not bad, detail=failure if bad else success)


def verify_suite(
    grid: int = 8, oracle_seeds: int = 5, perm_trials: int = 5, seed: int = 0
) -> list[CheckResult]:
    """Fast invariant sweep used by the command-line `verify` mode."""
    checks: list[CheckResult] = []

    table = build_csit_table(build_schedule(3, 3))
    checks.append(
        CheckResult(
            name="csit-table-3x3",
            passed=table.states == ("NDDPPN", "DNDPNP", "DDNNPP"),
            detail=" ".join(table.states),
        )
    )

    failed = [s for s in range(oracle_seeds) if not oracle_verify_3user(seed=s).passed]
    checks.append(_check(f"oracle-3x3-{oracle_seeds}-seeds", failed,
                         f"failing seeds {failed}", f"{oracle_seeds} seeds"))

    bad_dof = []
    bad_counts = []
    for M in range(1, grid + 1):
        for N in range(2, grid + 1):
            s = build_schedule(M, N)
            if not dof_report(s).equal:
                bad_dof.append((M, N))
            t = build_csit_table(s)
            for i in range(N):
                c = t.counts(i)
                expect = {
                    "P": s.k * (M - 1),
                    "D": s.k * (N - 1),
                    "N": s.T - s.k * (M - 1) - s.k * (N - 1),
                }
                if c != expect:
                    bad_counts.append((M, N, i))
    checks.append(_check(f"dof-grid-to-{grid}", bad_dof,
                         f"mismatches {bad_dof}", f"{grid - 1} x {grid} configs"))
    checks.append(_check("csit-state-counts", bad_counts,
                         f"mismatches {bad_counts[:5]}", "per-receiver P/D/N counts"))

    audit_bad = []
    decode_bad = []
    for M, N in [(2, 2), (3, 3), (4, 3), (2, 4), (5, 4), (2, 3)]:
        sim = run_simulation(M, N, seed=seed)
        if sim.plan.csit_violations or audit_csit_trace(sim.plan.csit_reads, sim.table):
            audit_bad.append((M, N))
        if not sim.all_recovered():
            decode_bad.append((M, N))
    checks.append(_check("csit-audit", audit_bad,
                         f"violations at {audit_bad}", "all reads within contract"))
    checks.append(_check("noiseless-decode", decode_bad,
                         f"failures at {decode_bad}", "exact recovery"))

    variants = count_csit_variants(3, 3)
    checks.append(CheckResult(name="variant-count-3x3", passed=variants == 36, detail=str(variants)))

    rng = np.random.default_rng(seed)
    perm_bad = []
    for M, N in [(3, 3), (2, 4)]:
        base = build_schedule(M, N)
        for _ in range(perm_trials):
            p1 = rng.permutation(base.phase1_len)
            p2 = rng.permutation(base.T - base.phase1_len)
            permuted = permute_schedule(base, p1, p2)
            if not run_simulation(M, N, seed=seed, schedule=permuted).all_recovered():
                perm_bad.append((M, N, list(p1), list(p2)))
    checks.append(_check("permutation-decode", perm_bad,
                         f"failures {perm_bad[:2]}", f"{2 * perm_trials} permutations"))

    return checks
