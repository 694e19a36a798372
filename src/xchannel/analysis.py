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

from .receive import LinearSystem
from .schedule import (
    ObservationKind,
    Schedule,
    build_schedule,
    count_csit_variants,
    permute_schedule,
)
from .simulate import run_simulation
from .transmit import audit_csit_trace

__all__ = [
    "DofReport",
    "RatePoint",
    "SlopeFit",
    "OracleReport",
    "CheckResult",
    "sum_rate",
    "sweep_rates",
    "check_snr_grid",
    "dof_slope",
    "oracle_verify_3user",
    "verify_suite",
]

ORACLE_TOL = 1e-12  # oracle_verify_3user's relative tolerance
PERM_TRIALS = 5  # verify_suite's random slot permutations per shape


@dataclass(frozen=True)
class DofReport:
    """Exact sum-DoF bookkeeping for one schedule: kMN messages over its T slots against 2M/(M+1)."""

    schedule: Schedule

    message_count = property(lambda self: self.schedule.k * self.schedule.M * self.schedule.N)
    achieved = property(lambda self: Fraction(self.message_count, self.schedule.T))
    closed_form = property(lambda self: Fraction(2 * self.schedule.M, self.schedule.M + 1))
    equal = property(lambda self: self.achieved == self.closed_form)

    def to_dict(self) -> dict:
        s = self.schedule
        return {
            "M": s.M,
            "N": s.N,
            "case": s.case.value,
            "k": s.k,
            "T": s.T,
            "messages": self.message_count,
            "achieved": str(self.achieved),
            "closed_form": str(self.closed_form),
            "equal": self.equal,
        }


@dataclass(frozen=True)
class RatePoint:
    snr_db: float
    sum_rate: float
    per_receiver: tuple[float, ...]


def sum_rate(systems: LinearSystem, snr_dbs) -> list[RatePoint]:
    """Achievable sum rate (bits per channel use), one RatePoint per SNR in `snr_dbs`.

    The total budget 10^(snr_db/10) is split equally over the M transmitters,
    giving per-message symbol power P_s; each receiver contributes

        R_i = [log det(Sigma + P_s G G^H) - log det Sigma] / (T ln 2),

    which equals (1/T) log2 det(I + P_s G^H Sigma^-1 G). A log det is twice the
    summed log of a Cholesky factor's real diagonal, so R_i sums the logs of the
    diagonal ratios of one stacked Cholesky of Sigma per call and one of
    Sigma + P_s G G^H per SNR; no SVD or whitening solve. Requires the noisy
    systems (positive definite Sigma) of one run as one stack with a receiver
    axis last, as assemble_system returns them; draw axes in front of it are
    averaged over.

    The trade is accuracy. The error is absolute, within about 1e-15 bits up to
    0 dB, so a rate of 1e-30 at -300 dB reads as 0 (rates are floored at 0, the
    exact value's bound), and the relative error grows with cond(G)^2 where an
    SVD of L^-1 G grows with cond(G): up to a few 1e-12 over 0-120 dB. A
    numerically rank-deficient G fails a per-SNR Cholesky far above 100 dB,
    which raises a RuntimeError naming the SNR. An empty snr_dbs raises ValueError.
    """
    if not len(snr_dbs):
        raise ValueError(f"snr_dbs must hold at least one SNR, got {snr_dbs!r}")
    try:
        sigma_diag = np.linalg.cholesky(systems.sigma).diagonal(axis1=-2, axis2=-1)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "noise covariance is singular; rate evaluation needs a noisy run"
        ) from exc
    G = systems.G
    gram = G @ G.conj().swapaxes(-1, -2)  # (..., N, kM, kM)
    p_s = 10.0 ** (np.asarray(snr_dbs, dtype=float) / 10.0) / systems.M
    rates = np.empty((len(p_s),) + sigma_diag.shape[:-1])
    shifted = np.empty_like(gram)  # Sigma + P_s G G^H, rebuilt in place per SNR
    for n, (snr, p) in enumerate(zip(snr_dbs, p_s.tolist())):
        np.multiply(gram, p, out=shifted)
        shifted += systems.sigma
        try:
            L = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"Sigma + P_s G G^H is not numerically positive definite at {snr} dB; "
                "a receiver's G is numerically rank-deficient"
            ) from exc
        rates[n] = np.log(L.diagonal(axis1=-2, axis2=-1).real / sigma_diag).sum(axis=-1)
    rates = np.maximum(rates, 0.0) * (2.0 / (math.log(2) * systems.T))
    rates = rates.reshape(len(p_s), -1, rates.shape[-1]).mean(axis=1)  # over draws
    return [
        RatePoint(snr_db=float(snr), sum_rate=float(sum(r)), per_receiver=tuple(r))
        for snr, r in zip(snr_dbs, rates.tolist())
    ]


DRAW_CHUNK_ELEMENTS = 1 << 16  # caps D*N*M*T, so a chunk's (D, N, M, U) channel store (U <= T) too


def sweep_rates(schedule: Schedule, snr_dbs, draws: int = 200, seed: int = 0,
                normalize: bool = True) -> list[RatePoint]:
    """Ergodic rate curve of the schedule: average sum_rate over `draws` channel realizations.

    The same realizations are reused at every SNR point, which keeps the fitted slope estimate
    stable. Draw d runs on the Philox streams (key, d, c) of the seed's key (run_streams), so draw
    d is run_simulation(schedule, seed, draws=range(d, d + 1)) whatever the chunking; each chunk
    of draws within DRAW_CHUNK_ELEMENTS (at least one) is one stacked run and one sum_rate.
    draws < 1 or an empty snr_dbs raises ValueError, a bool or float draws TypeError, before any draw.
    """
    if isinstance(draws, bool) or not hasattr(type(draws), "__index__"):  # True is no draw count
        raise TypeError(f"draws must be an integer, not the {type(draws).__name__} {draws!r}")
    if draws < 1:
        raise ValueError(f"need at least one draw, got {draws}")
    if not (snr_dbs := list(snr_dbs)):
        raise ValueError("snr_dbs must hold at least one SNR, got []")
    chunk = max(1, DRAW_CHUNK_ELEMENTS // (schedule.N * schedule.M * schedule.T))
    per = np.zeros((len(snr_dbs), schedule.N))
    for start in range(0, draws, chunk):
        batch = range(start, min(start + chunk, draws))
        sim = run_simulation(schedule, seed, draws=batch, noise_enabled=True, normalize=normalize)
        points = sum_rate(sim.systems, snr_dbs)
        per += len(batch) / draws * np.array([pt.per_receiver for pt in points])
        del sim  # free this chunk's arrays before the next chunk draws
    return [
        RatePoint(snr_db=float(snr), sum_rate=float(sum(r)), per_receiver=tuple(r))
        for snr, r in zip(snr_dbs, per.tolist())
    ]


def check_snr_grid(snr_dbs) -> None:
    """Raise ValueError unless the SNRs can fit a slope: at least 3 spanning 20 dB, none
    beyond 300 dB either way (a power ratio of 10^30), where rates overflow or vanish."""
    huge = [float(x) for x in snr_dbs if abs(x) > 300.0]
    if huge:
        raise ValueError(f"SNRs must lie between -300 and 300 dB, got {huge[0]!r}")
    if len(snr_dbs) < 3:
        raise ValueError(f"need at least 3 rate points, got {len(snr_dbs)}")
    if max(snr_dbs) - min(snr_dbs) < 20.0:
        raise ValueError("rate points must span at least 20 dB")


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual_rms: float


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
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class OracleReport:
    draw: int
    checks: tuple[CheckResult, ...]

    passed = property(lambda self: all(c.passed for c in self.checks))


def _rel_close(a: list, b: list, tol: float) -> bool:
    """Plain-Python check of two equal-length lists of numbers: every |a_i - b_i| is at most
    tol * max(1, max |a|, max |b|); a NaN on either side fails."""
    scale = max(1.0, *map(abs, a), *map(abs, b))
    return all(abs(x - y) <= tol * scale for x, y in zip(a, b, strict=True))


def _hand_report(draw, stored, column, w, X_pipe, Y_pipe, slots, discarded_got,
                 estimates, decoded) -> OracleReport:
    """One draw's oracle checks, on nested lists: stored[i][j][u] channels, column[i][t]
    their lookup, w[i][j] messages, X_pipe[j][t] and Y_pipe[i][t] the pipeline's
    signals and observations, slots[i] the stored slots, discarded_got the cells the
    log marks discarded, estimates[i][j] and decoded[i] the decode."""

    def h(i: int, j: int, t: int) -> complex:  # raises IndexError on a cell not stored
        return stored[i][j][column[i][t]]

    checks: list[CheckResult] = []

    # Transmitted signals. Phase 1 broadcasts message groups verbatim; the
    # three pair slots invert the partner's current fading and re-apply the
    # fading of the member's own broadcast slot.
    X_hand = [[0j] * 6 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            X_hand[j][i] = w[i][j]
    for j in range(3):
        X_hand[j][3] = h(1, j, 0) / h(1, j, 3) * w[0][j] + h(0, j, 1) / h(0, j, 3) * w[1][j]
        X_hand[j][4] = h(2, j, 0) / h(2, j, 4) * w[0][j] + h(0, j, 2) / h(0, j, 4) * w[2][j]
        X_hand[j][5] = h(2, j, 1) / h(2, j, 5) * w[1][j] + h(1, j, 2) / h(1, j, 5) * w[2][j]
    for t in range(6):
        pipe, hand = [X_pipe[j][t] for j in range(3)], [X_hand[j][t] for j in range(3)]
        ok = _rel_close(pipe, hand, ORACLE_TOL)
        checks.append(
            CheckResult(
                name=f"transmit-slot-{t + 1}",
                passed=ok,
                detail="" if ok else f"pipeline {pipe} vs oracle {hand}",
            )
        )

    discarded_expected = {(2, 3), (1, 4), (0, 5)}  # each pair slot's third receiver
    Y_hand = [[complex(math.nan, math.nan)] * 6 for _ in range(3)]
    for i in range(3):
        for t in range(6):
            if (i, t) not in discarded_expected:
                Y_hand[i][t] = sum(h(i, j, t) * X_hand[j][t] for j in range(3))
    for t in range(6):
        pipe, hand = [Y_pipe[i][t] for i in range(3)], [Y_hand[i][t] for i in range(3)]
        used = [i for i in range(3) if (i, t) not in discarded_expected]
        ok = _rel_close([pipe[i] for i in used], [hand[i] for i in used], ORACLE_TOL)
        checks.append(
            CheckResult(
                name=f"receive-slot-{t + 1}",
                passed=ok,
                detail="" if ok else f"pipeline {pipe} vs oracle {hand}",
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
        lhs = Y_hand[i][t] - Y_hand[i][t_stored]
        rhs = sum(
            h(i, j, t) * h(partner, j, i) / h(partner, j, t) * w[i][j] for j in range(3)
        )
        ok = _rel_close([lhs], [rhs], ORACLE_TOL)
        checks.append(
            CheckResult(
                name=f"subtraction-r{i + 1}-slot{t + 1}",
                passed=ok,
                detail="" if ok else f"difference {lhs} vs clean combination {rhs}",
            )
        )

    never_stored = {  # a NaN, unlike any number, is unequal to itself
        (i, t) for i, t in discarded_got if t not in slots[i] and Y_pipe[i][t] != Y_pipe[i][t]
    }
    checks.append(
        CheckResult(
            name="discarded-pattern",
            passed=discarded_got == discarded_expected == never_stored,
            detail=f"{sorted(discarded_got)}, not stored and NaN at {sorted(never_stored)}",
        )
    )

    recovered = all(decoded[i] and _rel_close(estimates[i], w[i], 1e-8) for i in range(3))
    checks.append(CheckResult(name="decode-recovery", passed=recovered))

    return OracleReport(draw=draw, checks=tuple(checks))


def oracle_verify_3user(draws) -> tuple[OracleReport, ...]:
    """Check run_simulation(build_schedule(3, 3), 0, draws=draws) against hand-written per-slot
    formulas.

    The run's channels are read cell by cell through their (receiver, slot)
    lookup. Every transmitted signal, every used received value, all six
    stored-replay subtractions, the discarded-observation pattern (not
    stored, observed as NaN), and final recovery are re-derived
    independently (plain loops, explicit index arithmetic, Python numbers
    taken once with tolist) and compared at relative tolerance ORACLE_TOL. A
    tampered stage of run_simulation makes the first divergent check fail,
    which is how the oracle itself is exercised.

    The range of draws of seed 0 is one stacked run_simulation and gives one
    report per draw in order. The hand formulas hard-code the slot layout of
    the canonical (3, 3) schedule, which the run is given.
    """
    if not len(draws):
        return ()
    sim = run_simulation(build_schedule(3, 3), 0, draws=draws)
    channels, log, d = sim.channels, sim.log, sim.decoding
    per_draw = zip(
        draws,
        channels.h.tolist(),
        sim.messages[..., 0].tolist(),
        sim.plan.signal_matrix(sim.messages).tolist(),
        log.values.tolist(),
        d.estimates.tolist(),
        d.decoded.tolist(),
    )
    column, slots, entries = channels.columns.tolist(), channels.slots.tolist(), log.entries.tolist()
    discarded_got = {
        (i, t) for i in range(3) for t in range(6) if entries[i][t] == ObservationKind.DISCARDED
    }
    return tuple(
        _hand_report(draw, stored, column, w, X_pipe, Y_pipe, slots, discarded_got, estimates, decoded)
        for draw, stored, w, X_pipe, Y_pipe, estimates, decoded in per_draw
    )


def _check(name: str, bad: list, failure: str, success: str) -> CheckResult:
    """A check that passes when `bad` is empty, with the detail that fits the outcome."""
    return CheckResult(name=name, passed=not bad, detail=failure if bad else success)


def verify_suite(grid: int = 8, oracle_seeds: int = 5) -> list[CheckResult]:
    """Fast invariant sweep used by the command-line `verify` mode.

    build_schedule keeps each canonical schedule and its tables for the
    process, so a later call constructs and checks only its PERM_TRIALS permuted
    schedules per shape, which are never cached. Runs and permutations draw from seed 0.
    """
    if oracle_seeds < 1:  # an oracle over no draw checks nothing
        raise ValueError(f"oracle_seeds must be at least 1, got {oracle_seeds}")
    checks: list[CheckResult] = []

    table = build_schedule(3, 3).csit
    checks.append(
        CheckResult(
            name="csit-table-3x3",
            passed=table.states == ("NDDPPN", "DNDPNP", "DDNNPP"),
            detail=" ".join(table.states),
        )
    )

    reports = oracle_verify_3user(range(oracle_seeds))
    failed = [r.draw for r in reports if not r.passed]
    checks.append(_check(f"oracle-3x3-{oracle_seeds}-seeds", failed,
                         f"failing draws {failed}", f"{oracle_seeds} seeds"))

    bad_dof = []
    bad_counts = []
    for M in range(1, grid + 1):
        for N in range(2, grid + 1):
            s = build_schedule(M, N)
            if not DofReport(s).equal:
                bad_dof.append((M, N))
            # each receiver's P, D and N counts: k(M-1), k(N-1) and the rest
            expect = [s.k * (M - 1), s.k * (N - 1), s.T - s.k * (M + N - 2)]
            bad_counts += [(M, N, i) for i, row in enumerate(s.csit.states)
                           if [row.count("P"), row.count("D"), row.count("N")] != expect]
    checks.append(_check(f"dof-grid-to-{grid}", bad_dof,
                         f"mismatches {bad_dof}", f"{grid - 1} x {grid} configs"))
    checks.append(_check("csit-state-counts", bad_counts,
                         f"mismatches {bad_counts[:5]}", "per-receiver P/D/N counts"))

    audit_bad = []
    decode_bad = []
    for M, N in [(2, 2), (3, 3), (4, 3), (2, 4), (5, 4), (2, 3)]:
        sim = run_simulation(build_schedule(M, N), seed=0)
        if len(audit_csit_trace(sim.plan.csit_reads, sim.schedule.csit)):
            audit_bad.append((M, N))
        if not sim.all_recovered():
            decode_bad.append((M, N))
    checks.append(_check("csit-audit", audit_bad,
                         f"violations at {audit_bad}", "all reads within contract"))
    checks.append(_check("noiseless-decode", decode_bad,
                         f"failures at {decode_bad}", "exact recovery"))

    variants = count_csit_variants(build_schedule(3, 3))
    checks.append(CheckResult(name="variant-count-3x3", passed=variants == 36, detail=str(variants)))

    rng = np.random.default_rng(0)
    perm_bad = []
    for M, N in [(3, 3), (2, 4)]:
        base = build_schedule(M, N)
        for _ in range(PERM_TRIALS):
            p1 = rng.permutation(base.phase1_len)
            p2 = rng.permutation(base.T - base.phase1_len)
            permuted = permute_schedule(base, p1, p2)
            if not run_simulation(permuted, seed=0).all_recovered():
                perm_bad.append((M, N, list(p1), list(p2)))
    checks.append(_check("permutation-decode", perm_bad,
                         f"failures {perm_bad[:2]}", f"{2 * PERM_TRIALS} permutations"))

    return checks
