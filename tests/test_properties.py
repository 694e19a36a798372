"""Invariants of the scheme and its rates, checked as properties over (M, N) and seeds."""

import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xchannel import analysis
from xchannel.analysis import sum_rate, sweep_rates
from xchannel.channel import generate_channels, generate_messages, generate_noise, run_streams
from xchannel.receive import (CONDITION_LIMIT, LinearSystem, ObservationKind as K, assemble_system,
                              decode, observe_all)
from xchannel.schedule import CsitTable, build_csit_table, build_schedule, permute_schedule
from xchannel.simulate import run_simulation
from xchannel.transmit import CsitAccessError, audit_csit_trace, build_transmit_plan

from helpers import full_store, realization, stored_noise, stream

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)
dims = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@PROPERTY
@given(dims, st.booleans())
def test_run_invariants(case, normalize):
    M, N, seed = case
    s = build_schedule(M, N)
    first = s.phase1_len

    # phase-2 balance: every (receiver, copy) unit serves in exactly M-1 pair slots
    units = Counter(map(tuple, s.members[first:].reshape(-1, 2).tolist()))
    assert set(units) <= {(i, c) for i in range(N) for c in range(s.k)}
    assert all(units[(i, c)] == M - 1 for i in range(N) for c in range(s.k))

    sim = run_simulation(s, seed=seed, normalize=normalize)

    # the CSIT contract holds with four reads per pair slot
    assert sim.plan.csit_violations.shape == (0, 3)
    assert audit_csit_trace(sim.plan.csit_reads, sim.schedule.csit).shape == (0, 3)
    assert len(sim.plan.csit_reads) == 4 * (s.T - first)

    # observation roles per receiver
    entries = sim.log.entries
    assert entries.shape == (N, s.T)
    for i in range(N):
        kinds = Counter(entries[i].tolist())
        assert kinds[K.DESIRED_PHASE1] == s.k
        assert kinds[K.INTERFERENCE_PHASE1] == s.k * (N - 1)
        assert kinds[K.COMBINED_PHASE2] == s.k * (M - 1)
        assert kinds[K.DISCARDED] == s.T - s.k * (M + N - 1)

    # noiseless recovery; a failed decode must be ill-conditioned
    d = sim.decoding
    assert d.decoded.shape == (N,)
    for ok, condition, est, truth in zip(d.decoded, d.condition, d.estimates, sim.truths):
        if not ok:
            assert condition > CONDITION_LIMIT
            continue
        assert np.abs(est - truth).max() <= 1e-8 * max(1.0, np.abs(truth).max())

    noisy = run_simulation(s, seed=seed, noise_enabled=True, normalize=normalize)
    noise = noisy.log.values - sim.log.values
    for i in range(N):
        B = noisy.systems.noise_map[i]
        used = np.any(B != 0, axis=0)
        # B maps the receiver's noise onto the right-hand side of its system; the
        # observations of cells whose channel was never drawn are NaN, and B is zero there
        shift = noisy.systems.y[i] - sim.systems.y[i]
        assert np.abs(shift - B[:, used] @ noise[i, used]).max() <= 1e-9 * max(1.0, np.abs(shift).max())
        # discarded observations never enter the system; desired and combined ones do
        assert not used[entries[i] == K.DISCARDED].any()
        assert used[np.isin(entries[i], (K.DESIRED_PHASE1, K.COMBINED_PHASE2))].all()
        np.testing.assert_allclose(noisy.systems.sigma[i], B @ B.T, rtol=1e-12, atol=0)


@PROPERTY
@given(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    st.lists(st.integers(min_value=0, max_value=800), min_size=1, max_size=6, unique=True),
    st.booleans(),
)
def test_rates_match_log_det_reference(case, tenths_db, normalize):
    M, N, seed = case
    snrs = sorted(t / 10 for t in tenths_db)
    sim = run_simulation(build_schedule(M, N), seed=seed, noise_enabled=True, normalize=normalize)
    points = sum_rate(sim.systems, snrs)
    assert [p.snr_db for p in points] == snrs

    for snr, point in zip(snrs, points):
        assert point.sum_rate == sum(point.per_receiver)
        p_s = 10.0 ** (snr / 10.0) / M
        for i, rate in enumerate(point.per_receiver):
            G = sim.systems.G[i]
            A = G.conj().T @ np.linalg.solve(sim.systems.sigma[i], G)
            sign, logdet = np.linalg.slogdet(np.eye(len(A)) + p_s * A)
            assert abs(sign - 1) < 1e-9
            want = logdet / (sim.systems.T * math.log(2))
            assert abs(rate - want) <= 1e-10 * abs(want)

    # strictly rising in SNR, per receiver and in sum
    for lo, hi in zip(points, points[1:]):
        assert hi.sum_rate > lo.sum_rate
        assert all(b > a for a, b in zip(lo.per_receiver, hi.per_receiver))


def whitened_svd_rates(systems, snrs) -> np.ndarray:
    """Reference (S, N) per-receiver rates of one run in the whitened SVD form:
    (1/T) sum log2(1 + P_s s^2) over the singular values s of L^-1 G, Sigma = L L^H."""
    L = np.linalg.cholesky(systems.sigma)
    s2 = np.linalg.svd(np.linalg.solve(L, systems.G), compute_uv=False) ** 2  # (N, kM)
    p_s = 10.0 ** (np.asarray(snrs, dtype=float) / 10.0) / systems.M
    return np.log1p(p_s[:, None, None] * s2).sum(axis=-1) / (systems.T * math.log(2))


@PROPERTY
@given(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    st.booleans(),
)
def test_rates_match_whitened_svd_reference(case, normalize):
    M, N, seed = case
    systems = run_simulation(build_schedule(M, N), seed=seed, noise_enabled=True, normalize=normalize).systems

    def rates(snrs):
        return np.array([p.per_receiver for p in sum_rate(systems, snrs)])

    high = np.arange(0.0, 120.5, 2.5)
    want = whitened_svd_rates(systems, high)
    assert np.all(np.abs(rates(high) - want) <= 1e-10 * want)

    # a difference of log dets has absolute accuracy: the rate near -300 dB is about 1e-30.
    # The worst error seen was 8.9e-16 over 1,200 random runs (numpy 2.4, OpenBLAS 0.3.31),
    # so this bound has about 11% margin; another LAPACK build may need a relative term.
    low = np.arange(-300.0, 0.5, 5.0)
    assert np.all(np.abs(rates(low) - whitened_svd_rates(systems, low)) <= 1e-15)

    everywhere = rates(np.arange(-300.0, 300.5, 5.0))
    assert np.isfinite(everywhere).all() and (everywhere >= 0).all()


stacks = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@PROPERTY
@given(stacks, st.booleans())
def test_draw_stack_equals_single_runs(case, normalize):
    # draw d of a stack is its own one-draw run, and draw 0 the single run of the seed
    M, N, D, seed = case
    s = build_schedule(M, N)
    options = {"noise_enabled": True, "normalize": normalize}
    stack = run_simulation(s, seed, draws=range(D), **options)
    assert len(stack.systems) == stack.decoding.decoded.size == len(stack.truths) == D * N
    assert stack.systems.G.shape[:2] == stack.decoding.decoded.shape == (D, N)
    runs = [(0, run_simulation(s, seed, **options), ())]  # the single run, with no draw axis
    runs += [(d, run_simulation(s, seed, draws=range(d, d + 1), **options), 0) for d in range(D)]
    for d, run, at in runs:
        for name in ("G", "y", "sigma", "noise_map"):
            assert np.array_equal(getattr(stack.systems, name)[d], getattr(run.systems, name)[at])
        for name in ("estimates", "decoded", "rank", "condition"):
            assert np.array_equal(getattr(stack.decoding, name)[d], getattr(run.decoding, name)[at])


@PROPERTY
@given(stacks, st.booleans())
def test_sweep_is_mean_of_draws_in_any_chunking(case, normalize):
    M, N, D, seed = case
    snrs = [40.0, 60.0, 80.0]
    per_draw = [
        sum_rate(run_simulation(build_schedule(M, N), seed, draws=range(d, d + 1),
                                noise_enabled=True, normalize=normalize).systems, snrs)
        for d in range(D)
    ]
    whole = sweep_rates(M, N, snrs, draws=D, seed=seed, normalize=normalize)
    with mock.patch.object(analysis, "DRAW_CHUNK_ELEMENTS", 1):  # one draw per chunk
        split = sweep_rates(M, N, snrs, draws=D, seed=seed, normalize=normalize)
    for k, (a, b) in enumerate(zip(whole, split)):
        want = np.mean([points[k].per_receiver for points in per_draw], axis=0)
        for point in (a, b):
            np.testing.assert_allclose(point.per_receiver, want, rtol=1e-12, atol=0)
            assert point.sum_rate == pytest.approx(
                np.mean([points[k].sum_rate for points in per_draw]), rel=1e-12
            )


@PROPERTY
@given(
    st.tuples(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    st.integers(min_value=0),
)
def test_stacked_plan_raises_at_the_flipped_read(case, pick):
    M, N, D, seed = case
    s = build_schedule(M, N)
    table = build_csit_table(s)
    current = [tuple(r) for r in s.pair_reads.tolist() if r[1] == r[2]]  # the "P" reads
    receiver, slot, at_slot = current[pick % len(current)]
    grid = table.grid.copy()
    grid[receiver, slot] = ord("N")
    broken = CsitTable(grid)
    channels = generate_channels(s, run_streams(seed, 1, draws=range(D))[0])
    assert audit_csit_trace(build_transmit_plan(channels, table).csit_reads, table).shape == (0, 3)
    with pytest.raises(CsitAccessError) as exc:
        build_transmit_plan(channels, broken)
    assert (exc.value.receiver, exc.value.slot, exc.value.at_slot, exc.value.state) == (
        receiver, slot, at_slot, "N"
    )


@PROPERTY
@given(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    st.booleans(),
)
def test_discarded_cells_are_never_read(case, normalize):
    # a draw stores no discarded cell, and gathering one raises IndexError: a run on the
    # real store reads none of them, and every value it forms from the used cells is finite
    M, N, seed = case
    s = build_schedule(M, N)
    store = full_store(M, N, s.T)
    channels = realization(s, generate_channels(store, stream(seed)).h)
    discarded = s.entries == K.DISCARDED
    receiver, slot = np.nonzero(discarded)
    assert np.all(channels.columns[receiver, slot] == channels.h.shape[-1])
    if discarded.any():
        with pytest.raises(IndexError):
            channels.rows(receiver, slot)
    messages = generate_messages(s, stream(seed + 1))
    plan = build_transmit_plan(channels, s.csit, normalize=normalize)
    log = observe_all(plan, messages, stored_noise(s, generate_noise(store, stream(seed + 2))))
    systems = assemble_system(log)
    rates = sum_rate(systems, [40.0, 80.0])
    assert np.isfinite(plan.signal_matrix(messages)).all()
    assert np.array_equal(np.isnan(log.values), discarded)
    for name in ("G", "y", "sigma", "noise_map"):
        assert np.isfinite(getattr(systems, name)).all()
    assert all(math.isfinite(r) for point in rates for r in point.per_receiver)


@PROPERTY
@given(stacks, st.booleans())
def test_channels_are_nan_exactly_on_discarded_cells(case, stacked):
    # only used observations get channel normals and storage: the stored cells are
    # exactly schedule.used, every stored coefficient is finite and nonzero, and
    # the observed value is NaN exactly on the discarded cells
    M, N, D, seed = case
    sim = run_simulation(build_schedule(M, N), seed, draws=range(D) if stacked else None)
    discarded = sim.log.entries == K.DISCARDED
    ch = sim.channels
    assert ch.h.shape == ((D,) if stacked else ()) + (N, M, ch.slots.shape[-1])
    stored = np.zeros_like(sim.schedule.used)
    stored[np.arange(N)[:, None], ch.slots] = True
    assert np.array_equal(stored, sim.schedule.used) and np.array_equal(~stored, discarded)
    assert np.all(np.isfinite(ch.h)) and np.all(np.abs(ch.h) > 0)
    assert np.array_equal(np.isnan(sim.log.values), np.broadcast_to(discarded, sim.log.values.shape))


@PROPERTY
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_every_receiver_uses_k_times_n_plus_m_minus_one_cells(M, N, seed):
    # all kN phase-1 slots and the k(M - 1) pair slots it is a member of, for the
    # canonical schedule and a permuted one; a masked draw stores that many columns
    base = build_schedule(M, N)
    rng = np.random.default_rng(seed)
    permuted = permute_schedule(base, rng.permutation(base.phase1_len),
                                rng.permutation(base.T - base.phase1_len))
    for s in (base, permuted):
        assert s.used.sum(axis=1).tolist() == [s.k * (N + M - 1)] * N
        draw = generate_channels(s, stream(seed))
        assert draw.h.shape == (N, M, s.k * (N + M - 1))


@PROPERTY
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_results_read_what_they_do_not_store(M, N, seed, stacked):
    # the draw's layout is its schedule's, and no result can disagree with itself: success,
    # the CSIT violations and the DoF report are computed from what the result holds
    s = build_schedule(M, N)
    sim = run_simulation(s, seed, draws=range(2) if stacked else None)
    ch = sim.channels
    assert sim.channels.schedule is sim.schedule is s
    assert (ch.M, ch.N, ch.T) == (M, N, s.T)
    assert ch.slots is s.stored[0] and ch.columns is s.stored[1]
    d = sim.decoding
    assert type(d.success) is bool and d.success == bool(d.decoded.all())
    violations = sim.plan.csit_violations
    assert violations.shape == (0, 3) and violations.dtype == np.intp and not violations.flags.writeable
    count = s.k * M * N
    assert analysis.DofReport(s).to_dict() == {
        "M": M, "N": N, "case": s.case.value, "k": s.k, "T": s.T, "messages": count,
        "achieved": str(Fraction(count, s.T)), "closed_form": str(Fraction(2 * M, M + 1)),
        "equal": count * (M + 1) == 2 * M * s.T,
    }


def _normals(a):
    """The real and imaginary parts of an array's drawn values, NaN cells left out."""
    parts = np.concatenate([a.real.ravel(), a.imag.ravel()])
    return parts[np.isfinite(parts)]


def test_consecutive_seeds_share_no_normals():
    # seeds s, s+1, s+2 per run once drew run 0's messages from run 1's channel seed
    assert np.intersect1d(_normals(run_simulation(build_schedule(3, 3), seed=0).messages),
                          _normals(run_simulation(build_schedule(3, 3), seed=1).channels.h)).size == 0


@pytest.mark.parametrize("M,N", [(3, 3), (2, 4)])
def test_no_two_runs_or_draws_share_a_normal(M, N):
    sources = {}
    for seed in range(5):
        sim = run_simulation(build_schedule(M, N), seed=seed, noise_enabled=True)
        grid = sim.log.noise
        sources.update({("run", seed, "channels"): sim.channels.h,
                        ("run", seed, "messages"): sim.messages, ("run", seed, "noise"): grid})
    # the draws of sweep_rates(M, N, ..., draws=4, seed=0), as it runs them; a single run is
    # draw 0, so that draw is run 0 itself and the others share nothing with any run
    stack = run_simulation(build_schedule(M, N), 0, draws=range(4), noise_enabled=True)
    grids = stack.log.noise
    for kind, drawn in (("channels", stack.channels.h), ("messages", stack.messages), ("noise", grids)):
        assert drawn[0].tobytes() == sources[("run", 0, kind)].tobytes()
    for d in range(1, 4):
        sources.update({("draw", d, "channels"): stack.channels.h[d],
                        ("draw", d, "messages"): stack.messages[d], ("draw", d, "noise"): grids[d]})
    values = {key: _normals(a) for key, a in sources.items()}
    keys = list(values)
    shared = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1:]
              if np.intersect1d(values[a], values[b]).size]
    assert shared == []


def _reference_decode(G, y):
    """Per-system decode as a plain reference: (decoded, estimates, rank, condition)."""
    sv = np.linalg.svd(G, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    if condition > CONDITION_LIMIT:
        return False, None, int(np.linalg.matrix_rank(G)), condition
    est = np.linalg.solve(G, y)
    est += np.linalg.solve(G, y - G @ est)
    return True, est, G.shape[0], condition


def _degenerate(kind, G, rng):
    """G made singular, ill-conditioned (condition near 1e14) or all zero."""
    m = G.shape[0]
    if kind == "zero" or m == 1:
        return np.zeros_like(G)
    if kind == "singular":
        G = G.copy()
        G[-1] = rng.standard_normal(m - 1) @ G[:-1]
        return G
    q1, _ = np.linalg.qr(G)
    q2, _ = np.linalg.qr(G.conj().T)
    return (q1 * np.r_[np.ones(m - 1), 1e-14]) @ q2


@PROPERTY
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=1, max_value=4), max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_stacked_decode_equals_per_system_reference(m, lead, seed, data):
    # singular, ill-conditioned and all-zero systems injected at random positions
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (m,)
    G = rng.standard_normal(shape + (m,)) + 1j * rng.standard_normal(shape + (m,))
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    size = math.prod(lead)
    kinds = data.draw(st.lists(st.sampled_from(["ok", "ok", "singular", "ill", "zero"]),
                               min_size=size, max_size=size))
    flat = G.reshape(size, m, m)
    for n, kind in enumerate(kinds):
        if kind != "ok":
            flat[n] = _degenerate(kind, flat[n], rng)
    system = LinearSystem(G=G, y=y, sigma=np.zeros(shape + (m,)), noise_map=np.zeros(shape + (m,)),
                          T=m, M=m)

    res = decode(system)
    refs = [_reference_decode(g, b) for g, b in zip(flat, y.reshape(size, m))]
    mask = np.array([r[0] for r in refs]).reshape(tuple(lead))
    assert all(not ok for ok, kind in zip(mask.ravel(), kinds) if kind != "ok")
    assert type(res.success) is bool and res.success == mask.all()
    assert np.array_equal(res.decoded, mask)
    assert np.array_equal(res.rank, np.reshape([r[2] for r in refs], tuple(lead)))
    assert np.array_equal(res.condition, np.reshape([r[3] for r in refs], tuple(lead)))
    # one system too: arrays of the stack's shape, 0-d without leading axes
    assert res.decoded.shape == res.rank.shape == res.condition.shape == tuple(lead)
    assert res.estimates.shape == shape
    estimates = res.estimates.reshape(size, m)
    assert np.array_equal(np.isnan(estimates).all(axis=1), ~mask.ravel())
    assert not np.isnan(estimates[mask.ravel()]).any()
    for got, (ok, want, *_) in zip(estimates, refs):
        if ok:
            assert np.array_equal(got, want)
