"""Invariants of the scheme and its rates, checked as properties over (M, N) and seeds."""

import dataclasses
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xchannel import analysis
from xchannel.analysis import sum_rate, sweep_rates
from xchannel.channel import NoiseModel, generate_channels, generate_messages
from xchannel.receive import CONDITION_LIMIT, ObservationKind as K, assemble_system, observe_all
from xchannel.schedule import CsitTable, build_csit_table, build_schedule
from xchannel.simulate import run_simulation
from xchannel.transmit import CsitAccessError, audit_csit_trace, build_transmit_plan

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)
dims = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@PROPERTY
@given(dims, st.sampled_from([0.25, 1.0, 3.0]), st.booleans())
def test_run_invariants(case, variance, normalize):
    M, N, seed = case
    s = build_schedule(M, N)
    first = s.phase1_len

    # phase-2 balance: every (receiver, copy) unit serves in exactly M-1 pair slots
    units = Counter(map(tuple, s.members[first:].reshape(-1, 2).tolist()))
    assert set(units) <= {(i, c) for i in range(N) for c in range(s.k)}
    assert all(units[(i, c)] == M - 1 for i in range(N) for c in range(s.k))

    sim = run_simulation(M, N, seed=seed, normalize=normalize)

    # the CSIT contract holds with four reads per pair slot
    assert sim.plan.csit_violations == ()
    assert audit_csit_trace(sim.plan.csit_reads, sim.table) == []
    assert len(sim.plan.csit_reads) == 4 * len(s.phase2)

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
    for dec in sim.decodes:
        if not dec.success:
            assert dec.condition > CONDITION_LIMIT
            continue
        truth = sim.truth(dec.receiver)
        assert np.abs(dec.estimates - truth).max() <= 1e-8 * max(1.0, np.abs(truth).max())

    noisy = run_simulation(
        M, N, seed=seed, noise_enabled=True, noise_variance=variance, normalize=normalize
    )
    noise = noisy.log.values - sim.log.values
    for i, (system, clean) in enumerate(zip(noisy.systems, sim.systems)):
        B = system.noise_map
        used = np.any(B != 0, axis=0)
        # B maps the receiver's noise onto the right-hand side of its system; the
        # observations of cells whose channel was never drawn are NaN, and B is zero there
        shift = system.y - clean.y
        assert np.abs(shift - B[:, used] @ noise[i, used]).max() <= 1e-9 * max(1.0, np.abs(shift).max())
        # discarded observations never enter the system; desired and combined ones do
        assert not used[entries[i] == K.DISCARDED].any()
        assert used[np.isin(entries[i], (K.DESIRED_PHASE1, K.COMBINED_PHASE2))].all()
        np.testing.assert_allclose(system.sigma, variance * B @ B.T, rtol=1e-12, atol=0)


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
    sim = run_simulation(M, N, seed=seed, noise_enabled=True, normalize=normalize)
    points = sum_rate(list(sim.systems), snrs)
    assert [p.snr_db for p in points] == snrs

    for snr, point in zip(snrs, points):
        assert point.sum_rate == sum(point.per_receiver)
        p_s = 10.0 ** (snr / 10.0) / M
        for system, rate in zip(sim.systems, point.per_receiver):
            G = system.G
            A = G.conj().T @ np.linalg.solve(system.sigma, G)
            sign, logdet = np.linalg.slogdet(np.eye(len(A)) + p_s * A)
            assert abs(sign - 1) < 1e-9
            want = logdet / (system.T * math.log(2))
            assert abs(rate - want) <= 1e-10 * abs(want)

    # strictly rising in SNR, per receiver and in sum
    for lo, hi in zip(points, points[1:]):
        assert hi.sum_rate > lo.sum_rate
        assert all(b > a for a, b in zip(lo.per_receiver, hi.per_receiver))


stacks = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@PROPERTY
@given(stacks, st.booleans())
def test_draw_stack_equals_single_runs(case, normalize):
    M, N, D, seed = case
    seeds = [seed + 10 * d for d in range(D)]
    stack = run_simulation(M, N, seed=seeds, noise_enabled=True, normalize=normalize)
    assert len(stack.systems) == len(stack.decodes) == D * N
    assert stack.systems.receiver.tolist() == [list(range(N))] * D
    for d, s in enumerate(seeds):
        single = run_simulation(M, N, seed=s, noise_enabled=True, normalize=normalize)
        for name in ("G", "y", "sigma", "noise_map"):
            assert np.array_equal(getattr(stack.systems, name)[d], getattr(single.systems, name))
        for got, want in zip(stack.decodes[d * N:(d + 1) * N], single.decodes):
            assert got.receiver == want.receiver
            assert np.array_equal(got.estimates, want.estimates)


@PROPERTY
@given(stacks, st.booleans())
def test_sweep_is_mean_of_draws_in_any_chunking(case, normalize):
    M, N, D, seed = case
    snrs = [40.0, 60.0, 80.0]
    per_draw = [
        sum_rate(list(run_simulation(M, N, seed=np.random.SeedSequence(seed, spawn_key=(d,)),
                                     noise_enabled=True, normalize=normalize).systems), snrs)
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
    seeds = tuple(seed + 10 * d for d in range(D))
    channels = generate_channels(M, N, s.T, seeds)
    messages = generate_messages(M, N, s.k, tuple(x + 1 for x in seeds))
    assert audit_csit_trace(build_transmit_plan(s, messages, channels, table).csit_reads,
                            table) == []
    with pytest.raises(CsitAccessError) as exc:
        build_transmit_plan(s, messages, channels, broken)
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
    # NaN in the channel row of every cell whose observation is discarded changes
    # nothing downstream: no stage reads those cells
    M, N, seed = case
    s = build_schedule(M, N)
    table = build_csit_table(s)
    messages = generate_messages(M, N, s.k, seed + 1)
    noise = NoiseModel(enabled=True, seed=seed + 2)

    def run(channels):
        plan = build_transmit_plan(s, messages, channels, table, normalize=normalize)
        log = observe_all(plan, channels, noise)
        systems = assemble_system(log, np.arange(N))
        return plan.signal_matrix(), log, systems, sum_rate(systems, [40.0, 80.0])

    clean = generate_channels(M, N, s.T, seed)
    X, log, systems, rates = run(clean)
    discarded = log.entries == K.DISCARDED
    h = clean.h.copy()
    receiver, slot = np.nonzero(discarded)
    h[receiver, :, slot] = np.nan
    assert np.isnan(h).any() == discarded.any()
    X2, log2, systems2, rates2 = run(dataclasses.replace(clean, h=h))

    assert np.array_equal(X2, X)
    assert np.array_equal(log2.values[~discarded], log.values[~discarded])
    for name in ("G", "y", "sigma", "noise_map"):
        assert np.array_equal(getattr(systems2, name), getattr(systems, name))
    assert rates2 == rates


@PROPERTY
@given(stacks, st.booleans())
def test_channels_are_nan_exactly_on_discarded_cells(case, stacked):
    # only used observations get channel normals: a discarded (receiver, slot)
    # cell is NaN for every transmitter, and every other cell is finite and nonzero
    M, N, D, seed = case
    sim = run_simulation(M, N, seed=[seed + d for d in range(D)] if stacked else seed)
    discarded = sim.log.entries == K.DISCARDED
    h = sim.channels.h
    assert h.shape == ((D,) if stacked else ()) + (N, M, sim.schedule.T)
    cells = np.broadcast_to(discarded[:, None, :], h.shape)
    assert np.array_equal(np.isnan(h.real), cells) and np.array_equal(np.isnan(h.imag), cells)
    assert np.all(np.abs(h[~cells]) > 0)
    assert np.array_equal(np.isnan(sim.log.values), np.broadcast_to(discarded, sim.log.values.shape))


def _normals(a):
    """The real and imaginary parts of an array's drawn values, NaN cells left out."""
    parts = np.concatenate([a.real.ravel(), a.imag.ravel()])
    return parts[np.isfinite(parts)]


def test_consecutive_seeds_share_no_normals():
    # seeds s, s+1, s+2 per run once drew run 0's messages from run 1's channel seed
    assert np.intersect1d(_normals(run_simulation(3, 3, seed=0).messages.w),
                          _normals(run_simulation(3, 3, seed=1).channels.h)).size == 0


@pytest.mark.parametrize("M,N", [(3, 3), (2, 4)])
def test_no_two_runs_or_draws_share_a_normal(M, N):
    sources = {}
    for seed in range(5):
        sim = run_simulation(M, N, seed=seed, noise_enabled=True)
        grid = sim.noise.sample_grid(N, sim.schedule.T)
        sources.update({("run", seed, "channels"): sim.channels.h,
                        ("run", seed, "messages"): sim.messages.w, ("run", seed, "noise"): grid})
    # the draws of sweep_rates(M, N, ..., draws=4, seed=0), as it runs them
    seeds = [np.random.SeedSequence(0, spawn_key=(d,)) for d in range(4)]
    stack = run_simulation(M, N, seed=seeds, noise_enabled=True)
    grids = stack.noise.sample_grid(N, stack.schedule.T)
    for d in range(4):
        sources.update({("draw", d, "channels"): stack.channels.h[d],
                        ("draw", d, "messages"): stack.messages.w[d], ("draw", d, "noise"): grids[d]})
    values = {key: _normals(a) for key, a in sources.items()}
    keys = list(values)
    shared = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1:]
              if np.intersect1d(values[a], values[b]).size]
    assert shared == []
