"""Tests for channel generation, message sets, noise, and received signals."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xchannel.analysis import sweep_rates
from xchannel.channel import (
    ChannelRealization,
    MessageSet,
    NoiseModel,
    Stream,
    generate_channels,
    generate_messages,
    run_streams,
    slot_tables,
)
from xchannel.receive import ObservationKind, observe_all
from xchannel.schedule import build_csit_table, build_schedule
from xchannel.simulate import run_simulation
from xchannel.transmit import build_transmit_plan


class TestGenerateChannels:
    def test_shape_and_dtype(self):
        ch = generate_channels(3, 4, 7, seed=0)
        assert ch.h.shape == (4, 3, 7)
        assert ch.h.dtype == np.complex128
        assert (ch.M, ch.N, ch.T) == (3, 4, 7)

    def test_deterministic_per_seed(self):
        a = generate_channels(3, 3, 6, seed=42)
        b = generate_channels(3, 3, 6, seed=42)
        np.testing.assert_array_equal(a.h, b.h)

    @pytest.mark.parametrize("M,N,T", [(3, 3, 6), (8, 4, 36), (32, 32, 528)])
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_reference_expression(self, M, N, T, seed):
        # the in-place fill keeps the stream order of this plain expression
        rng = np.random.default_rng(seed)
        shape = (N, M, T)
        want = np.sqrt(1.0 / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert generate_channels(M, N, T, seed).h.tobytes() == want.tobytes()

    @pytest.mark.parametrize("M,N", [(2, 2), (3, 3), (4, 8)])
    @pytest.mark.parametrize("seed", range(3))
    def test_masked_draw_matches_reference_expression(self, M, N, seed):
        # only the used cells are drawn, in C order of (N, M, T), all real parts
        # then all imaginary parts, and stored in that order; the tables of an
        # all-True mask are the unmasked draw
        s = build_schedule(M, N)
        cells = np.broadcast_to(s.used[:, None, :], (N, M, s.T))
        n = int(cells.sum())
        rng = np.random.default_rng(seed)
        want = np.full((N, M, s.T), complex(np.nan, np.nan))
        want[cells] = np.sqrt(1.0 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ch = generate_channels(M, N, s.T, seed, stored=slot_tables(s.used, N, s.T))
        assert ch.h.shape == (N, M, n // (N * M))
        assert ch.h.tobytes() == want[cells].tobytes()
        assert np.array_equal(ch.slots, np.nonzero(s.used)[1].reshape(N, -1))
        everywhere = slot_tables(np.ones((N, s.T), dtype=bool), N, s.T)
        assert (generate_channels(M, N, s.T, seed, stored=everywhere).h.tobytes()
                == generate_channels(M, N, s.T, seed).h.tobytes())

    def test_seed_tuple_stacks_single_draws(self):
        s = build_schedule(4, 3)
        seeds = (5, np.random.SeedSequence(1, spawn_key=(2,)))
        stack = generate_channels(4, 3, s.T, seeds, stored=slot_tables(s.used, 3, s.T))
        U = s.k * (3 + 4 - 1)
        assert stack.h.shape == (2, 3, 4, U) and stack.seed == seeds
        messages = generate_messages(4, 3, s.k, seeds)
        grid = NoiseModel(enabled=True, variance=2.5, seed=seeds).sample_grid(3, s.T)
        for d, seed in enumerate(seeds):  # bit for bit, all three draws
            single = generate_channels(4, 3, s.T, seed, stored=slot_tables(s.used, 3, s.T)).h
            assert stack.h[d].tobytes() == single.tobytes()
            assert messages.w[d].tobytes() == generate_messages(4, 3, s.k, seed).w.tobytes()
            single = NoiseModel(enabled=True, variance=2.5, seed=seed).sample_grid(3, s.T)
            assert grid[d].tobytes() == single.tobytes()

    @pytest.mark.parametrize("mask,match", [
        (np.ones((3, 6), dtype=int), r"bool array of shape \(3, 6\), got int\d+ \(3, 6\)"),
        (np.ones((3, 5), dtype=bool), r"bool array of shape \(3, 6\), got bool \(3, 5\)"),
        (np.ones((2, 6), dtype=bool), r"bool array of shape \(3, 6\), got bool \(2, 6\)"),
        (np.tri(3, 6, 2, dtype=bool), r"rows select \[3, 4, 5\]"),
        (np.zeros((3, 6), dtype=bool), r"at least one; rows select \[0, 0, 0\]"),
    ])
    def test_bad_mask_rejected(self, mask, match):
        # int, wrong-shape, ragged and empty-row masks: a ValueError naming the
        # shape or the row counts, never numpy's shape mismatch or an IndexError
        with pytest.raises(ValueError, match=match):
            slot_tables(mask, 3, 6)

    def test_discarded_cell_gather_raises(self):
        # an unstored cell maps to the out-of-range column U, so a gather of it
        # raises instead of reading another slot's coefficients
        sim = run_simulation(3, 3, seed=0)
        ch = sim.channels
        U = ch.h.shape[-1]
        assert sim.log.entries[2, 3] == ObservationKind.DISCARDED and ch.columns[2, 3] == U
        with pytest.raises(IndexError):
            ch.rows(2, 3)
        with pytest.raises(IndexError):
            ch.h[2, :, ch.columns[2, 3]]
        np.testing.assert_array_equal(ch.rows(2, 2), ch.h[2, :, ch.columns[2, 2]])

    def test_runs_share_the_schedules_slot_tables(self):
        # a run takes its stored slots and column lookup from the schedule, which
        # builds them from its used table as a bare mask would be
        s = build_schedule(4, 3)
        sims = [run_simulation(4, 3, seed=seed, schedule=s) for seed in (0, 1)]
        for sim in sims:
            assert sim.channels.slots is s.stored[0] and sim.channels.columns is s.stored[1]
        masked = generate_channels(4, 3, s.T, sims[0].channels.seed, stored=slot_tables(s.used, 3, s.T))
        assert np.array_equal(masked.slots, s.stored[0]) and np.array_equal(masked.columns, s.stored[1])
        assert masked.h.tobytes() == sims[0].channels.h.tobytes()

    def test_32x32_stores_only_used_cells(self):
        # each receiver stores k(N + M - 1) = 63 of the T = 528 slots
        assert run_simulation(32, 32).channels.h.nbytes == 16 * 32 * 32 * 63

    def test_seeds_differ(self):
        a = generate_channels(3, 3, 6, seed=1)
        b = generate_channels(3, 3, 6, seed=2)
        assert not np.array_equal(a.h, b.h)

    def test_no_zero_entries(self):
        # invertibility of every coefficient is relied on by the precoder
        for seed in range(20):
            ch = generate_channels(4, 4, 10, seed=seed)
            assert np.all(np.abs(ch.h) > 0)

    def test_arrays_write_protected(self):
        ch = generate_channels(2, 2, 3, seed=0)
        with pytest.raises(ValueError):
            ch.h[0, 0, 0] = 1.0

    @pytest.mark.parametrize("M,N,T", [(0, 3, 6), (3, 0, 6), (3, 3, 0), (-1, 2, 4)])
    def test_invalid_dims(self, M, N, T):
        with pytest.raises(ValueError):
            generate_channels(M, N, T, seed=0)

    def test_unit_variance_statistics(self):
        # 1e6 draws: E|h|^2 -> 1, Re/Im variance -> 1/2
        ch = generate_channels(200, 50, 100, seed=7)
        h = ch.h
        assert h.size == 10**6
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01
        assert abs(np.var(h.real) - 0.5) < 0.02 * 0.5
        assert abs(np.var(h.imag) - 0.5) < 0.02 * 0.5
        assert abs(np.mean(h)) < 0.005


class TestGenerateMessages:
    def test_shape(self):
        ms = generate_messages(3, 4, 2, seed=0)
        assert ms.w.shape == (4, 3, 2)
        assert (ms.M, ms.N, ms.k) == (3, 4, 2)

    def test_deterministic(self):
        a = generate_messages(2, 3, 1, seed=5)
        b = generate_messages(2, 3, 1, seed=5)
        np.testing.assert_array_equal(a.w, b.w)

    @pytest.mark.parametrize("M,N,k", [(3, 3, 1), (4, 8, 2), (32, 32, 1)])
    @pytest.mark.parametrize("seed", [0, 7, np.random.SeedSequence(7, spawn_key=(3, 1))])
    def test_bit_identical_to_reference_expression(self, M, N, k, seed):
        rng = np.random.default_rng(seed)
        shape = (N, M, k)
        want = np.sqrt(1.0 / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert generate_messages(M, N, k, seed).w.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError):
            generate_messages(3, 3, k, seed=0)

    def test_unit_power(self):
        ms = generate_messages(100, 100, 2, seed=3)
        assert abs(np.mean(np.abs(ms.w) ** 2) - 1.0) < 0.02


class TestNoiseModel:
    def test_noiseless_run_observes_no_noise(self):
        # every stored cell of a noiseless stack is exactly its channel row times the slot's signal
        sim = run_simulation(3, 5, seed=[4, 5])
        ch = sim.channels
        clean = np.einsum("...iju,...jiu->...iu", ch.h, sim.plan.signal_matrix()[..., :, ch.slots])
        assert sim.log.values[..., np.arange(5)[:, None], ch.slots].tobytes() == clean.tobytes()
        assert sim.log.noise_variance == 0.0 and not sim.systems.sigma.any()

    def test_enabled_deterministic(self):
        a = NoiseModel(enabled=True, variance=1.0, seed=9).sample_grid(3, 6)
        b = NoiseModel(enabled=True, variance=1.0, seed=9).sample_grid(3, 6)
        np.testing.assert_array_equal(a, b)
        assert not np.all(a == 0)

    def test_variance_scaling(self):
        a = NoiseModel(enabled=True, variance=1.0, seed=4).sample_grid(50, 400)
        b = NoiseModel(enabled=True, variance=4.0, seed=4).sample_grid(50, 400)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)
        assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.05

    @pytest.mark.parametrize("variance", [1.0, 0.3, 4.0, 1e-6])
    @pytest.mark.parametrize("N,T", [(3, 6), (8, 36), (32, 528)])
    @pytest.mark.parametrize("seed", [0, 11, np.random.SeedSequence(5, spawn_key=(2, 2))])
    def test_bit_identical_to_reference_expression(self, variance, N, T, seed):
        rng = np.random.default_rng(seed)
        want = np.sqrt(variance / 2.0) * (rng.standard_normal((N, T)) + 1j * rng.standard_normal((N, T)))
        got = NoiseModel(enabled=True, variance=variance, seed=seed).sample_grid(N, T)
        assert got.tobytes() == want.tobytes()

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            NoiseModel(enabled=True, variance=0.0).sample_grid(2, 2)
        with pytest.raises(ValueError):
            NoiseModel(enabled=True, variance=-1.0).sample_grid(2, 2)


class TestReceivedSignal:
    """Observations y[i, t] = sum_j h[i, j, t] x[j, t] + n[i, t], as observe_all forms them."""

    def _setup(self, M=3, N=3, seed=0, w=None, noise=None):
        s = build_schedule(M, N)
        ch = generate_channels(M, N, s.T, seed=seed)
        if w is None:
            w = generate_messages(M, N, s.k, seed=seed + 100).w
        ms = MessageSet(M=M, N=N, k=s.k, w=w, seed=seed + 100)
        plan = build_transmit_plan(s, ms, ch, build_csit_table(s))
        log = observe_all(plan, ch, noise or NoiseModel(enabled=False))
        return ch, plan.signal_matrix(), log.values

    def test_matches_plain_dot(self):
        ch, x, y = self._setup()
        for t in range(ch.T):
            for i in range(ch.N):
                expect = sum(ch.h[i, j, t] * x[j, t] for j in range(ch.M))
                assert abs(y[i, t] - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_zero_input(self):
        _, _, y = self._setup(w=np.zeros((3, 3, 1), dtype=complex))
        assert np.all(y == 0)

    def test_single_transmitter_recovers_coefficient(self):
        # only transmitter 2 has a nonzero symbol, for receiver 0, broadcast in slot 0
        w = np.zeros((3, 3, 1), dtype=complex)
        w[0, 2, 0] = 1.0
        ch, _, y = self._setup(w=w)
        assert np.all(y[:, 0] == ch.h[:, 2, 0])

    def test_noise_added(self):
        nm = NoiseModel(enabled=True, variance=1.0, seed=11)
        ch, _, clean = self._setup()
        _, _, noisy = self._setup(noise=nm)
        sample = nm.sample_grid(ch.N, ch.T)
        assert np.all(np.abs((noisy - clean) - sample) <= 1e-12)

    @settings(deadline=None, max_examples=30)
    @given(
        a=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_linearity(self, a, b, seed):
        # precoding depends on the channel only, so observations are linear in
        # the messages
        u = generate_messages(3, 3, 1, seed=seed % 97).w
        v = generate_messages(3, 3, 1, seed=(seed % 97) + 1).w
        _, _, lhs = self._setup(seed=seed % 89, w=a * u + b * v)
        _, _, yu = self._setup(seed=seed % 89, w=u)
        _, _, yv = self._setup(seed=seed % 89, w=v)
        rhs = a * yu + b * yv
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(rhs)))


def test_realization_records_seed():
    ch = generate_channels(2, 2, 3, seed=123)
    assert isinstance(ch, ChannelRealization)
    assert ch.seed == 123
    ms = generate_messages(2, 2, 1, seed=45)
    assert isinstance(ms, MessageSet)
    assert ms.seed == 45


def test_run_streams_are_a_fresh_spawn():
    want = [c.generate_state(4).tolist() for c in np.random.SeedSequence(7).spawn(3)]
    assert [c.generate_state(4).tolist() for c in run_streams(7)] == want
    root = np.random.SeedSequence(7)
    root.spawn(5)  # spawn's counter does not move the streams
    assert [c.generate_state(4).tolist() for c in run_streams(root)] == want
    draw = np.random.SeedSequence(7, spawn_key=(1,))
    assert [c.spawn_key for c in run_streams(draw)] == [(1, 0), (1, 1), (1, 2)]


def test_run_streams_of_a_key_without_its_seed_sequence():
    # the streams of SeedSequence(7, spawn_key=(1,)), from 7 and the key alone; count keeps the first ones
    draw = np.random.SeedSequence(7, spawn_key=(1,))
    want = [c.generate_state(4).tolist() for c in run_streams(draw)]
    assert [c.generate_state(4).tolist() for c in run_streams(7, key=(1,))] == want
    assert [c.generate_state(4).tolist() for c in run_streams(draw, 2)] == want[:2]


words = st.integers(min_value=0, max_value=2**40)
entropies = st.one_of(st.integers(min_value=0, max_value=2**256), st.lists(words, max_size=6))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    entropy=entropies,
    key=st.lists(words, max_size=3).map(tuple),
    draws=st.lists(st.one_of(st.integers(0, 5), words), min_size=1, max_size=4),
    count=st.integers(min_value=1, max_value=3),
    n_words=st.integers(min_value=1, max_value=16),
    dtype=st.sampled_from([np.uint32, np.uint64]),
)
def test_streams_equal_numpy_seed_sequences(entropy, key, draws, count, n_words, dtype):
    # one vectorised hash, bit for bit numpy's pool mixing and generate_state, multi-word entries too
    def same(stream, want):
        assert isinstance(stream, Stream) and stream.spawn_key == want.spawn_key
        assert stream.generate_state(n_words, dtype).tolist() == want.generate_state(n_words, dtype).tolist()
        assert stream.generate_state(4, np.uint64).tolist() == want.generate_state(4, np.uint64).tolist()
        got, ref = np.random.default_rng(stream), np.random.default_rng(want)
        assert got.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    for c, stream in enumerate(run_streams(entropy, count, key)):
        same(stream, np.random.SeedSequence(entropy, spawn_key=key + (c,)))
    for c, streams in enumerate(run_streams(entropy, count, key, draws=draws)):
        for d, stream in zip(draws, streams, strict=True):
            same(stream, np.random.SeedSequence(entropy, spawn_key=key + (d, c)))


def test_stream_rejects_what_seed_sequence_rejects():
    with pytest.raises(ValueError, match="non-negative"):
        run_streams(-1)
    with pytest.raises(ValueError, match="non-negative"):
        run_streams(1, key=(-2,))
    with pytest.raises(TypeError):
        run_streams(1.5)
    with pytest.raises(ValueError, match="uint32 or uint64"):
        run_streams(1)[0].generate_state(4, np.int64)


def test_sweep_builds_no_numpy_seed_sequence(monkeypatch):
    class Forbidden(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            raise AssertionError("numpy SeedSequence constructed")

    monkeypatch.setattr(np.random, "SeedSequence", Forbidden)
    sweep_rates(3, 4, [10.0, 30.0], draws=5, seed=2**130)
    sim = run_simulation(3, 4, seed=7, draws=range(2), noise_enabled=True)
    assert all(isinstance(s, Stream) for s in sim.channels.seed + sim.messages.seed + sim.noise.seed)


@pytest.mark.parametrize("noise", [False, True])
def test_draw_range_stacks_the_draw_seeds(noise):
    # draws d of seed run on the streams of SeedSequence(seed, spawn_key=(d,)), bit for bit
    seeds = [np.random.SeedSequence(9, spawn_key=(d,)) for d in range(2, 5)]
    listed = run_simulation(3, 7, seed=seeds, noise_enabled=noise, normalize=True)
    ranged = run_simulation(3, 7, seed=9, draws=range(2, 5), noise_enabled=noise, normalize=True)
    for name in ("G", "y", "sigma"):
        assert getattr(ranged.systems, name).tobytes() == getattr(listed.systems, name).tobytes()


def test_noiseless_run_derives_and_samples_no_noise():
    # the same channels and messages as the noisy run, with no noise stream and no grid sampled
    with mock.patch.object(NoiseModel, "sample_grid", side_effect=AssertionError("sampled")):
        quiet = run_simulation(4, 6, seed=[1, 2])
    noisy = run_simulation(4, 6, seed=[1, 2], noise_enabled=True)
    assert quiet.channels.h.tobytes() == noisy.channels.h.tobytes()
    assert quiet.messages.w.tobytes() == noisy.messages.w.tobytes()
    assert not quiet.noise.enabled and not isinstance(quiet.noise.seed, tuple)
    assert quiet.all_recovered()
