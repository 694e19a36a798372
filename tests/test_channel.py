"""Tests for channel generation, message sets, noise, and received signals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xchannel.channel import (
    ChannelRealization,
    MessageSet,
    NoiseModel,
    generate_channels,
    generate_messages,
    run_streams,
)
from xchannel.receive import observe_all
from xchannel.schedule import build_csit_table, build_schedule
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
        # then all imaginary parts; an all-True mask is the unmasked draw
        s = build_schedule(M, N)
        cells = np.broadcast_to(s.used[:, None, :], (N, M, s.T))
        n = int(cells.sum())
        rng = np.random.default_rng(seed)
        want = np.full((N, M, s.T), complex(np.nan, np.nan))
        want[cells] = np.sqrt(1.0 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert generate_channels(M, N, s.T, seed, mask=s.used).h.tobytes() == want.tobytes()
        everywhere = generate_channels(M, N, s.T, seed, mask=np.ones((N, s.T), dtype=bool))
        assert everywhere.h.tobytes() == generate_channels(M, N, s.T, seed).h.tobytes()

    def test_seed_tuple_stacks_single_draws(self):
        s = build_schedule(4, 3)
        seeds = (5, np.random.SeedSequence(1, spawn_key=(2,)))
        stack = generate_channels(4, 3, s.T, seeds, mask=s.used)
        assert stack.h.shape == (2, 3, 4, s.T) and stack.seed == seeds
        messages = generate_messages(4, 3, s.k, seeds)
        grid = NoiseModel(enabled=True, seed=seeds).sample_grid(3, s.T)
        for d, seed in enumerate(seeds):
            single = generate_channels(4, 3, s.T, seed, mask=s.used).h
            assert stack.h[d].tobytes() == single.tobytes()
            assert np.array_equal(messages.w[d], generate_messages(4, 3, s.k, seed).w)
            assert np.array_equal(grid[d], NoiseModel(enabled=True, seed=seed).sample_grid(3, s.T))

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

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError):
            generate_messages(3, 3, k, seed=0)

    def test_unit_power(self):
        ms = generate_messages(100, 100, 2, seed=3)
        assert abs(np.mean(np.abs(ms.w) ** 2) - 1.0) < 0.02


class TestNoiseModel:
    def test_disabled_is_exact_zero(self):
        nm = NoiseModel(enabled=False)
        z = nm.sample_grid(3, 6)
        assert z.shape == (3, 6)
        assert np.all(z == 0)

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
