"""Tests for channel generation, message sets, noise, and received signals."""

import dataclasses
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xchannel import channel, simulate
from xchannel.analysis import sweep_rates
from xchannel.channel import (
    ChannelRealization,
    generate_channels,
    generate_messages,
    generate_noise,
    run_streams,
    slot_tables,
)
from xchannel.receive import ObservationKind, observe_all
from xchannel.schedule import Schedule, SchemeConstructionError, build_csit_table, build_schedule
from xchannel.simulate import run_simulation
from xchannel.transmit import build_transmit_plan

from helpers import full_store, realization, stored_noise, stream


def reference_rng(seed) -> np.random.Generator:
    """A freshly constructed generator on the stream the rule assigns: Philox4x64 keyed by the
    seed's two 64-bit words, its counter (0, 0, draw, stream); an int seed below 2**128 is
    stream 0 of draw 0, a stream tuple (key0, key1, draw, stream) names all four."""
    key0, key1, draw, stream = (seed, 0, 0, 0) if isinstance(seed, int) else map(int, seed)
    return np.random.Generator(np.random.Philox(key=key0 | key1 << 64, counter=draw << 128 | stream << 192))


def reference_normals(rng, shape) -> np.ndarray:
    """CN(0, 1) cells of shape from rng as the rule draws them: two normals per cell in
    C order, the real part first, each times sqrt(1/2)."""
    z = np.sqrt(0.5) * rng.standard_normal(tuple(shape) + (2,))
    return z[..., 0] + 1j * z[..., 1]


class TestGenerateChannels:
    def test_shape_and_dtype(self):
        ch = generate_channels(full_store(3, 4, 7), stream(0))
        assert ch.h.shape == (4, 3, 7)
        assert ch.h.dtype == np.complex128
        assert (ch.M, ch.N, ch.T) == (3, 4, 7)

    def test_deterministic_per_seed(self):
        a = generate_channels(full_store(3, 3, 6), stream(42))
        b = generate_channels(full_store(3, 3, 6), stream(42))
        np.testing.assert_array_equal(a.h, b.h)

    @pytest.mark.parametrize("M,N,T", [(3, 3, 6), (8, 4, 36), (32, 32, 528)])
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_reference_expression(self, M, N, T, seed):
        # the in-place fill keeps the stream order of this plain expression
        want = reference_normals(reference_rng(seed), (N, M, T))
        assert generate_channels(full_store(M, N, T), stream(seed)).h.tobytes() == want.tobytes()

    @pytest.mark.parametrize("M,N", [(2, 2), (3, 3), (4, 8)])
    @pytest.mark.parametrize("seed", range(3))
    def test_masked_draw_matches_reference_expression(self, M, N, seed):
        # only the schedule's used cells are drawn, in C order of (N, M, T), and
        # stored in that order
        s = build_schedule(M, N)
        cells = np.broadcast_to(s.used[:, None, :], (N, M, s.T))
        n = int(cells.sum())
        rng = reference_rng(seed)
        want = np.full((N, M, s.T), complex(np.nan, np.nan))
        want[cells] = reference_normals(rng, (n,))
        ch = generate_channels(s, stream(seed))
        assert ch.h.shape == (N, M, n // (N * M))
        assert ch.h.tobytes() == want[cells].tobytes()
        assert np.array_equal(ch.slots, np.nonzero(s.used)[1].reshape(N, -1))

    def test_seed_tuple_stacks_single_draws(self):
        s = build_schedule(4, 3)
        seeds = stream([(5, 0, 0, 0), (1, 0, 2, 1)])
        stack = generate_channels(s, seeds)
        U = s.k * (3 + 4 - 1)
        assert stack.h.shape == (2, 3, 4, U)
        messages = generate_messages(s, seeds)
        grid = generate_noise(s, seeds)
        assert messages.shape == (2, 3, 4, 2) and grid.shape == (2, 3, U)
        for d, seed in enumerate(seeds):  # bit for bit, all three draws
            single = generate_channels(s, seed).h
            assert stack.h[d].tobytes() == single.tobytes()
            assert messages[d].tobytes() == generate_messages(s, seed).tobytes()
            assert grid[d].tobytes() == generate_noise(s, seed).tobytes()

    def test_four_stream_stack_is_four_draws(self):
        # a (4, 4) stack is four draws, not one stream read from four words
        s = build_schedule(3, 3)
        seeds = run_streams(0, 4)
        stack = generate_channels(s, seeds)
        assert stack.h.shape == (4, 3, 3, s.stored[0].shape[1])
        for d in range(4):
            assert stack.h[d].tobytes() == generate_channels(s, seeds[d]).h.tobytes()

    @pytest.mark.parametrize("streams", [7, (1, 2, 3), (7, 0, 0, 0), np.zeros((2, 5), dtype=np.uint64),
                                         np.zeros(4, dtype=np.int64)])
    def test_only_a_stream_array_is_drawn(self, streams):
        # an int, a tuple or an array of other words or dtype is no stream array: each
        # raises an error naming run_streams, for channels, messages and noise alike
        s = build_schedule(3, 3)
        for draw in (generate_channels, generate_messages, generate_noise):
            with pytest.raises(ValueError, match="run_streams"):
                draw(s, streams)

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
        sim = run_simulation(build_schedule(3, 3), seed=0)
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
        sims = [run_simulation(s, seed=seed) for seed in (0, 1)]
        for sim in sims:
            assert sim.channels.slots is s.stored[0] and sim.channels.columns is s.stored[1]
        slots, columns = slot_tables(s.used, 3, s.T)
        assert np.array_equal(slots, s.stored[0]) and np.array_equal(columns, s.stored[1])
        assert generate_channels(s, stream(0)).h.tobytes() == sims[0].channels.h.tobytes()

    def test_32x32_stores_only_used_cells(self):
        # each receiver stores k(N + M - 1) = 63 of the T = 528 slots
        assert run_simulation(build_schedule(32, 32), 0).channels.h.nbytes == 16 * 32 * 32 * 63

    def test_seeds_differ(self):
        a = generate_channels(full_store(3, 3, 6), stream(1))
        b = generate_channels(full_store(3, 3, 6), stream(2))
        assert not np.array_equal(a.h, b.h)

    def test_no_zero_entries(self):
        # invertibility of every coefficient is relied on by the precoder
        for seed in range(20):
            ch = generate_channels(full_store(4, 4, 10), stream(seed))
            assert np.all(np.abs(ch.h) > 0)

    def test_arrays_write_protected(self):
        ch = generate_channels(full_store(2, 2, 3), stream(0))
        with pytest.raises(ValueError):
            ch.h[0, 0, 0] = 1.0

    def test_unit_variance_statistics(self):
        # 1e6 draws: E|h|^2 -> 1, Re/Im variance -> 1/2
        ch = generate_channels(full_store(200, 50, 100), stream(7))
        h = ch.h
        assert h.size == 10**6
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01
        assert abs(np.var(h.real) - 0.5) < 0.02 * 0.5
        assert abs(np.var(h.imag) - 0.5) < 0.02 * 0.5
        assert abs(np.mean(h)) < 0.005


class TestGenerateMessages:
    def test_shape(self):
        ms = generate_messages(build_schedule(4, 3), stream(0))
        assert ms.shape == (3, 4, 2)  # (N, M, k): the dimensions are the array's
        with pytest.raises(ValueError):  # a read-only view of a read-only owner, as run tables are
            ms.setflags(write=True)

    def test_deterministic(self):
        a = generate_messages(build_schedule(2, 3), stream(5))
        b = generate_messages(build_schedule(2, 3), stream(5))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("M,N,k", [(3, 3, 1), (4, 8, 2), (32, 32, 1)])
    @pytest.mark.parametrize("seed", [0, 7, (7, 3, 1, 1)])
    def test_bit_identical_to_reference_expression(self, M, N, k, seed):
        want = reference_normals(reference_rng(seed), (N, M, k))
        assert generate_messages(full_store(M, N, 1, k), stream(seed)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_invalid_k(self, k):
        # the draw reads k from its schedule, one more than the largest copy of its table, and
        # construction allows copies 0 and 1 only: a table of k copies lists copy k - 1
        members = build_schedule(3, 3).members.copy()
        members[0, :, 1] = k - 1
        with pytest.raises(SchemeConstructionError, match=r"^slot 0 holds copy %d, expected 0 or 1$" % (k - 1)):
            Schedule(members)

    def test_unit_power(self):
        ms = generate_messages(full_store(100, 100, 1, 2), stream(3))
        assert abs(np.mean(np.abs(ms) ** 2) - 1.0) < 0.02


class TestNoiseModel:
    """Receiver noise: generate_noise's unit-variance CN(0, 1) draw of the stored cells."""

    def test_noiseless_run_observes_no_noise(self):
        # every stored cell of a noiseless stack is exactly its channel row times the slot's signal
        sim = run_simulation(build_schedule(3, 5), seed=4, draws=range(2))
        ch = sim.channels
        X = sim.plan.signal_matrix(sim.messages)
        clean = np.einsum("...iju,...jiu->...iu", ch.h, X[..., :, ch.slots])
        assert sim.log.values[..., np.arange(5)[:, None], ch.slots].tobytes() == clean.tobytes()
        assert sim.log.noise is None and not sim.systems.sigma.any()

    def test_enabled_deterministic(self):
        a = generate_noise(full_store(1, 3, 6), stream(9))
        b = generate_noise(full_store(1, 3, 6), stream(9))
        np.testing.assert_array_equal(a, b)
        assert not np.all(a == 0)
        with pytest.raises(ValueError):  # a read-only view of a read-only owner, as run tables are
            a.setflags(write=True)

    def test_unit_power(self):
        a = generate_noise(full_store(1, 50, 400), stream(4))
        assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.05

    @pytest.mark.parametrize("N,U", [(3, 6), (8, 36), (32, 528)])
    @pytest.mark.parametrize("seed", [0, 11, (5, 2, 2, 2)])
    def test_bit_identical_to_reference_expression(self, N, U, seed):
        want = reference_normals(reference_rng(seed), (N, U))
        assert generate_noise(full_store(1, N, U), stream(seed)).tobytes() == want.tobytes()


class TestReceivedSignal:
    """Observations y[i, t] = sum_j h[i, j, t] x[j, t] + n[i, t], as observe_all forms them."""

    USED = build_schedule(3, 3).used  # the cells observed; the others are NaN

    def _setup(self, M=3, N=3, seed=0, w=None, noise=None):
        # h holds the channels of all T slots, h[i, :, t] receiver i's row in slot t; the run
        # stores and observes the used cells of h and of a full (N, T) noise grid
        s = build_schedule(M, N)
        h = generate_channels(full_store(M, N, s.T), stream(seed)).h
        if w is None:
            w = generate_messages(s, stream(seed + 100))
        plan = build_transmit_plan(realization(s, h), build_csit_table(s))
        log = observe_all(plan, w, None if noise is None else stored_noise(s, noise))
        assert np.array_equal(np.isnan(log.values), ~s.used)
        return h, plan.signal_matrix(w), log.values

    def test_matches_plain_dot(self):
        h, x, y = self._setup()
        N, M, T = h.shape
        for t in range(T):
            for i in range(N):
                if self.USED[i, t]:
                    expect = sum(h[i, j, t] * x[j, t] for j in range(M))
                    assert abs(y[i, t] - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_zero_input(self):
        _, _, y = self._setup(w=np.zeros((3, 3, 1), dtype=complex))
        assert np.all(y[self.USED] == 0)

    def test_single_transmitter_recovers_coefficient(self):
        # only transmitter 2 has a nonzero symbol, for receiver 0, broadcast in slot 0
        w = np.zeros((3, 3, 1), dtype=complex)
        w[0, 2, 0] = 1.0
        h, _, y = self._setup(w=w)
        assert np.all(y[:, 0] == h[:, 2, 0])

    def test_noise_added(self):
        h, _, clean = self._setup()
        sample = generate_noise(full_store(3, 3, h.shape[-1]), stream(11))
        _, _, noisy = self._setup(noise=sample)
        assert np.all(np.abs((noisy - clean) - sample)[self.USED] <= 1e-12)

    @settings(deadline=None, max_examples=30)
    @given(
        a=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_linearity(self, a, b, seed):
        # precoding depends on the channel only, so observations are linear in
        # the messages
        s = build_schedule(3, 3)
        u = generate_messages(s, stream(seed % 97))
        v = generate_messages(s, stream((seed % 97) + 1))
        _, _, lhs = self._setup(seed=seed % 89, w=a * u + b * v)
        _, _, yu = self._setup(seed=seed % 89, w=u)
        _, _, yv = self._setup(seed=seed % 89, w=v)
        lhs, rhs = lhs[self.USED], a * yu[self.USED] + b * yv[self.USED]
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(rhs)))


def test_realizations_hold_no_seed():
    # a draw keeps its schedule and its coefficients, and reads its layout from the schedule;
    # its stream is the caller's to keep
    store = full_store(2, 2, 3)
    ch = generate_channels(store, stream(123))
    assert isinstance(ch, ChannelRealization)
    assert [f.name for f in dataclasses.fields(ch)] == ["schedule", "h"]
    assert ch.schedule is store and ch.slots is store.stored[0] and ch.columns is store.stored[1]
    ms = generate_messages(build_schedule(2, 2), stream(45))
    assert type(ms) is np.ndarray and ms.shape == (2, 2, 1)


def test_run_streams_key_and_counter():
    # the key is the seed's two 64-bit words, the counter (0, 0, draw, stream); a single run is draw 0
    assert run_streams(7).tolist() == [[7, 0, 0, 0], [7, 0, 0, 1], [7, 0, 0, 2]]
    assert run_streams(2**64 + 3, 2, draws=range(1, 3)).tolist() == [[[3, 1, 1, 0], [3, 1, 2, 0]],
                                                                     [[3, 1, 1, 1], [3, 1, 2, 1]]]
    big = 2**128 + 1  # hashed once to two words
    key = np.random.SeedSequence(big).generate_state(2, np.uint64).tolist()
    assert run_streams(big, 1).tolist() == [key + [0, 0]]
    assert run_streams(2**128 - 1, 1).tolist() == [[2**64 - 1, 2**64 - 1, 0, 0]]
    for streams in (run_streams(7), run_streams(7, 2, draws=range(3))):  # read-only uint64 rows
        assert streams.dtype == np.uint64 and streams.shape[-1] == 4
        with pytest.raises(ValueError):
            streams.setflags(write=True)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 2**130), st.integers(0, 2**20), st.integers(0, 2)),
                min_size=2, max_size=6, unique=True))
def test_distinct_streams_have_distinct_keys_and_counters(triples):
    # a hashed key could meet a direct one only by a 128-bit hash collision
    def key_counter(seed, draw, stream):
        (words,) = run_streams(seed, stream + 1, draws=range(draw, draw + 1))[stream].tolist()
        assert all(0 <= w < 2**64 for w in words)
        return tuple(words[:2]), (0, 0) + tuple(words[2:])

    pairs = [key_counter(*t) for t in triples]
    assert len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("seed", [5, 2**130 + 7])
def test_run_draws_match_fresh_philox_generators(seed):
    # the stored cells of channels, messages and noise are the normals of freshly constructed
    # generators on streams 0, 1 and 2 of the seed's key
    M, N = 4, 3
    sim = run_simulation(build_schedule(M, N), seed, noise_enabled=True)
    key = seed if seed < 2**128 else int.from_bytes(
        np.random.SeedSequence(seed).generate_state(2, np.uint64).tobytes(), "little")
    noise = sim.log.noise
    for index, got in enumerate((sim.channels.h, sim.messages, noise)):
        rng = reference_rng((key & (2**64 - 1), key >> 64, 0, index))
        assert got.tobytes() == reference_normals(rng, got.shape).tobytes()
    # and that noise is what the stored cells observe on top of the noiseless run
    clean = run_simulation(build_schedule(M, N), seed).log.values
    rows, slots = np.arange(N)[:, None], sim.channels.slots
    np.testing.assert_allclose((sim.log.values - clean)[rows, slots], noise, atol=1e-12)


def test_zero_redraw_continues_the_stream(monkeypatch):
    # exact zeros (here forced in both parts of three cells) are redrawn from the normals
    # that follow on the same stream
    cells = [0, 5, 11]

    class Zeroing:
        def __init__(self):
            self.rng = np.random.Generator(np.random.Philox(0))
            self.bit_generator, self.fills = self.rng.bit_generator, 0

        def standard_normal(self, size=None, out=None):
            got = self.rng.standard_normal(size, out=out)
            if not self.fills:
                self.fills += 1
                got.reshape(-1, 2)[cells] = 0.0
            return got

    words = (3, 9, 4, 0)
    monkeypatch.setattr(channel, "_generator", Zeroing)
    h = generate_channels(full_store(2, 3, 2), stream(words)).h
    rng = reference_rng(words)
    want = reference_normals(rng, (12,))
    want[cells] = reference_normals(rng, (len(cells),))
    assert h.ravel().tobytes() == want.tobytes()


def test_threads_draw_their_streams_undisturbed():
    # each thread resets and draws its own reused generator, so concurrent draws of many
    # streams equal the same draws made one after the other
    streams = [stream((s, 1, d, 0)) for s in range(6) for d in range(5)]
    store = full_store(4, 8, 36)
    want = [generate_channels(store, words).h.tobytes() for words in streams]
    got = [None] * len(streams)

    def work(start):
        for i in range(start, len(streams), 6):
            got[i] = generate_channels(store, streams[i]).h.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("draws", [range(-1, 1), range(0, 2**64 + 1, 2**64), range(2**64 - 1, 2**64 + 1)])
def test_draws_outside_the_counter_word_rejected(draws):
    # a draw is one 64-bit counter word: numpy's bare OverflowError once reported the -1
    # without naming draws
    with pytest.raises(ValueError, match=r"^draws must lie in 0\.\.2\*\*64 - 1, got "):
        run_streams(0, 2, draws=draws)
    with pytest.raises(ValueError, match="draws must lie"):
        run_simulation(build_schedule(3, 3), 0, draws=draws)
    assert run_streams(0, 1, draws=range(2**64 - 2, 2**64))[0, :, 2].tolist() == [2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize("draws", [[0, 0], (0, 1), np.arange(2), 1.5, [1.5]],
                         ids=["list", "tuple", "array", "float", "float-list"])
def test_draws_are_a_range(draws):
    # a range never repeats a draw: draws=[0, 0] once stacked draw 0 twice, which a rate
    # average counted twice, and [1.5] failed in numpy without naming draws
    with pytest.raises(TypeError, match=r"^draws must be a range, got "):
        run_streams(0, 2, draws=draws)
    with pytest.raises(TypeError, match="draws must be a range"):
        run_simulation(build_schedule(3, 3), 0, draws=draws)


def test_bool_seed_rejected():
    # bool is an int subclass, but True is no seed, as the command line says too
    for seed in (True, False):
        with pytest.raises(TypeError, match=r"^seed must be an integer, not the bool "):
            run_streams(seed)
        with pytest.raises(TypeError, match="seed"):
            run_simulation(build_schedule(3, 3), seed)
    one = run_simulation(build_schedule(3, 3), np.int64(1))  # numpy integers are seeds
    assert one.channels.h.tobytes() == run_simulation(build_schedule(3, 3), 1).channels.h.tobytes()


@pytest.mark.parametrize("seed", [1.0, 1.5, "1", np.random.SeedSequence(1)], ids=["1.0", "1.5", "str", "seedseq"])
def test_non_integer_seed_is_named(seed):
    # a float seed once failed with operator.index's bare message, which names no argument
    with pytest.raises(TypeError, match=r"^seed must be an integer, not the "):
        run_streams(seed)
    with pytest.raises(TypeError, match=r"^seed must be an integer, not the "):
        run_simulation(build_schedule(3, 3), seed)


def test_stream_rejects_what_seed_sequence_rejects():
    with pytest.raises(ValueError, match="non-negative"):
        run_streams(-1)
    with pytest.raises(TypeError):
        run_streams(1.5)
    with pytest.raises(TypeError):  # a SeedSequence is no seed
        run_simulation(build_schedule(3, 3), np.random.SeedSequence(1))
    with pytest.raises(TypeError):  # nor is a missing one
        run_simulation(build_schedule(3, 3))
    for words in ((1, 2), (1, 2, 3, 4, 5)):  # a stream has four words, key then counter
        with pytest.raises(ValueError, match="run_streams"):
            generate_channels(full_store(2, 2, 2), stream(words))


def test_sweep_builds_no_numpy_seed_sequence(monkeypatch):
    # a seed below 2**128 is its own key
    class Forbidden(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            raise AssertionError("numpy SeedSequence constructed")

    monkeypatch.setattr(np.random, "SeedSequence", Forbidden)
    sweep_rates(build_schedule(3, 4), [10.0, 30.0], draws=5, seed=2**128 - 1)
    s = build_schedule(3, 4)
    sim = run_simulation(s, seed=7, draws=range(2), noise_enabled=True)
    channels, messages, noise = (stream([(7, 0, d, c) for d in range(2)]) for c in range(3))
    assert sim.channels.h.tobytes() == generate_channels(s, channels).h.tobytes()
    assert sim.messages.tobytes() == generate_messages(s, messages).tobytes()
    assert sim.log.noise.tobytes() == generate_noise(s, noise).tobytes()


def test_large_seed_is_hashed_once(monkeypatch):
    made = []

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    sweep_rates(build_schedule(3, 4), [10.0, 30.0], draws=5, seed=2**130)
    assert made == [(2**130,)]


@pytest.mark.parametrize("noise", [False, True])
def test_draw_range_stacks_the_draw_seeds(noise):
    # draw d of a draw range is the one-draw run draws=range(d, d + 1), bit for bit
    s = build_schedule(3, 7)
    ranged = run_simulation(s, seed=9, draws=range(2, 5), noise_enabled=noise, normalize=True)
    for i, d in enumerate(range(2, 5)):
        single = run_simulation(s, 9, draws=range(d, d + 1), noise_enabled=noise, normalize=True)
        for name in ("G", "y", "sigma"):
            assert getattr(ranged.systems, name)[i].tobytes() == getattr(single.systems, name)[0].tobytes()


def test_noiseless_run_derives_and_samples_no_noise():
    # the same channels and messages as the noisy run, with no noise stream and no grid sampled
    with (mock.patch.object(simulate, "generate_noise", side_effect=AssertionError("sampled")),
          mock.patch.object(simulate, "run_streams", wraps=run_streams) as streams):
        quiet = run_simulation(build_schedule(4, 6), seed=1, draws=range(2))
    assert [(c.args, c.kwargs) for c in streams.call_args_list] == [((1, 2), {"draws": range(2)})]  # no noise
    noisy = run_simulation(build_schedule(4, 6), seed=1, draws=range(2), noise_enabled=True)
    assert quiet.channels.h.tobytes() == noisy.channels.h.tobytes()
    assert quiet.messages.tobytes() == noisy.messages.tobytes()
    assert quiet.log.noise is None
    assert quiet.all_recovered()
