"""Tests for observation bookkeeping, interference subtraction, and decoding."""

import dataclasses
import inspect
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from xchannel.analysis import sum_rate
from xchannel.channel import generate_channels, generate_messages, generate_noise
from xchannel.receive import (
    CONDITION_LIMIT,
    DecodeResult,
    LinearSystem,
    ObservationKind,
    ObservationLog,
    assemble_system,
    cancel_interference,
    decode,
    observe_all,
)
from xchannel.schedule import SchemeConstructionError, build_csit_table, build_schedule, permute_schedule
from xchannel.simulate import SimulationResult, run_simulation
from xchannel.transmit import build_transmit_plan

from helpers import full_store, noise_map, realization, stored_noise, stream

K = ObservationKind


def make_log(M, N, seed=0, noise_enabled=False, normalize=False):
    # channels and noise drawn on all T slots, so h[i, :, t] is receiver i's row in slot t;
    # the run stores and observes the cells of both that the schedule uses
    s = build_schedule(M, N)
    table = build_csit_table(s)
    store = full_store(M, N, s.T)
    h = generate_channels(store, stream(seed)).h
    ms = generate_messages(s, stream(seed + 1))
    plan = build_transmit_plan(realization(s, h), table, normalize=normalize)
    noise = stored_noise(s, generate_noise(store, stream(seed + 2))) if noise_enabled else None
    return s, h, ms, plan, observe_all(plan, ms, noise)


def loop_rows(schedule, receiver) -> np.ndarray:
    """Plain-loop reference, from members alone, for the rows of receiver's system, as
    (copy, slot, partner, linked) each: per copy the direct row at the copy's phase-1 slot
    (partner and linked -1), then one row per pair slot of the copy, in slot order, linked
    to the partner's phase-1 slot."""
    first, members = schedule.phase1_len, schedule.members.tolist()
    t1 = {tuple(members[t][0]): t for t in range(first)}  # (receiver, copy) -> its phase-1 slot
    rows = [[(c, t1[receiver, c], -1, -1)] for c in range(schedule.k)]
    for t, ((a, ca), (b, cb)) in enumerate(members[first:], first):
        if a == receiver:
            rows[ca].append((ca, t, b, t1[b, cb]))
        if b == receiver:
            rows[cb].append((cb, t, a, t1[a, ca]))
    return np.array([row for per_copy in rows for row in per_copy])


class TestObservationKinds:
    def test_3x3_golden(self):
        _, _, _, _, log = make_log(3, 3)
        kinds = log.entries.tolist()
        assert log.entries.shape == (3, 6) and log.entries.dtype == np.int8
        assert kinds[0] == [K.DESIRED_PHASE1, K.INTERFERENCE_PHASE1, K.INTERFERENCE_PHASE1,
                            K.COMBINED_PHASE2, K.COMBINED_PHASE2, K.DISCARDED]
        assert kinds[1] == [K.INTERFERENCE_PHASE1, K.DESIRED_PHASE1, K.INTERFERENCE_PHASE1,
                            K.COMBINED_PHASE2, K.DISCARDED, K.COMBINED_PHASE2]
        assert kinds[2] == [K.INTERFERENCE_PHASE1, K.INTERFERENCE_PHASE1, K.DESIRED_PHASE1,
                            K.DISCARDED, K.COMBINED_PHASE2, K.COMBINED_PHASE2]

    def test_3x3_discarded_pattern(self):
        _, _, _, _, log = make_log(3, 3)
        discarded = {(i, t) for i, t in zip(*np.nonzero(log.entries == K.DISCARDED))}
        assert discarded == {(2, 3), (1, 4), (0, 5)}

    def test_3x3_links_and_partners(self):
        # each receiver's direct slot, then its pair rows (slot, partner, linked phase-1 slot, own)
        s, _, _, _, _ = make_log(3, 3)
        assert s.phase1_slots[:, 0].tolist() == [0, 1, 2]
        assert s.pair_rows[:, 0].T.tolist() == [[3, 1, 1, 0], [4, 2, 2, 0]]
        assert s.pair_rows[:, 2].T.tolist() == [[4, 0, 0, 2], [5, 1, 1, 2]]
        assert loop_rows(s, 0).tolist() == [[0, 0, -1, -1], [0, 3, 1, 1], [0, 4, 2, 2]]
        assert loop_rows(s, 2).tolist() == [[0, 2, -1, -1], [0, 4, 0, 0], [0, 5, 1, 1]]

    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (2, 4), (5, 4), (2, 3), (6, 5)])
    def test_kind_counts(self, M, N):
        s, _, _, _, log = make_log(M, N)
        for i in range(N):
            kinds = log.entries[i].tolist()
            assert kinds.count(K.DESIRED_PHASE1) == s.k
            assert kinds.count(K.INTERFERENCE_PHASE1) == s.k * (N - 1)
            assert kinds.count(K.COMBINED_PHASE2) == s.k * (M - 1)
            assert kinds.count(K.DISCARDED) == s.T - s.k * (M + N - 2) - s.k

    def test_entries_are_the_schedules_read_only_table(self):
        s = build_schedule(4, 3)
        a, b = run_simulation(s, seed=0), run_simulation(s, seed=1, draws=range(2))
        assert a.log.entries is b.log.entries is s.entries
        assert s.entries.shape == (3, s.T) and s.entries.dtype == np.int8
        with pytest.raises(ValueError):
            s.entries[0, 0] = K.DISCARDED

    @pytest.mark.parametrize("M,N", [(1, 2), (3, 3), (4, 3), (2, 4), (5, 4), (2, 3), (6, 5)])
    def test_entries_match_the_observation_derivation(self, M, N):
        # the table observe_all used to build on every call, for canonical and
        # permuted schedules
        rng = np.random.default_rng(0)
        base = build_schedule(M, N)
        first = base.phase1_len
        permuted = permute_schedule(base, rng.permutation(first), rng.permutation(base.T - first))
        for s in (base, permuted):
            want = np.where(s.used, K.COMBINED_PHASE2.value, K.DISCARDED.value).astype(np.int8)
            want[:, :first] = K.INTERFERENCE_PHASE1.value
            want[np.arange(N)[:, None], s.phase1_slots] = K.DESIRED_PHASE1.value
            assert np.array_equal(s.entries, want)

    def test_kind_is_reexported(self):
        import xchannel
        import xchannel.schedule

        assert K is xchannel.ObservationKind is xchannel.schedule.ObservationKind

    def test_values_match_plain_recompute(self):
        s, h, ms, plan, log = make_log(3, 3, seed=4)
        X = plan.signal_matrix(ms)
        for i in range(s.N):
            for t in range(s.T):
                want = sum(h[i, j, t] * X[j, t] for j in range(s.M)) if s.used[i, t] else np.nan
                assert abs(log.values[i, t] - want) <= 1e-12 * max(1.0, abs(want)) or np.isnan(want)
        assert np.array_equal(np.isnan(log.values), ~s.used)

    def test_noise_enters_observations(self):
        s, _, _, _, clean = make_log(3, 3, seed=4)
        _, _, _, _, noisy = make_log(3, 3, seed=4, noise_enabled=True)
        grid = generate_noise(full_store(3, 3, 6), stream(6))
        used = s.used
        np.testing.assert_allclose((noisy.values - clean.values)[used], grid[used], atol=1e-12)
        assert noisy.noise.tobytes() == stored_noise(s, grid).tobytes()
        assert clean.noise is None

    def test_noise_must_match_the_stored_cells(self):
        # one draw's (N, U) grid on a two-draw stack would broadcast onto both draws
        sim = run_simulation(build_schedule(3, 4), seed=1, draws=range(2))
        U = sim.channels.h.shape[-1]
        for shape in ((4, U), (2, 4, U + 1)):
            noise = np.zeros(shape, dtype=complex)
            with pytest.raises(ValueError, match=r"stored cells' shape \(2, 4, %d\)" % U):
                observe_all(sim.plan, sim.messages, noise)

    def test_messages_must_match_the_plan(self):
        # two copies on a k = 1 plan once sent copy 0 alone and decoded with success True; a
        # two-draw stack on a one-draw plan once failed late, in assemble_system, with a bare
        # reshape error. Both now raise in observe_all, naming both shapes.
        sim = run_simulation(build_schedule(3, 3), seed=0)
        for shape in ((3, 3, 2), (2, 3, 3, 1)):
            messages = np.ones(shape, dtype=complex)
            want = r"^messages must have the plan's shape \(3, 3, 1\), got %s$" % re.escape(str(shape))
            with pytest.raises(ValueError, match=want):
                observe_all(sim.plan, messages)
        stacked = run_simulation(build_schedule(3, 3), seed=0, draws=range(2))
        with pytest.raises(ValueError, match=r"plan's shape \(2, 3, 3, 1\), got \(3, 3, 1\)"):
            observe_all(stacked.plan, sim.messages)


def pair_rows(schedule, receiver):
    rows = loop_rows(schedule, receiver)
    return rows[rows[:, 2] >= 0]


def cancelled_truth(schedule, ms, receiver, rows):
    # each row applies to the messages of its own copy
    copies = pair_rows(schedule, receiver)[:, 0]
    return (rows * ms[receiver, :, copies]).sum(axis=1)


class TestCancelInterference:
    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (5, 4), (2, 3)])
    def test_rows_satisfy_identity(self, M, N):
        s, _, ms, _, log = make_log(M, N, seed=9)
        rows, values = cancel_interference(log)
        assert rows.shape == (N, s.k * (M - 1), M) and values.shape == (N, s.k * (M - 1))
        for i in range(N):
            want = cancelled_truth(s, ms, i, rows[i])
            assert np.all(np.abs(values[i] - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_row_coefficients_3x3_hand_formula(self):
        s, h, _, _, log = make_log(3, 3, seed=2)
        rows = cancel_interference(log)[0][0]
        # receiver 0 broadcast at slot 0; partners 1 and 2 broadcast at 1 and 2
        np.testing.assert_allclose(rows[0], h[0, :, 3] * h[1, :, 0] / h[1, :, 3], rtol=1e-12)
        np.testing.assert_allclose(rows[1], h[0, :, 4] * h[2, :, 0] / h[2, :, 4], rtol=1e-12)

    def test_unit_channel_rows_are_ones(self):
        s = build_schedule(3, 3)
        table = build_csit_table(s)
        h = np.ones((3, 3, s.T), dtype=complex)
        h.setflags(write=False)
        ms = generate_messages(s, stream(1))
        plan = build_transmit_plan(realization(s, h), table)
        log = observe_all(plan, ms)
        rows, values = cancel_interference(log)
        np.testing.assert_allclose(rows, np.ones((3, 2, 3)), rtol=1e-14)
        assert np.all(np.abs(values - ms.sum(axis=(1, 2))[:, None]) < 1e-10)

    def test_scaled_plan_keeps_identity(self):
        s, _, ms, _, log = make_log(4, 3, seed=1, normalize=True)
        rows, values = cancel_interference(log)
        for i in range(3):
            assert np.all(log.plan.slot_scale[pair_rows(s, i)[:, 1]] < 1.0)
            want = cancelled_truth(s, ms, i, rows[i])
            assert np.all(np.abs(values[i] - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_self_paired_slot_rejected_at_construction(self):
        # the one way a replay can miss stored interference: pair slot 3 serves
        # receiver 0 twice, so its linked slot would be receiver 0's own desired
        # broadcast. Every unit still sits in M-1 = 2 pair slots, so only the
        # self-pair check of Schedule construction stands in the way.
        s = build_schedule(3, 3)
        members = s.members.copy()
        members[3:, :, 0] = [[0, 0], [1, 2], [1, 2]]
        with pytest.raises(SchemeConstructionError, match="pair slot reuses receiver 0"):
            dataclasses.replace(s, members=members)


class TestAssembleSystem:
    @pytest.mark.parametrize("M,N,size", [(3, 3, 3), (2, 2, 2), (4, 3, 8), (2, 3, 4)])
    def test_shapes(self, M, N, size):
        # every receiver's system, receiver i at position i
        _, _, _, _, log = make_log(M, N)
        systems = assemble_system(log)
        assert systems.G.shape == (N, size, size)
        assert systems.y.shape == (N, size)
        assert systems.sigma.shape == (N, size, size)
        assert noise_map(log.plan.schedule, log.plan.slot_scale).shape == (N, size, log.plan.schedule.T)
        assert systems.M == M and len(systems) == N

    def test_row_ordering_direct_then_subtractions(self):
        # per copy, G's first row is the channel row at the copy's phase-1 slot t_c, and the
        # next M-1 rows are its pair rows in slot order, each h_0(t) h_b(t_c) / h_b(t) for partner b
        s, h, _, _, log = make_log(4, 3)
        rows = loop_rows(s, 0)
        kinds = ["direct" if partner < 0 else "subtraction" for partner in rows[:, 2]]
        assert kinds == ["direct", "subtraction", "subtraction", "subtraction"] * 2
        assert rows[:, 0].tolist() == [0] * 4 + [1] * 4
        G = assemble_system(log).G[0]
        for r, (copy, slot, partner, _) in enumerate(rows.tolist()):
            own = rows[4 * copy, 1]
            want = h[0, :, slot] if partner < 0 else h[0, :, slot] * h[partner, :, own] / h[partner, :, slot]
            np.testing.assert_allclose(G[r], np.eye(2)[copy].repeat(4) * np.tile(want, 2), rtol=1e-12)

    def test_copy_blocks_are_disjoint(self):
        # a row for copy c involves only that copy's unknowns
        _, _, _, _, log = make_log(4, 3, seed=5)
        systems = assemble_system(log)
        M = systems.M
        for r, copy in enumerate(loop_rows(log.plan.schedule, 1)[:, 0]):
            block = systems.G[1, r, copy * M : (copy + 1) * M]
            full = systems.G[1, r]
            assert np.count_nonzero(full) == np.count_nonzero(block)

    def test_direct_row_is_channel_row(self):
        s, h, _, _, log = make_log(3, 3, seed=8)
        G = assemble_system(log).G
        np.testing.assert_allclose(G[:, 0], h[[0, 1, 2], :, [0, 1, 2]], rtol=1e-14)

    def test_system_consistent_with_truth(self):
        _, _, ms, _, log = make_log(5, 4, seed=3)
        systems = assemble_system(log)
        for i in range(4):
            w_flat = ms[i].T.reshape(-1)
            np.testing.assert_allclose(systems.G[i] @ w_flat, systems.y[i], rtol=1e-9)

    def test_noiseless_32x32_run_peak_stays_small(self):
        # the stages free their temporaries as they go, and assembly builds no (kM, T) noise map
        # per receiver (sigma comes from the pair-row links): a noiseless 32x32 run, its decode
        # and the schedule's first-read tables peak at about 3.2 MB (numpy 2.4), where the old
        # noise map alone took 4.3 MB. The caps here leave about 20% for other numpy versions.
        assert self._traced_peak(32) <= 4.0e6

    def test_noiseless_48x48_run_peak_is_below_the_old_noise_map(self):
        # about 10.7 MB measured (numpy 2.4), against 21.7 MB for the old noise map alone
        assert self._traced_peak(48) <= 13e6

    @staticmethod
    def _traced_peak(n):
        """tracemalloc's peak over a noiseless n x n run and its decode, imports cached first."""
        run_simulation(build_schedule(2, 2), 0).all_recovered()
        schedule = build_schedule(n, n)
        tracemalloc.start()
        try:
            assert run_simulation(schedule, 0).all_recovered()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak


class TestNoiseCovariance:
    def test_3x3_golden(self):
        _, _, _, _, log = make_log(3, 3, noise_enabled=True)
        np.testing.assert_allclose(assemble_system(log).sigma[0],
                                   np.diag([1.0, 2.0, 2.0]), atol=1e-14)

    def test_3x4_shared_replay_correlates_rows(self):
        # both pair slots of a receiver reuse the same stored observation,
        # so the two subtraction rows share one noise sample
        _, _, _, _, log = make_log(3, 4, noise_enabled=True)
        want = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        np.testing.assert_allclose(assemble_system(log).sigma[0], want, atol=1e-14)

    def test_4x3_golden(self):
        _, _, _, _, log = make_log(4, 3, noise_enabled=True)
        block = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 1.0, 1.0],
            [0.0, 1.0, 2.0, 1.0],
            [0.0, 1.0, 1.0, 2.0],
        ])
        want = np.zeros((8, 8))
        want[:4, :4] = block
        want[4:, 4:] = block
        np.testing.assert_allclose(assemble_system(log).sigma[0], want, atol=1e-14)

    def test_noiseless_sigma_is_zero(self):
        _, _, _, _, log = make_log(3, 3, noise_enabled=False)
        assert np.all(assemble_system(log).sigma == 0)

    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (3, 4), (2, 3)])
    def test_sigma_equals_incidence_product(self, M, N):
        _, _, _, _, log = make_log(M, N, noise_enabled=True)
        systems = assemble_system(log)
        for i, B in enumerate(noise_map(log.plan.schedule, log.plan.slot_scale)):
            np.testing.assert_allclose(systems.sigma[i], B @ B.T, atol=1e-12)

    def test_noise_map_structure(self):
        # the helper's B, built from members alone, has the pair_rows table's structure
        _, _, _, _, log = make_log(3, 3, noise_enabled=True)
        B = noise_map(log.plan.schedule, log.plan.slot_scale)[0]
        for r, (_, slot, partner, linked) in enumerate(loop_rows(log.plan.schedule, 0)):
            if partner < 0:
                assert B[r, slot] == 1.0
                assert np.count_nonzero(B[r]) == 1
            else:
                assert B[r, slot] == 1.0
                assert B[r, linked] == -log.plan.slot_scale[slot]
                assert np.count_nonzero(B[r]) == 2

    def test_residuals_match_noise_map(self):
        # noisy minus noiseless right-hand side equals B times the noise row
        s, _, _, _, clean = make_log(3, 3, seed=7)
        _, _, _, _, noisy = make_log(3, 3, seed=7, noise_enabled=True)
        grid = generate_noise(full_store(3, 3, s.T), stream(9))
        a, b = assemble_system(noisy), assemble_system(clean)
        B = noise_map(s, noisy.plan.slot_scale)
        for i in range(3):
            np.testing.assert_allclose(a.y[i] - b.y[i], B[i] @ grid[i], atol=1e-10)
        np.testing.assert_allclose(a.G, b.G, rtol=1e-12)

    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (3, 4)])
    def test_noise_map_applies_to_stored_cell_noise(self, M, N):
        # a noisy run draws noise at the (N, U) stored cells only: receiver i's noise placed on
        # its channels.slots[i] columns of T, zero elsewhere, is what B[i] maps to y's noise
        sim = run_simulation(build_schedule(M, N), seed=4, noise_enabled=True)
        T, slots = sim.schedule.T, sim.channels.slots
        assert sim.log.noise.shape == slots.shape and slots.shape[-1] < T
        clean = assemble_system(observe_all(sim.plan, sim.messages))
        n = np.zeros((N, T), dtype=complex)
        n[np.arange(N)[:, None], slots] = sim.log.noise
        B = noise_map(sim.schedule, sim.plan.slot_scale)
        for i in range(N):
            np.testing.assert_allclose(B[i] @ n[i], sim.systems.y[i] - clean.y[i], rtol=0, atol=1e-12)

    def test_empirical_covariance_quick(self):
        _, _, _, _, log = make_log(3, 3, noise_enabled=True)
        systems = assemble_system(log)
        rng = np.random.default_rng(0)
        R = 20000
        n = (rng.standard_normal((R, 6)) + 1j * rng.standard_normal((R, 6))) / np.sqrt(2)
        r = n @ noise_map(log.plan.schedule, log.plan.slot_scale)[0].T
        emp = (r.conj().T @ r).real / R
        np.testing.assert_allclose(emp, systems.sigma[0], atol=0.1)


class TestDecode:
    def _toy(self, G, y=None, sigma=None):
        m = G.shape[0]
        y = np.asarray(y if y is not None else G @ np.ones(m), dtype=complex)
        sigma = sigma if sigma is not None else np.zeros((m, m))
        return LinearSystem(G=np.asarray(G, dtype=complex), y=y, sigma=sigma, T=m, M=m)

    def test_identity_system(self):
        res = decode(self._toy(np.eye(3), y=np.array([1, 2, 3])))
        assert res.success
        np.testing.assert_allclose(res.estimates, [1, 2, 3], rtol=1e-14)
        assert res.rank == 3

    def test_singular_system_fails_cleanly(self):
        G = np.array([[1.0, 2.0], [2.0, 4.0]])
        res = decode(self._toy(G))
        assert not res.success
        assert res.estimates.shape == (2,) and np.isnan(res.estimates).all()
        assert res.rank == 1 and not res.decoded

    def test_condition_threshold(self):
        ok = decode(self._toy(np.diag([1.0, 1e-6])))
        assert ok.success and ok.condition < CONDITION_LIMIT
        bad = decode(self._toy(np.diag([1.0, 1e-13])))
        assert not bad.success and bad.condition > CONDITION_LIMIT

    def test_noisy_decode_whitens(self):
        # tiny noise (variance 1e-12) on the right-hand sides of a run's systems, built by hand
        # from its noise maps: the GLS estimate must sit within a few standard deviations
        res = run_simulation(build_schedule(3, 3), seed=5)
        clean = res.systems
        B = noise_map(res.schedule, res.plan.slot_scale)
        n = 1e-6 * generate_noise(full_store(3, 3, B.shape[-1]), stream(7))
        noisy = dataclasses.replace(clean, y=clean.y + np.einsum("irt,it->ir", B, n),
                                    sigma=1e-12 * (B @ np.swapaxes(B, -1, -2)))
        d = decode(noisy)
        assert d.success and d.decoded.all()
        assert 0 < np.abs(d.estimates - res.truths).max() < 1e-4

    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (2, 4), (5, 4), (2, 3), (1, 4)])
    def test_noiseless_pipeline_exact(self, M, N):
        for seed in range(3):
            res = run_simulation(build_schedule(M, N), seed=seed)
            assert res.all_recovered()
            errs = res.relative_errors()
            assert np.nanmax(errs) <= 1e-8

    def test_estimate_ordering_copy_major(self):
        res = run_simulation(build_schedule(4, 3), seed=2)
        for i, est in enumerate(res.decoding.estimates):
            for c in range(2):
                for j in range(4):
                    assert abs(est[c * 4 + j] - res.messages[i, j, c]) < 1e-8


class TestStackedDecode:
    def _stack(self, G):
        G = np.asarray(G, dtype=complex)
        lead, m = G.shape[:-2], G.shape[-1]
        return LinearSystem(G=G, y=np.ones(lead + (m,), dtype=complex), sigma=np.zeros(G.shape), T=m, M=m)

    def test_all_failed_stack(self):
        res = decode(self._stack(np.zeros((2, 3, 4, 4))))
        assert res.success is False
        assert not res.decoded.any() and res.decoded.shape == (2, 3)
        assert res.estimates.shape == (2, 3, 4) and np.isnan(res.estimates).all()
        assert np.array_equal(res.rank, np.zeros((2, 3))) and np.isinf(res.condition).all()

    @pytest.mark.parametrize("m", [1, 2, 4, 7])
    def test_failed_rank_equals_matrix_rank(self, m):
        # a failed system's rank comes from the decode's own singular values, by
        # np.linalg.matrix_rank's default tolerance: zeroed, rank-1, rank-(m-1),
        # ill-conditioned but full rank, and one that decodes
        rng = np.random.default_rng(m)

        def normals(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        deficient = normals(m, m)
        deficient[-1] = deficient[0] * (1 + 2j) if m > 1 else 0
        stack = np.stack([np.zeros((m, m)), np.outer(normals(m), normals(m)), deficient,
                          np.diag([1.0] * (m - 1) + [1e-13]), normals(m, m), 1e-300 * normals(m, m)])
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                mock.patch.object(np.linalg, "matrix_rank", side_effect=AssertionError("second SVD")):
            res = decode(self._stack(stack))
        assert svd.call_count == 1
        want = [int(np.linalg.matrix_rank(G)) for G in stack]
        assert res.rank.tolist() == want and res.rank.dtype == np.array(m).dtype
        assert res.decoded.tolist() == [False, m == 1, False, m == 1, True, True]
        assert want[:2] == [0, 1]

    def test_single_system_is_a_row_of_the_stack(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        G[1, 4] = G[1, 0]  # singular
        stacked = decode(self._stack(G))
        assert stacked.success is False and stacked.decoded.tolist() == [True, False, True]
        for i in range(3):
            single = decode(self._stack(G[i]))
            assert type(single.success) is bool and single.success == stacked.decoded[i]
            for name in ("decoded", "rank", "condition"):
                got = getattr(single, name)
                assert type(got) is np.ndarray and got.shape == () and got == getattr(stacked, name)[i]
            assert single.estimates.shape == (5,)
            assert np.array_equal(single.estimates, stacked.estimates[i], equal_nan=True)
        assert np.isnan(stacked.estimates[1]).all()

    def test_decoded_is_read_from_condition(self):
        # a decode stores what it cannot derive: whether a system decoded is its condition
        # within CONDITION_LIMIT, read on demand, 0-d for one system
        assert [f.name for f in dataclasses.fields(DecodeResult)] == ["estimates", "rank", "condition"]
        condition = np.array([[1.0, CONDITION_LIMIT], [np.nextafter(CONDITION_LIMIT, np.inf), np.inf]])
        res = DecodeResult(np.zeros((2, 2, 1), dtype=complex), np.ones((2, 2), dtype=int), condition)
        assert res.decoded.tolist() == [[True, True], [False, False]] and res.success is False
        single = DecodeResult(np.zeros(1, dtype=complex), np.array(1), np.array(2.0))
        assert type(single.decoded) is np.ndarray and single.decoded.shape == () and single.success is True

    def test_run_decodes_its_stack_in_one_call(self):
        res = run_simulation(build_schedule(3, 3), seed=4, draws=range(2))
        assert res.decoding.estimates.shape == (2, 3, 3) and res.decoding.success is True
        for name in ("decoded", "rank", "condition"):
            assert getattr(res.decoding, name).shape == (2, 3)

    def test_empty_draw_range_rejected(self):
        # a run needs a draw: an empty range names itself instead of failing to unpack
        with pytest.raises(ValueError, match=r"^draws must hold at least one draw, got range\(4, 4\)$"):
            run_simulation(build_schedule(3, 3), seed=7, draws=range(4, 4))

    def test_seed_is_one_int(self):
        # a stack of draws is named only as a seed and a range of its draws, never as a list of seeds
        for seed in ([1, 2], (1,), np.array([3])):
            with pytest.raises(TypeError):
                run_simulation(build_schedule(3, 3), seed=seed)

    def test_truth_follows_the_flat_decode_order(self):
        res = run_simulation(build_schedule(3, 2), seed=1, draws=range(2))
        assert res.truths.shape == (4, 3)
        estimates = res.decoding.estimates.reshape(4, 3)
        for i, truth in enumerate(res.truths):
            draw, receiver = divmod(i, 2)
            np.testing.assert_array_equal(truth, res.messages[draw, receiver].T.reshape(-1))
            np.testing.assert_allclose(estimates[i], truth, rtol=1e-8)

    def test_relative_errors_computed_once(self):
        # one stacked norm pass over every system: two dot products (real and imaginary
        # parts), whatever the number of systems, and no per-row norm
        res = run_simulation(build_schedule(3, 3), seed=2, draws=range(2))
        with mock.patch.object(np, "vecdot", wraps=np.vecdot) as vecdot, \
                mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            errors = res.relative_errors()
            assert res.all_recovered()
            assert res.relative_errors() == errors
        assert vecdot.call_count == 2 and norm.call_count == 0

    @pytest.mark.parametrize("M,N,seeds", [(3, 3, range(2, 3)), (4, 3, range(2)), (8, 8, range(5, 6)),
                                           (16, 16, range(1, 2)), (2, 4, range(7, 9))])
    def test_relative_errors_equal_per_row_norms_bit_for_bit(self, M, N, seeds):
        # seeds: the draws of seed 0 the stacked run takes
        res = run_simulation(build_schedule(M, N), seed=0, draws=seeds, noise_enabled=True)
        estimates = res.decoding.estimates.reshape(res.truths.shape)
        want = [float(np.linalg.norm(e - t) / np.linalg.norm(t)) for e, t in zip(estimates, res.truths)]
        assert res.relative_errors() == want

    def test_noiseless_stack_sigma_is_zero(self):
        _, _, _, _, log = make_log(3, 4)
        systems = assemble_system(log)
        assert systems.sigma.shape == (4, 3, 3) and not systems.sigma.any()
        assert not systems.sigma.flags.writeable
        with pytest.raises(RuntimeError, match="noise covariance is singular"):
            sum_rate(systems, [20.0])

    def test_noisy_sigma_is_the_incidence_product_bit_for_bit(self):
        _, _, _, _, log = make_log(4, 3, noise_enabled=True)
        systems = assemble_system(log)
        B = noise_map(log.plan.schedule, log.plan.slot_scale)
        assert np.array_equal(systems.sigma, B @ np.swapaxes(B, -1, -2))


class TestPermutedSchedules:
    def test_permuted_schedule_still_decodes(self):
        base = build_schedule(3, 3)
        perm = permute_schedule(base, [2, 0, 1], [1, 2, 0])
        res = run_simulation(perm, seed=6)
        assert res.all_recovered()

    def test_permutation_matches_canonical_messages(self):
        base = build_schedule(4, 3)
        perm = permute_schedule(base, [3, 1, 2, 0, 5, 4], list(range(9))[::-1])
        a = run_simulation(base, seed=1)
        b = run_simulation(perm, seed=1)
        np.testing.assert_allclose(b.decoding.estimates, b.truths, rtol=1e-8)
        np.testing.assert_allclose(a.truths, b.truths, rtol=1e-12)


class TestIdentityEquality:
    def test_twins_compare_unequal_without_raising(self):
        # array-holding containers compare by identity: equal-seed twins are distinct objects
        a, b = (run_simulation(build_schedule(2, 2), seed=0) for _ in range(2))
        for x, y in [
            (a, b),
            (a.channels, b.channels),
            (a.plan, b.plan),
            (a.log, b.log),
            (a.systems, b.systems),
            (a.decoding, b.decoding),
        ]:
            assert (x == y) is False
            assert (x != y) is True
            assert (x == x) is True


class TestOneOwnerPerRunFact:
    def test_observe_all_reads_the_channels_the_plan_was_built_from(self):
        # the plan keeps its draw, so no caller can observe a plan through another seed's
        # channels (which decoded with success True and a relative error of 6.2)
        s = build_schedule(3, 3)
        a, b = (run_simulation(s, seed=seed) for seed in (0, 1))
        assert a.log.plan.channels is a.channels and a.channels is not b.channels
        assert list(inspect.signature(observe_all).parameters) == ["plan", "messages", "noise"]
        d = decode(assemble_system(observe_all(a.plan, a.messages)))
        assert d.success and d.estimates.tobytes() == a.decoding.estimates.tobytes()
        assert np.abs(d.estimates.reshape(a.truths.shape) - a.truths).max() <= 1e-8 * np.abs(a.truths).max()

    def test_log_and_result_read_the_rest_through_the_plan(self):
        assert [f.name for f in dataclasses.fields(ObservationLog)] == ["plan", "values", "noise"]
        assert [f.name for f in dataclasses.fields(SimulationResult)] == ["messages", "log", "systems", "decoding"]
        sim = run_simulation(build_schedule(4, 3), seed=0, draws=range(2), noise_enabled=True, normalize=True)
        assert sim.plan is sim.log.plan
        assert sim.channels is sim.plan.channels and sim.schedule is sim.plan.schedule
        for name in ("plan", "channels", "schedule"):
            with pytest.raises(AttributeError):
                setattr(sim, name, None)

    def test_plan_and_result_are_frozen(self):
        # reassigning a plan's draw would pair its coefficients with another draw again
        sim, other = (run_simulation(build_schedule(3, 3), seed=seed) for seed in (0, 1))
        for obj, name, value in ((sim.plan, "channels", other.channels),
                                 (sim.plan, "coefficients", other.plan.coefficients),
                                 (sim, "log", other.log), (sim, "messages", other.messages)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        plan = dataclasses.replace(sim.plan, coefficients=other.plan.coefficients)
        assert plan.channels is sim.channels and plan.coefficients is other.plan.coefficients
        result = dataclasses.replace(sim, messages=other.messages)
        assert result.log is sim.log and result.messages is other.messages


RUN_TABLES = {
    "plan.coefficients": lambda sim: sim.plan.coefficients,
    "plan.slot_scale": lambda sim: sim.plan.slot_scale,
    "plan.csit_reads": lambda sim: sim.plan.csit_reads,
    "plan.csit_violations": lambda sim: sim.plan.csit_violations,
    "log.values": lambda sim: sim.log.values,
    "systems.G": lambda sim: sim.systems.G,
    "systems.y": lambda sim: sim.systems.y,
    "systems.sigma": lambda sim: sim.systems.sigma,
    "truths": lambda sim: sim.truths,
}


class TestReadOnlyTables:
    @pytest.mark.parametrize("name", RUN_TABLES)
    @pytest.mark.parametrize("kwargs", [
        {"seed": 0},
        {"seed": 0, "draws": range(2), "noise_enabled": True, "normalize": True},
    ], ids=["noiseless", "noisy-stack"])
    def test_cannot_be_made_writable(self, name, kwargs):
        # numpy refuses write=True on a view of a read-only owner, so no caller can
        # change a run's tables after the fact
        table = RUN_TABLES[name](run_simulation(build_schedule(4, 3), **kwargs))  # k = 2: truths are a copy
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.setflags(write=True)
