"""Tests for schedule construction, balance invariants, and CSIT tables."""

import dataclasses
import json
from collections import Counter
from itertools import combinations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xchannel.analysis import DofReport
from xchannel.schedule import (
    ObservationKind as K,
    Schedule,
    SchemeCase,
    SchemeConstructionError,
    UnsupportedConfigurationError,
    _check_balance,
    _member_keys,
    build_csit_table,
    build_schedule,
    classify_case,
    count_csit_variants,
    format_csit_table,
    format_schedule,
    hamiltonian_cycles,
    one_factorization,
    permute_schedule,
    replication_factor,
)
from xchannel.simulate import run_simulation

GRID = [(M, N) for M in range(1, 9) for N in range(2, 9)]


class TestCaseClassification:
    @pytest.mark.parametrize(
        "M,N,case",
        [
            (3, 3, SchemeCase.M_GE_N_GENERAL),
            (4, 4, SchemeCase.M_GE_N_GENERAL),
            (5, 3, SchemeCase.M_GE_N_GENERAL),
            (3, 2, SchemeCase.M_GE_N_GENERAL),
            (4, 3, SchemeCase.M_GE_N_EVEN_M_ODD_N),
            (6, 5, SchemeCase.M_GE_N_EVEN_M_ODD_N),
            (2, 4, SchemeCase.N_GE_M_EVEN_N),
            (3, 6, SchemeCase.N_GE_M_EVEN_N),
            (1, 2, SchemeCase.N_GE_M_EVEN_N),
            (2, 3, SchemeCase.N_GE_M_ODD_N),
            (4, 5, SchemeCase.N_GE_M_ODD_N),
            (1, 3, SchemeCase.N_GE_M_ODD_N),
        ],
    )
    def test_golden(self, M, N, case):
        assert classify_case(M, N) == case

    def test_equal_dims_use_m_ge_n_branch(self):
        for n in range(2, 9):
            assert classify_case(n, n) in (
                SchemeCase.M_GE_N_GENERAL,
                SchemeCase.M_GE_N_EVEN_M_ODD_N,
            )

    @pytest.mark.parametrize(
        "M,N,k",
        [(3, 3, 1), (4, 3, 2), (2, 4, 1), (2, 3, 2), (6, 5, 2), (8, 8, 1)],
    )
    def test_replication_factor(self, M, N, k):
        assert replication_factor(classify_case(M, N)) == k


class TestGoldenSchedules:
    def test_3x3(self):
        s = build_schedule(3, 3)
        assert s.T == 6
        assert s.k == 1
        assert s.members[:3, 0].tolist() == [[0, 0], [1, 0], [2, 0]]  # slots 0-2
        assert s.members[3:].tolist() == [  # slots 3-5
            [[0, 0], [1, 0]],
            [[0, 0], [2, 0]],
            [[1, 0], [2, 0]],
        ]

    def test_2x2(self):
        s = build_schedule(2, 2)
        assert s.T == 3
        assert s.phase1_len == 2
        assert s.members[2:].tolist() == [[[0, 0], [1, 0]]]

    def test_4x3_alternates_copies(self):
        s = build_schedule(4, 3)
        assert (s.k, s.T) == (2, 15)
        assert DofReport(s).message_count == 24
        assert s.phase1_len == 6
        assert s.members[6:].tolist() == [  # slots 6-14
            [[0, 0], [1, 0]],
            [[0, 1], [2, 0]],
            [[1, 1], [2, 1]],
            [[0, 0], [1, 0]],
            [[0, 1], [2, 0]],
            [[1, 1], [2, 1]],
            [[0, 0], [1, 0]],
            [[0, 1], [2, 0]],
            [[1, 1], [2, 1]],
        ]

    def test_5x4_partial_round_stays_balanced(self):
        s = build_schedule(5, 4)
        pairs = s.members[s.phase1_len :, :, 0].tolist()
        # one full lexicographic sweep of C(4,2), then a perfect matching
        assert pairs == [
            [0, 1],
            [0, 2],
            [0, 3],
            [1, 2],
            [1, 3],
            [2, 3],
            [0, 3],
            [1, 2],
        ]

    def test_2x4_disjoint_rounds(self):
        s = build_schedule(2, 4)
        assert s.phase1_len == 4
        assert s.members[4:].tolist() == [  # slots 4-5
            [[0, 0], [1, 0]],
            [[2, 0], [3, 0]],
        ]

    def test_2x3_pairs_doubled_units(self):
        s = build_schedule(2, 3)
        assert (s.k, s.T) == (2, 9)
        assert s.phase1_len == 6
        assert s.members[6:].tolist() == [  # slots 6-8
            [[0, 0], [1, 0]],
            [[2, 0], [0, 1]],
            [[1, 1], [2, 1]],
        ]

    def test_phase1_copy_major_order(self):
        s = build_schedule(2, 3)
        assert s.members[:6, 0].tolist() == [  # slots 0-5
            [0, 0],
            [1, 0],
            [2, 0],
            [0, 1],
            [1, 1],
            [2, 1],
        ]
        assert s.phase1_slots.tolist() == [[0, 3], [1, 4], [2, 5]]


class TestBalanceInvariants:
    @pytest.mark.parametrize("M,N", GRID)
    def test_grid(self, M, N):
        s = build_schedule(M, N)
        k = replication_factor(classify_case(M, N))
        assert s.k == k
        assert 2 * s.T == k * N * (M + 1)
        assert s.members.shape == (s.T, 2, 2) and not s.members.flags.writeable
        first = s.phase1_len
        assert first == k * N
        pairs = s.members[first:]
        assert len(pairs) == k * N * (M - 1) // 2
        # every (receiver, copy) unit appears exactly M-1 times in phase 2
        counts = Counter(map(tuple, pairs.reshape(-1, 2).tolist()))
        if M > 1:
            assert set(counts) == {(i, c) for i in range(N) for c in range(k)}
            assert set(counts.values()) == {M - 1}
        else:
            assert not counts
        # pairs never put a receiver with itself
        assert (pairs[:, 0, 0] != pairs[:, 1, 0]).all()
        # phase 1 fills slots 0..kN-1, broadcasting each (receiver, copy) group once
        assert np.array_equal(s.members[:first, 0], s.members[:first, 1])
        assert sorted(s.phase1_slots.ravel().tolist()) == list(range(first))

    @pytest.mark.parametrize("M,N", [(2, 4), (3, 6), (5, 8), (2, 6)])
    def test_even_n_rounds_are_disjoint(self, M, N):
        s = build_schedule(M, N)
        per_round = N // 2
        pairs = s.members[s.phase1_len :]
        for start in range(0, len(pairs), per_round):
            seen = pairs[start : start + per_round, :, 0].ravel().tolist()
            assert sorted(seen) == list(range(N))

    @pytest.mark.parametrize("M,N", [(2, 3), (4, 5), (6, 7)])
    def test_odd_n_rounds_cover_every_unit_once(self, M, N):
        s = build_schedule(M, N)
        per_round = N
        pairs = s.members[s.phase1_len :]
        for start in range(0, len(pairs), per_round):
            seen = sorted(map(tuple, pairs[start : start + per_round].reshape(-1, 2).tolist()))
            assert seen == sorted((i, c) for i in range(N) for c in range(2))

    @pytest.mark.parametrize(
        "M,N,pairs,message",
        [
            (2, 3, [], "phase-2 slot count k*N*(M-1)/2 is fractional for M=2 N=3 k=1"),
            (3, 3, [[0, 1], [0, 2]], "phase 2 has 2 slots, expected 3"),
            (3, 3, [[0, 0], [1, 2], [1, 2]], "pair slot reuses receiver 0"),
            (3, 3, [[0, 1], [0, 1], [1, 2]],
             "receiver 1 copy 0 appears in 3 pair slots, expected 2"),
        ],
    )
    def test_broken_pair_table_rejected(self, M, N, pairs, message):
        table = np.zeros((len(pairs), 2, 2), dtype=np.intp)  # copy 0 throughout
        table[..., 0] = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        with pytest.raises(SchemeConstructionError) as exc:
            _check_balance(M, N, 1, table[..., 0], _member_keys(N, 1, table))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "make",
        [
            lambda s, members: Schedule(M=s.M, N=s.N, k=s.k, members=members),
            lambda s, members: dataclasses.replace(s, members=members),
        ],
        ids=["Schedule", "replace"],
    )
    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([[0, 0], [1, 2], [1, 2]], "pair slot reuses receiver 0"),  # self-paired, yet balanced
            ([[0, 1], [0, 1], [1, 2]], "receiver 1 copy 0 appears in 3 pair slots, expected 2"),
            ([[0, 1], [0, 2]], "phase 2 has 2 slots, expected 3"),  # a pair slot missing
        ],
        ids=["self-paired", "unbalanced", "missing-pair-slot"],
    )
    def test_construction_checks_balance(self, make, pairs, message):
        s = build_schedule(3, 3)
        table = np.zeros((len(pairs), 2, 2), dtype=np.intp)  # copy 0 throughout
        table[..., 0] = pairs
        with pytest.raises(SchemeConstructionError) as exc:
            make(s, np.concatenate([s.members[: s.phase1_len], table]))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "make",
        [
            lambda s, members: Schedule(M=s.M, N=s.N, k=s.k, members=members),
            lambda s, members: dataclasses.replace(s, members=members),
        ],
        ids=["Schedule", "replace"],
    )
    @pytest.mark.parametrize(
        "M,N,slot,group,message",
        [
            # slot 2 broadcasts group (1, 0) again, so group (2, 0) is never broadcast
            (3, 3, 2, [[1, 0], [1, 0]], "receiver 1 copy 0 is broadcast in 2 phase-1 slots, expected 1"),
            (3, 3, 0, [[0, 0], [1, 0]], "phase-1 slot 0 lists two groups, expected one group twice"),
            (4, 3, 5, [[2, 0], [2, 0]], "receiver 2 copy 0 is broadcast in 2 phase-1 slots, expected 1"),
            (4, 3, 1, [[1, 1], [1, 0]], "phase-1 slot 1 lists two groups, expected one group twice"),
            (3, 3, 1, [[3, 0], [3, 0]], "members must hold receivers 0..2 and copies 0..0"),
            (3, 3, 1, [[-1, 0], [-1, 0]], "members must hold receivers 0..2 and copies 0..0"),
            # (3, 0) would alias group (0, 1) in a key c*N + i
            (4, 3, 3, [[3, 0], [3, 0]], "members must hold receivers 0..2 and copies 0..1"),
            (4, 3, 0, [[0, 2], [0, 2]], "members must hold receivers 0..2 and copies 0..1"),
            (3, 3, 4, [[1, 0], [0, 1]], "members must hold receivers 0..2 and copies 0..0"),  # a pair slot
        ],
        ids=["repeated-group", "two-groups", "repeated-copy", "two-copies", "receiver-too-large",
             "negative-receiver", "aliasing-receiver", "copy-too-large", "pair-copy-too-large"],
    )
    def test_construction_checks_groups(self, make, M, N, slot, group, message):
        s = build_schedule(M, N)
        members = s.members.copy()
        members[slot] = group
        with pytest.raises(SchemeConstructionError) as exc:
            make(s, members)
        assert str(exc.value) == message

    def test_n_below_two_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            build_schedule(3, 1)

    @pytest.mark.parametrize("M,N", [(0, 3), (-2, 4)])
    def test_bad_m_rejected(self, M, N):
        with pytest.raises(ValueError):
            build_schedule(M, N)


def loop_decode_rows(s, channels) -> list:
    """Plain-loop reference, from members alone, for the rows of each receiver's decoding system
    G (noiseless, unit slot scale): per copy, the channel row h_i(t_c) at the copy's phase-1
    slot t_c first, then one row h_i(t) h_b(t_c) / h_b(t) per pair slot t of the copy, in slot
    order, b its partner; each row sits in its copy's block of M columns, zeros elsewhere."""
    M, k, first = s.M, s.k, s.phase1_len
    members = s.members.tolist()
    h, column = channels.h.tolist(), channels.columns.tolist()
    t1 = {tuple(members[t][0]): t for t in range(first)}  # (receiver, copy) -> its phase-1 slot

    def row(i, t):
        return [h[i][j][column[i][t]] for j in range(M)]

    rows = [[[row(i, t1[i, c])] for c in range(k)] for i in range(s.N)]
    for t, pair in enumerate(members[first:], first):
        for (a, ca), (b, _) in (pair, pair[::-1]):
            own, cross, replay = row(a, t), row(b, t), row(b, t1[a, ca])
            rows[a][ca].append([own[j] * replay[j] / cross[j] for j in range(M)])
    return [[[0j] * (M * c) + r + [0j] * (M * (k - 1 - c)) for c in range(k) for r in per_receiver[c]]
            for per_receiver in rows]


class TestDecodeRows:
    @pytest.mark.parametrize("M", range(1, 13))
    def test_matches_plain_loop(self, M):
        # assemble_system's rows against the plain-loop rows, on canonical schedules and 3
        # random permutations of each, N = 2..12; M = 1 has no pair rows
        rng = np.random.default_rng(M)
        for N in range(2, 13):
            base = build_schedule(M, N)
            first = base.phase1_len
            permuted = [
                permute_schedule(base, rng.permutation(first), rng.permutation(base.T - first))
                for _ in range(3)
            ]
            for s in [base, *permuted]:
                sim = run_simulation(s, seed=M)
                G = sim.systems.G
                assert G.shape == (N, s.k * M, s.k * M)
                np.testing.assert_allclose(G, loop_decode_rows(s, sim.channels), rtol=1e-12, atol=0,
                                           err_msg=str((M, N)))


def loop_tables(s) -> dict:
    """Plain-loop references, from members alone, for the (N, T) tables, the pair reads and the
    pair rows: each phase-1 slot serves its group's receiver and stores interference at everyone
    else; each pair slot serves its two members and everyone else discards it."""
    first, T, N = s.phase1_len, s.T, s.N
    members = [[tuple(m) for m in slot] for slot in s.members.tolist()]
    t1 = {members[t][0]: t for t in range(first)}  # (receiver, copy) -> its phase-1 slot
    used = [[False] * T for _ in range(N)]
    entries = [[int(K.DISCARDED)] * T for _ in range(N)]
    states = [["N"] * T for _ in range(N)]
    for t in range(first):
        for i in range(N):
            served = i == members[t][0][0]
            used[i][t] = True
            entries[i][t] = int(K.DESIRED_PHASE1 if served else K.INTERFERENCE_PHASE1)
            states[i][t] = "N" if served else "D"
    reads = []
    rows = [[[] for _ in range(s.k)] for _ in range(N)]  # per (receiver, copy), in slot order
    for t in range(first, T):
        (a, ca), (b, cb) = members[t]
        for i in (a, b):
            used[i][t], entries[i][t], states[i][t] = True, int(K.COMBINED_PHASE2), "P"
        reads += [[b, t, t], [a, t, t], [b, t1[a, ca], t], [a, t1[b, cb], t]]
        rows[a][ca].append((t, b, t1[b, cb], t1[a, ca]))
        rows[b][cb].append((t, a, t1[a, ca], t1[b, cb]))
    pair_rows = [[[row[f] for per in rows[i] for row in per] for i in range(N)] for f in range(4)]
    return {"used": used, "entries": entries, "states": tuple("".join(r) for r in states),
            "pair_reads": reads, "pair_rows": pair_rows}


class TestScheduleTables:
    @pytest.mark.parametrize("M", range(1, 13))
    def test_match_plain_loops(self, M):
        # canonical schedules and 3 random permutations of each, N = 2..12
        rng = np.random.default_rng(100 + M)
        for N in range(2, 13):
            base = build_schedule(M, N)
            first = base.phase1_len
            permuted = [
                permute_schedule(base, rng.permutation(first), rng.permutation(base.T - first))
                for _ in range(3)
            ]
            for s in [base, *permuted]:
                want = loop_tables(s)
                k, T, P = s.k, s.T, s.T - first
                for name, shape, dtype in [("used", (N, T), bool), ("entries", (N, T), np.int8),
                                           ("pair_reads", (4 * P, 3), np.intp),
                                           ("pair_rows", (4, N, k * (M - 1)), np.intp)]:
                    table = getattr(s, name)
                    assert table.shape == shape and table.dtype == dtype, (name, M, N)
                    assert not table.flags.writeable
                    assert table.tolist() == want[name], (name, M, N)
                assert s.csit.grid.dtype == np.uint8 and s.csit.states == want["states"], (M, N)


class TestPairingHelpers:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_one_factorization(self, n):
        rounds = one_factorization(n)
        assert len(rounds) == n - 1
        all_pairs = set()
        for matching in rounds:
            flat = [v for pair in matching for v in pair]
            assert sorted(flat) == list(range(n))
            for a, b in matching:
                all_pairs.add(frozenset((a, b)))
        assert all_pairs == {frozenset(c) for c in combinations(range(n), 2)}

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_hamiltonian_cycles(self, n):
        cycles = hamiltonian_cycles(n)
        assert len(cycles) == (n - 1) // 2
        all_edges = set()
        for cycle in cycles:
            assert len(cycle) == n
            visits = Counter(v for edge in cycle for v in edge)
            assert set(visits.values()) == {2}
            for a, b in cycle:
                edge = frozenset((a, b))
                assert edge not in all_edges
                all_edges.add(edge)
        assert all_edges == {frozenset(c) for c in combinations(range(n), 2)}


class TestCsitTable:
    def test_3x3_golden(self):
        s = build_schedule(3, 3)
        table = build_csit_table(s)
        assert table.states == ("NDDPPN", "DNDPNP", "DDNNPP")

    @pytest.mark.parametrize("M,N", GRID)
    def test_state_counts(self, M, N):
        s = build_schedule(M, N)
        table = build_csit_table(s)
        k = s.k
        assert len(table.states) == N
        for row in table.states:
            assert row.count("P") == k * (M - 1)
            assert row.count("D") == k * (N - 1)
            assert row.count("N") == s.T - row.count("P") - row.count("D")

    def test_schedule_owns_its_table(self):
        s = build_schedule(4, 3)
        assert s.csit is s.csit  # built once per schedule
        assert np.array_equal(s.csit.grid, build_csit_table(s).grid)
        t = permute_schedule(s, [5, 4, 3, 2, 1, 0], list(range(s.T - s.phase1_len)))
        assert t.csit is not s.csit
        assert np.array_equal(t.csit.grid, build_csit_table(t).grid)
        assert not np.array_equal(t.csit.grid, s.csit.grid)

    def test_views_read_the_grid(self):
        s = build_schedule(4, 3)
        table = build_csit_table(s)
        assert table.grid.dtype == np.uint8 and not table.grid.flags.writeable
        assert np.array_equal(np.array([list(row.encode()) for row in table.states]), table.grid)
        cells = [[chr(table.grid[i, t]) for t in range(s.T)] for i in range(s.N)]
        assert cells == [list(row) for row in table.states]

    def test_phase1_columns_have_one_n_state(self):
        s = build_schedule(3, 4)
        table = build_csit_table(s)
        for slot, ((receiver, _), _) in enumerate(s.members[: s.phase1_len].tolist()):
            col = [table.states[i][slot] for i in range(s.N)]
            assert col.count("N") == 1
            assert col.count("D") == s.N - 1
            assert table.states[receiver][slot] == "N"

    def test_phase2_columns_mark_pair_members(self):
        s = build_schedule(4, 3)
        table = build_csit_table(s)
        for slot in range(s.phase1_len, s.T):
            members = set(s.members[slot, :, 0].tolist())
            for i in range(s.N):
                want = "P" if i in members else "N"
                assert table.states[i][slot] == want


TABLES = {
    "members": lambda s: s.members,
    "phase1_slots": lambda s: s.phase1_slots,
    "pair_rows": lambda s: s.pair_rows,
    "used": lambda s: s.used,
    "entries": lambda s: s.entries,
    "pair_reads": lambda s: s.pair_reads,
    "csit.grid": lambda s: s.csit.grid,
    "stored.slots": lambda s: s.stored[0],
    "stored.columns": lambda s: s.stored[1],
}


class TestSharedSchedule:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        build_schedule.cache_clear()
        yield
        build_schedule.cache_clear()

    def test_one_object_per_shape(self):
        s = build_schedule(3, 3)
        assert build_schedule(M=3, N=3) is s and build_schedule(3, N=3) is s
        assert build_schedule(3, 4) is not s
        build_schedule.cache_clear()
        t = build_schedule(3, 3)
        assert t is not s and np.array_equal(t.members, s.members)

    def test_permuted_and_replaced_schedules_are_new(self):
        s = build_schedule(3, 3)
        identity = list(range(3))
        for t in (permute_schedule(s, identity, identity), dataclasses.replace(s)):
            assert t is not s and np.array_equal(t.members, s.members)
            assert t.members is not s.members and t.csit is not s.csit
        assert build_schedule(3, 3) is s
        members = s.members.copy()
        members[3:, :, 0] = [[0, 1], [0, 1], [1, 2]]
        with pytest.raises(SchemeConstructionError) as exc:
            dataclasses.replace(s, members=members)
        assert str(exc.value) == "receiver 1 copy 0 appears in 3 pair slots, expected 2"
        assert build_schedule(3, 3) is s

    @pytest.mark.parametrize("name", TABLES)
    @pytest.mark.parametrize("make", [
        lambda: build_schedule(4, 3),
        lambda: permute_schedule(build_schedule(4, 3), range(5, -1, -1), range(9)),
        # members a writable view of another array: the schedule keeps a copy
        lambda: dataclasses.replace(build_schedule(4, 3), members=build_schedule(4, 3).members.copy()[:]),
    ], ids=["built", "permuted", "made-from-a-view"])
    def test_tables_cannot_be_made_writable(self, make, name):
        table = TABLES[name](make())
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            table.setflags(write=True)

    def test_members_do_not_alias_a_writable_array(self):
        s = build_schedule(3, 3)
        owner = s.members.copy()
        t = dataclasses.replace(s, members=owner[:])  # a view of a writable array
        owner[0] = [[1, 0], [1, 0]]
        assert np.array_equal(t.members, s.members)


class TestDerivedCase:
    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (2, 4), (2, 3), (5, 4), (1, 2)])
    def test_case_is_the_classified_regime(self, M, N):
        # canonical, permuted and hand-made tables: the case is classify_case(M, N), read
        # by the schedule's JSON and its DoF report alike
        base = build_schedule(M, N)
        rng = np.random.default_rng(M * N)
        permuted = permute_schedule(base, rng.permutation(base.phase1_len),
                                    rng.permutation(base.T - base.phase1_len))
        hand = Schedule(M=M, N=N, k=base.k, members=base.members.copy())
        for s in (base, permuted, hand):
            assert s.case is classify_case(M, N)
            assert DofReport(s).to_dict()["case"] == s.to_dict()["case"] == classify_case(M, N).value

    def test_case_cannot_be_given(self):
        # a 3x3 table once carried N_GE_M_ODD_N, which DofReport.to_dict printed
        members = build_schedule(3, 3).members
        with pytest.raises(TypeError):
            Schedule(M=3, N=3, case=SchemeCase.N_GE_M_ODD_N, k=1, members=members)
        hand = Schedule(M=3, N=3, k=1, members=members)
        assert hand.case is SchemeCase.M_GE_N_GENERAL
        assert DofReport(hand).to_dict()["case"] == "M_GE_N_GENERAL"
        assert [f.name for f in dataclasses.fields(Schedule)] == ["M", "N", "k", "members"]
        with pytest.raises(AttributeError):
            hand.case = SchemeCase.N_GE_M_ODD_N


class TestPermutations:
    def test_identity(self):
        s = build_schedule(3, 3)
        t = permute_schedule(s, list(range(3)), list(range(3)))
        assert np.array_equal(t.members, s.members)
        assert (t.M, t.N, t.case, t.k) == (s.M, s.N, s.case, s.k)

    def test_swap_golden(self):
        s = build_schedule(3, 3)
        t = permute_schedule(s, [0, 1, 2], [1, 0, 2])
        assert t.phase1_len == 3
        assert t.members[3:].tolist() == [  # slots 3-5
            [[0, 0], [2, 0]],
            [[0, 0], [1, 0]],
            [[1, 0], [2, 0]],
        ]

    def test_phase1_permutation_reorders_broadcasts(self):
        s = build_schedule(3, 3)
        t = permute_schedule(s, [2, 0, 1], [0, 1, 2])
        assert t.members[:3, 0, 0].tolist() == [2, 0, 1]

    @pytest.mark.parametrize(
        "p1,p2",
        [([0, 0, 1], [0, 1, 2]), ([0, 1, 2], [0, 1]), ([0, 1, 3], [0, 1, 2])],
    )
    def test_invalid_permutations(self, p1, p2):
        s = build_schedule(3, 3)
        with pytest.raises(ValueError):
            permute_schedule(s, p1, p2)

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_random_permutation_preserves_balance(self, data):
        s = build_schedule(4, 3)
        first = s.phase1_len
        p1 = data.draw(st.permutations(list(range(first))))
        p2 = data.draw(st.permutations(list(range(s.T - first))))
        t = permute_schedule(s, list(p1), list(p2))
        assert t.T == s.T

        def units(members):
            return Counter(map(tuple, members.reshape(-1, 2).tolist()))

        assert units(t.members[first:]) == units(s.members[first:])
        assert units(t.members[:first, 0]) == units(s.members[:first, 0])

    @pytest.mark.parametrize(
        "M,N,count",
        [(3, 3, 36), (2, 2, 2), (1, 2, 2), (4, 3, factorial(6) * factorial(9))],
    )
    def test_variant_count(self, M, N, count):
        assert count_csit_variants(M, N) == count

    def test_variant_count_matches_phase_lengths(self):
        for M, N in [(3, 3), (4, 3), (2, 4), (5, 4)]:
            s = build_schedule(M, N)
            want = factorial(s.phase1_len) * factorial(s.T - s.phase1_len)
            assert count_csit_variants(M, N) == want


GOLDEN_3X3 = {
    "M": 3, "N": 3, "case": "M_GE_N_GENERAL", "k": 1, "T": 6,
    "phase1": [
        {"slot": 0, "receiver": 0, "copy": 0},
        {"slot": 1, "receiver": 1, "copy": 0},
        {"slot": 2, "receiver": 2, "copy": 0},
    ],
    "phase2": [
        {"slot": 3, "pair": [{"receiver": 0, "copy": 0}, {"receiver": 1, "copy": 0}]},
        {"slot": 4, "pair": [{"receiver": 0, "copy": 0}, {"receiver": 2, "copy": 0}]},
        {"slot": 5, "pair": [{"receiver": 1, "copy": 0}, {"receiver": 2, "copy": 0}]},
    ],
}


class TestSerialization:
    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (2, 4), (2, 3), (5, 4)])
    def test_schedule_round_trip(self, M, N):
        # the JSON lists every slot of `members` once, in slot order
        s = build_schedule(M, N)
        d = json.loads(json.dumps(s.to_dict()))
        if (M, N) == (3, 3):
            assert d == GOLDEN_3X3
        assert [e["slot"] for e in d["phase1"] + d["phase2"]] == list(range(s.T))
        members = [[(e["receiver"], e["copy"])] * 2 for e in d["phase1"]]
        members += [[(m["receiver"], m["copy"]) for m in e["pair"]] for e in d["phase2"]]
        assert np.array_equal(np.array(members), s.members)
        assert (d["M"], d["N"], d["case"], d["k"], d["T"]) == (M, N, s.case.value, s.k, s.T)

    def test_csit_round_trip(self):
        table = build_csit_table(build_schedule(3, 3))
        d = json.loads(json.dumps(table.to_dict()))
        assert d == {"states": [list("NDDPPN"), list("DNDPNP"), list("DDNNPP")]}

    def test_format_schedule_labels(self):
        text = format_schedule(build_schedule(3, 3))
        assert "Phase 1" in text and "Phase 2" in text
        assert "W1,W2" in text
        # copy superscripts only appear when messages are doubled
        doubled = format_schedule(build_schedule(4, 3))
        assert "W1^1" in doubled and "W3^2" in doubled

    def test_format_csit_table_golden_rows(self):
        s = build_schedule(3, 3)
        text = format_csit_table(s)
        assert text.splitlines()[0] == "M=3 N=3 case=M_GE_N_GENERAL k=1 T=6"
        lines = [ln for ln in text.splitlines() if ln.lstrip().startswith("R")]
        joined = ["".join(ch for ch in ln if ch in "PDN") for ln in lines]
        assert joined == ["NDDPPN", "DNDPNP", "DDNNPP"]
