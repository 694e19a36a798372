"""Tests for CSIT access control and the two-phase precoder."""

import dataclasses
import inspect

import numpy as np
import pytest

from xchannel.channel import ChannelRealization, generate_channels, generate_messages, run_streams
from xchannel.schedule import CsitTable, build_csit_table, build_schedule, permute_schedule
from xchannel.transmit import (
    CsitAccessError,
    audit_csit_trace,
    build_transmit_plan,
)

from helpers import full_store, realization, stream


def make_instance(M, N, seed=0, normalize=False):
    # h: channels on all T slots from stream 0 of seed's key, so h[i, :, t] is receiver i's
    # row in slot t; the plan's draw stores the cells of h the schedule uses. Messages come
    # from stream 0 of seed + 1's key.
    s = build_schedule(M, N)
    table = build_csit_table(s)
    h = generate_channels(full_store(M, N, s.T), stream(seed)).h
    ms = generate_messages(s, stream(seed + 1))
    plan = build_transmit_plan(realization(s, h), table, normalize=normalize)
    return s, table, h, ms, plan


class TestPhase1:
    def test_signal_is_message_row(self):
        s, _, _, ms, plan = make_instance(3, 3)
        X = plan.signal_matrix(ms)
        for t, ((i, c), _) in enumerate(s.members[: s.phase1_len].tolist()):
            np.testing.assert_array_equal(X[:, t], ms[i, :, c])

    def test_copy_selects_column(self):
        s, _, _, ms, plan = make_instance(4, 3)
        t = 4  # second copy of receiver 1's broadcast
        assert s.members[t, 0].tolist() == [1, 1] and s.phase1_slots[1, 1] == t
        np.testing.assert_array_equal(plan.signal_matrix(ms)[:, t], ms[1, :, 1])


class TestPhase2Coefficients:
    def test_3x3_hand_formula(self):
        # pair ((0,0),(1,0)) at slot 3: member 0 broadcast at slot 0, member 1 at 1
        s, _, h, ms, plan = make_instance(3, 3)
        assert s.members[3].tolist() == [[0, 0], [1, 0]]
        for j in range(3):
            assert abs(plan.coefficients[3, 0, j] - h[1, j, 0] / h[1, j, 3]) < 1e-14
            assert abs(plan.coefficients[3, 1, j] - h[0, j, 1] / h[0, j, 3]) < 1e-14

    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (5, 4), (2, 3), (2, 4)])
    def test_general_formula(self, M, N):
        # coefficient on member (a, ca) is h[b,j,t_a] / h[b,j,t], recomputed
        # here straight from the channel tensor
        s, _, h, ms, plan = make_instance(M, N, seed=3)
        for t, ((a, ca), (b, cb)) in enumerate(s.members[s.phase1_len :].tolist(), s.phase1_len):
            t_a = s.phase1_slots[a, ca]
            t_b = s.phase1_slots[b, cb]
            assert s.members[t].tolist() == [[a, ca], [b, cb]]
            for j in range(M):
                coef_a, coef_b = plan.coefficients[t, :, j]
                np.testing.assert_allclose(coef_a, h[b, j, t_a] / h[b, j, t], rtol=1e-12)
                np.testing.assert_allclose(coef_b, h[a, j, t_b] / h[a, j, t], rtol=1e-12)

    def test_unit_channel_sends_message_sum(self):
        s = build_schedule(3, 3)
        table = build_csit_table(s)
        h = np.ones((3, 3, s.T), dtype=complex)
        h.setflags(write=False)
        ms = generate_messages(s, stream(1))
        plan = build_transmit_plan(realization(s, h), table)
        X = plan.signal_matrix(ms)
        for t, ((a, ca), (b, cb)) in enumerate(s.members[s.phase1_len :].tolist(), s.phase1_len):
            np.testing.assert_allclose(X[:, t], ms[a, :, ca] + ms[b, :, cb], rtol=1e-14)

    def test_matrix_matches_slot_functions(self):
        # every column of the signal matrix equals its slot's transmit vector,
        # summed here term by term in plain loops
        s, _, h, ms, plan = make_instance(4, 3, seed=7)
        X = plan.signal_matrix(ms)
        first, members = s.phase1_len, s.members.tolist()
        for t, ((i, c), _) in enumerate(members[:first]):
            np.testing.assert_allclose(X[:, t], ms[i, :, c], rtol=1e-14)
        for t, ((a, ca), (b, cb)) in enumerate(members[first:], first):
            t_a, t_b = s.phase1_slots[a, ca], s.phase1_slots[b, cb]
            for j in range(s.M):
                want = (h[b, j, t_a] / h[b, j, t] * ms[a, j, ca]
                        + h[a, j, t_b] / h[a, j, t] * ms[b, j, cb])
                np.testing.assert_allclose(X[j, t], want, rtol=1e-12)


class TestCsitAccessControl:
    def test_plan_is_violation_free(self):
        for M, N in [(3, 3), (4, 3), (2, 4), (5, 4), (2, 3)]:
            _, table, _, _, plan = make_instance(M, N)
            assert plan.csit_violations.shape == (0, 3)
            assert audit_csit_trace(plan.csit_reads, table).shape == (0, 3)

    def test_reads_satisfy_access_rule(self):
        # every granted read is either perfect-now or delayed-strictly-earlier
        _, table, _, _, plan = make_instance(4, 3)
        for receiver, slot, at_slot in plan.csit_reads.tolist():
            state = table.states[receiver][slot]
            assert (slot == at_slot and state == "P") or (
                slot < at_slot and state == "D"
            )

    def test_read_count_is_four_per_pair_slot(self):
        s, _, _, _, plan = make_instance(5, 4)
        assert len(plan.csit_reads) == 4 * (s.T - s.phase1_len)

    def test_golden_trace_slot3(self):
        s, _, _, _, plan = make_instance(3, 3)
        reads = {(receiver, slot) for receiver, slot, at_slot in plan.csit_reads.tolist() if at_slot == 3}
        assert reads == {(0, 3), (1, 3), (1, 0), (0, 1)}

    @staticmethod
    def tampered(table, cells, state):
        """table with every (receiver, slot) cell of cells set to state."""
        grid = table.grid.copy()
        for receiver, slot in cells:
            grid[receiver, slot] = ord(state)
        return CsitTable(grid)

    def test_no_csit_state_denied(self):
        s, table, _, _, plan = make_instance(3, 3)
        assert table.states[2][3] == "N"  # row 3 of receiver 3 is hidden in slot 4
        assert audit_csit_trace([(2, 3, 3)], table).tolist() == [[2, 3, 3]]
        with pytest.raises(CsitAccessError) as exc:  # the plan's h_b(t) read of slot 4
            build_transmit_plan(plan.channels, self.tampered(table, [(1, 3)], "N"))
        assert (exc.value.receiver, exc.value.slot, exc.value.at_slot, exc.value.state) == (1, 3, 3, "N")

    def test_denied_read_message_names_the_cell_and_its_state(self):
        s, table, _, _, plan = make_instance(3, 3)
        with pytest.raises(CsitAccessError) as exc:
            build_transmit_plan(plan.channels, self.tampered(table, [(1, 3)], "N"))
        assert str(exc.value) == "illegal CSIT read of receiver 1 slot 3 at slot 3 (state 'N')"

    def test_delayed_state_denied_at_its_own_slot(self):
        s, table, _, _, plan = make_instance(3, 3)
        # delayed rows only become readable later
        assert audit_csit_trace([(1, 0, 0)], table).tolist() == [[1, 0, 0]]
        with pytest.raises(CsitAccessError) as exc:
            build_transmit_plan(plan.channels, self.tampered(table, [(1, 3)], "D"))
        assert (exc.value.receiver, exc.value.slot, exc.value.at_slot, exc.value.state) == (1, 3, 3, "D")

    def test_perfect_state_denied_after_its_slot(self):
        s, table, _, _, plan = make_instance(3, 3)
        # perfect knowledge does not persist
        assert audit_csit_trace([(0, 3, 4)], table).tolist() == [[0, 3, 4]]
        with pytest.raises(CsitAccessError) as exc:  # slot 4's h_b(t_a) read, made perfect
            build_transmit_plan(plan.channels, self.tampered(table, [(1, 0)], "P"))
        assert (exc.value.receiver, exc.value.slot, exc.value.at_slot, exc.value.state) == (1, 0, 3, "P")

    def test_delayed_read_granted_later(self):
        _, table, h, _, plan = make_instance(3, 3)
        assert audit_csit_trace([(1, 0, 4), (0, 4, 4)], table).shape == (0, 3)
        reads = plan.csit_reads.tolist()
        assert [1, 0, 3] in reads and table.states[1][0] == "D"  # slot 4 reads h_2(1) delayed
        rows = plan.channels.rows(plan.csit_reads[:, 0], plan.csit_reads[:, 1])
        np.testing.assert_array_equal(rows[reads.index([1, 0, 3])], h[1, :, 0])

    def test_denied_read_stops_the_gather(self, monkeypatch):
        # the audit runs before any channel row is gathered
        s, table, _, _, plan = make_instance(3, 3)
        assert audit_csit_trace([(1, 0, 4), (0, 3, 4), (0, 4, 4)], table).tolist() == [[0, 3, 4]]
        gathered = []
        monkeypatch.setattr(ChannelRealization, "rows", lambda *args: gathered.append(args))
        with pytest.raises(CsitAccessError):
            build_transmit_plan(plan.channels, self.tampered(table, [(0, 3)], "N"))
        assert gathered == []

    def test_plan_raises_at_first_denied_pair_read(self):
        # flip one pair-slot "P" cell to "N", and a later one too: the plan must
        # raise for the first denied read
        s, table, _, _, plan = make_instance(4, 3)
        reads = s.pair_reads.tolist()
        at = 4 * (len(reads) // 8) + 1  # h_a(t) of a middle pair slot
        receiver, slot, at_slot = reads[at]
        assert slot == at_slot and table.states[receiver][slot] == "P"
        later = reads[-4][:2]
        assert later[1] > slot and table.states[later[0]][later[1]] == "P"
        broken = self.tampered(table, [(receiver, slot), later], "N")
        with pytest.raises(CsitAccessError) as exc:
            build_transmit_plan(plan.channels, broken)
        assert (exc.value.receiver, exc.value.slot, exc.value.at_slot) == (receiver, slot, at_slot)
        assert exc.value.state == "N"
        assert audit_csit_trace(s.pair_reads, broken)[0].tolist() == [receiver, slot, at_slot]

    def test_trace_is_read_only_rows_of_pair_reads(self):
        s, _, _, _, plan = make_instance(4, 3)
        rows = plan.csit_reads
        assert rows.shape == (len(s.pair_reads), 3) and rows.dtype == np.intp
        assert np.array_equal(rows, s.pair_reads) and not rows.flags.writeable
        assert not plan.csit_violations.flags.writeable

    def test_audit_flags_fabricated_read(self):
        _, table, _, _, plan = make_instance(3, 3)
        fake = [0, 5, 3]  # receiver 0's slot-5 row, read at slot 3
        bad = audit_csit_trace(np.vstack([plan.csit_reads, [fake]]), table)
        assert bad.tolist() == [fake]

    def test_audit_returns_exactly_the_denied_rows(self):
        _, table, _, _, plan = make_instance(4, 3)
        clean = audit_csit_trace(plan.csit_reads, table)
        assert clean.shape == (0, 3) and clean.dtype == np.intp
        reads = plan.csit_reads.tolist()
        cells = {tuple(reads[1][:2]), tuple(reads[-2][:2])}  # a "P" cell and a "D" cell
        grid = table.grid.copy()
        for receiver, slot in cells:
            grid[receiver, slot] = ord("N")
        denied = [r for r in reads if tuple(r[:2]) in cells]  # a "D" cell may be read more than once
        assert len(denied) >= 2
        bad = audit_csit_trace(plan.csit_reads, CsitTable(grid))
        assert bad.shape == (len(denied), 3) and bad.dtype == np.intp and not bad.flags.writeable
        assert bad.tolist() == denied


class TestAlignment:
    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (2, 4), (5, 4)])
    def test_interference_replays_stored_observation(self, M, N):
        # at pair slot t the partner's contribution seen by member b equals
        # the slot-scale times what b overheard when the partner broadcast
        s, _, h, ms, plan = make_instance(M, N, seed=11, normalize=True)
        for t, pair in enumerate(s.members[s.phase1_len :].tolist(), s.phase1_len):
            g = plan.slot_scale[t]
            for m, ((a, ca), (b, cb)) in enumerate((pair, pair[::-1])):
                t_a = s.phase1_slots[a, ca]
                seen = 0.0 + 0.0j
                for j in range(M):
                    seen += h[b, j, t] * plan.coefficients[t, m, j] * ms[a, j, ca]
                stored = sum(h[b, j, t_a] * ms[a, j, ca] for j in range(M))
                assert abs(seen - g * stored) <= 1e-10 * max(1.0, abs(stored))


class TestNormalization:
    def test_coefficient_norms_capped_at_one(self):
        s, _, _, _, plan = make_instance(4, 3, seed=5, normalize=True)
        for t in range(s.phase1_len, s.T):
            norms = []
            for j in range(s.M):
                coefs = plan.coefficients[t, :, j]
                norms.append(np.sqrt(sum(abs(c) ** 2 for c in coefs)))
            assert max(norms) == pytest.approx(1.0, rel=1e-12)
            assert all(n <= 1.0 + 1e-12 for n in norms)

    def test_phase1_scale_is_unity(self):
        s, _, _, _, plan = make_instance(3, 3, normalize=True)
        for t in range(s.phase1_len):
            assert plan.slot_scale[t] == 1.0

    def test_unnormalized_scale_is_unity_everywhere(self):
        s, _, _, _, plan = make_instance(3, 3, normalize=False)
        assert np.all(plan.slot_scale == 1.0)


class TestPlanSerialization:
    """The plan's stored form: one coefficient pair per slot and transmitter."""

    def test_plan_holds_no_messages(self):
        # a plan depends on the channels alone: signal_matrix applies it to the messages it is given
        _, _, _, ms, plan = make_instance(4, 3)
        fields = [f.name for f in dataclasses.fields(plan)]
        assert fields == ["channels", "coefficients", "slot_scale"]
        np.testing.assert_allclose(plan.signal_matrix(2 * ms), 2 * plan.signal_matrix(ms), rtol=1e-15)

    def test_plan_holds_its_draw_and_reads_through_the_schedule(self):
        # the draw the coefficients were gathered from is the plan's own, and so is its schedule;
        # the audited reads are the schedule's table, not a copy a caller could replace
        s, table, h, _, _ = make_instance(4, 3)
        ch = realization(s, h)
        plan = build_transmit_plan(ch, table)
        assert plan.channels is ch and plan.schedule is s and plan.csit_reads is s.pair_reads
        for name, value in (("csit_reads", s.pair_reads[:1]), ("channels", realization(s, h)),
                            ("schedule", s)):
            with pytest.raises(AttributeError):
                setattr(plan, name, value)
        assert list(inspect.signature(build_transmit_plan).parameters) == ["channels", "csit", "normalize"]

    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (2, 5)])
    @pytest.mark.parametrize("draws", [None, range(3)], ids=["single", "stack"])
    def test_plan_schedule_is_its_channels_schedule(self, M, N, draws):
        # a plan cannot pair one schedule's coefficients with another schedule's draw: it
        # reads its schedule from the draw, canonical or permuted, with or without draw axes
        base = build_schedule(M, N)
        rng = np.random.default_rng(M * N)
        permuted = permute_schedule(base, rng.permutation(base.phase1_len),
                                    rng.permutation(base.T - base.phase1_len))
        for s in (base, permuted):
            ch = generate_channels(s, run_streams(5, 1, draws=draws)[0])
            plan = build_transmit_plan(ch, s.csit)
            assert plan.schedule is plan.channels.schedule is s
            assert plan.coefficients.shape == ch.h.shape[:-3] + (s.T, 2, M)

    def test_term_counts(self):
        s, _, _, _, plan = make_instance(4, 3)
        assert plan.coefficients.shape == (s.T, 2, s.M)
        for t in range(s.phase1_len):
            assert np.all(plan.coefficients[t] == [[1.0], [0.0]])
        for t in range(s.phase1_len, s.T):
            assert np.all(plan.coefficients[t] != 0)
