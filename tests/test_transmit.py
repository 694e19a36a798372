"""Tests for CSIT access control and the two-phase precoder."""

import numpy as np
import pytest

from xchannel.channel import (
    ChannelRealization,
    MessageSet,
    generate_channels,
    generate_messages,
)
from xchannel import transmit
from xchannel.schedule import CsitTable, build_csit_table, build_schedule
from xchannel.transmit import (
    CsitAccessError,
    CsitRead,
    CsitView,
    audit_csit_trace,
    build_transmit_plan,
)


def make_instance(M, N, seed=0, normalize=False):
    s = build_schedule(M, N)
    table = build_csit_table(s)
    ch = generate_channels(M, N, s.T, seed=seed)
    ms = generate_messages(M, N, s.k, seed=seed + 1)
    view = CsitView(ch, table)
    plan = build_transmit_plan(s, ms, ch, table, normalize=normalize)
    return s, table, ch, ms, view, plan


class TestPhase1:
    def test_signal_is_message_row(self):
        s, _, _, ms, _, plan = make_instance(3, 3)
        X = plan.signal_matrix()
        for p in s.phase1:
            np.testing.assert_array_equal(X[:, p.slot], ms.w[p.receiver, :, p.copy])

    def test_copy_selects_column(self):
        s, _, _, ms, _, plan = make_instance(4, 3)
        p = s.phase1[4]  # second copy of receiver 1's broadcast
        assert (p.receiver, p.copy) == (1, 1)
        np.testing.assert_array_equal(plan.signal_matrix()[:, p.slot], ms.w[1, :, 1])


class TestPhase2Coefficients:
    def test_3x3_hand_formula(self):
        # pair ((0,0),(1,0)) at slot 3: member 0 broadcast at slot 0, member 1 at 1
        s, _, ch, ms, _, plan = make_instance(3, 3)
        h = ch.h
        assert s.members[3].tolist() == [[0, 0], [1, 0]]
        for j in range(3):
            assert abs(plan.coefficients[3, 0, j] - h[1, j, 0] / h[1, j, 3]) < 1e-14
            assert abs(plan.coefficients[3, 1, j] - h[0, j, 1] / h[0, j, 3]) < 1e-14

    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (5, 4), (2, 3), (2, 4)])
    def test_general_formula(self, M, N):
        # coefficient on member (a, ca) is h[b,j,t_a] / h[b,j,t], recomputed
        # here straight from the channel tensor
        s, _, ch, ms, _, plan = make_instance(M, N, seed=3)
        h = ch.h
        for p in s.phase2:
            (a, ca), (b, cb) = p.pair
            t = p.slot
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
        ch = ChannelRealization(M=3, N=3, T=s.T, h=h, seed=0)
        ms = generate_messages(3, 3, 1, seed=1)
        plan = build_transmit_plan(s, ms, ch, table)
        X = plan.signal_matrix()
        for p in s.phase2:
            (a, ca), (b, cb) = p.pair
            np.testing.assert_allclose(X[:, p.slot], ms.w[a, :, ca] + ms.w[b, :, cb], rtol=1e-14)

    def test_matrix_matches_slot_functions(self):
        # every column of the signal matrix equals its slot's transmit vector,
        # summed here term by term in plain loops
        s, _, ch, ms, _, plan = make_instance(4, 3, seed=7)
        h = ch.h
        X = plan.signal_matrix()
        for p in s.phase1:
            np.testing.assert_allclose(X[:, p.slot], ms.w[p.receiver, :, p.copy], rtol=1e-14)
        for p in s.phase2:
            (a, ca), (b, cb) = p.pair
            t, t_a, t_b = p.slot, s.phase1_slots[a, ca], s.phase1_slots[b, cb]
            for j in range(s.M):
                want = (h[b, j, t_a] / h[b, j, t] * ms.w[a, j, ca]
                        + h[a, j, t_b] / h[a, j, t] * ms.w[b, j, cb])
                np.testing.assert_allclose(X[j, t], want, rtol=1e-12)


class TestCsitAccessControl:
    def test_plan_is_violation_free(self):
        for M, N in [(3, 3), (4, 3), (2, 4), (5, 4), (2, 3)]:
            _, table, _, _, _, plan = make_instance(M, N)
            assert plan.csit_violations == ()
            assert audit_csit_trace(plan.csit_reads, table) == []

    def test_reads_satisfy_access_rule(self):
        # every granted read is either perfect-now or delayed-strictly-earlier
        _, table, _, _, _, plan = make_instance(4, 3)
        for r in plan.csit_reads:
            state = table.state(r.receiver, r.slot)
            assert (r.slot == r.at_slot and state == "P") or (
                r.slot < r.at_slot and state == "D"
            )

    def test_read_count_is_four_per_pair_slot(self):
        s, _, _, _, _, plan = make_instance(5, 4)
        assert len(plan.csit_reads) == 4 * len(s.phase2)

    def test_golden_trace_slot3(self):
        s, _, _, _, _, plan = make_instance(3, 3)
        reads = {(r.receiver, r.slot) for r in plan.csit_reads if r.at_slot == 3}
        assert reads == {(0, 3), (1, 3), (1, 0), (0, 1)}

    def test_no_csit_state_denied(self):
        _, table, ch, _, view, _ = make_instance(3, 3)
        with pytest.raises(CsitAccessError) as exc:
            view.read([(2, 3, 3)])  # row 3 of receiver 3 is hidden in slot 4
        assert (exc.value.receiver, exc.value.slot, exc.value.at_slot) == (2, 3, 3)
        assert len(view.violations) == 1

    def test_delayed_state_denied_at_its_own_slot(self):
        _, _, _, _, view, _ = make_instance(3, 3)
        with pytest.raises(CsitAccessError):
            view.read([(1, 0, 0)])  # delayed rows only become readable later

    def test_perfect_state_denied_after_its_slot(self):
        _, _, _, _, view, _ = make_instance(3, 3)
        with pytest.raises(CsitAccessError):
            view.read([(0, 3, 4)])  # perfect knowledge does not persist

    def test_delayed_read_granted_later(self):
        _, _, ch, _, view, _ = make_instance(3, 3)
        rows = view.read([(1, 0, 4), (0, 4, 4)])
        np.testing.assert_array_equal(rows, [ch.h[1, :, 0], ch.h[0, :, 4]])
        assert view.reads == [CsitRead(1, 0, 4), CsitRead(0, 4, 4)]
        assert view.violations == []

    def test_denied_read_stops_the_gather(self):
        _, _, _, _, view, _ = make_instance(3, 3)
        with pytest.raises(CsitAccessError):
            view.read([(1, 0, 4), (0, 3, 4), (0, 4, 4)])
        assert view.reads == [CsitRead(1, 0, 4)]
        assert view.violations == [CsitRead(0, 3, 4)]

    def test_plan_raises_at_first_denied_pair_read(self, monkeypatch):
        # flip one pair-slot "P" cell to "N": the plan's gather must stop there
        s, table, ch, ms, _, _ = make_instance(4, 3)
        views = []

        class RecordingView(CsitView):
            def __init__(self, *args):
                super().__init__(*args)
                views.append(self)

        monkeypatch.setattr(transmit, "CsitView", RecordingView)
        reads = s.pair_reads.tolist()
        at = 4 * (len(reads) // 8) + 1  # h_a(t) of a middle pair slot
        receiver, slot, at_slot = reads[at]
        assert slot == at_slot and table.state(receiver, slot) == "P"
        states = [list(row) for row in table.states]
        states[receiver][slot] = "N"
        broken = CsitTable(states=tuple("".join(row) for row in states))
        with pytest.raises(CsitAccessError) as exc:
            build_transmit_plan(s, ms, ch, broken)
        assert (exc.value.receiver, exc.value.slot, exc.value.at_slot) == (receiver, slot, at_slot)
        assert exc.value.state == "N"
        (view,) = views
        assert view.violations == [CsitRead(receiver, slot, at_slot)]
        assert view.reads == [CsitRead(*r) for r in reads[:at]]

    def test_audit_flags_fabricated_read(self):
        _, table, _, _, _, plan = make_instance(3, 3)
        fake = CsitRead(receiver=0, slot=5, at_slot=3)
        bad = audit_csit_trace(list(plan.csit_reads) + [fake], table)
        assert bad == [fake]


class TestAlignment:
    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3), (2, 4), (5, 4)])
    def test_interference_replays_stored_observation(self, M, N):
        # at pair slot t the partner's contribution seen by member b equals
        # the slot-scale times what b overheard when the partner broadcast
        s, _, ch, ms, _, plan = make_instance(M, N, seed=11, normalize=True)
        h = ch.h
        for p in s.phase2:
            t = p.slot
            g = plan.slot_scale[t]
            for m, ((a, ca), (b, cb)) in enumerate((p.pair, p.pair[::-1])):
                t_a = s.phase1_slots[a, ca]
                seen = 0.0 + 0.0j
                for j in range(M):
                    seen += h[b, j, t] * plan.coefficients[t, m, j] * ms.w[a, j, ca]
                stored = sum(h[b, j, t_a] * ms.w[a, j, ca] for j in range(M))
                assert abs(seen - g * stored) <= 1e-10 * max(1.0, abs(stored))


class TestNormalization:
    def test_coefficient_norms_capped_at_one(self):
        s, _, _, _, _, plan = make_instance(4, 3, seed=5, normalize=True)
        for p in s.phase2:
            norms = []
            for j in range(s.M):
                coefs = plan.coefficients[p.slot, :, j]
                norms.append(np.sqrt(sum(abs(c) ** 2 for c in coefs)))
            assert max(norms) == pytest.approx(1.0, rel=1e-12)
            assert all(n <= 1.0 + 1e-12 for n in norms)

    def test_phase1_scale_is_unity(self):
        s, _, _, _, _, plan = make_instance(3, 3, normalize=True)
        for p in s.phase1:
            assert plan.slot_scale[p.slot] == 1.0

    def test_unnormalized_scale_is_unity_everywhere(self):
        s, _, _, _, _, plan = make_instance(3, 3, normalize=False)
        assert np.all(plan.slot_scale == 1.0)
        assert plan.normalized is False


class TestPlanSerialization:
    """The plan's stored form: one coefficient pair per slot and transmitter."""

    def test_term_counts(self):
        s, _, _, _, _, plan = make_instance(4, 3)
        assert plan.coefficients.shape == (s.T, 2, s.M)
        for p in s.phase1:
            assert np.all(plan.coefficients[p.slot] == [[1.0], [0.0]])
        for p in s.phase2:
            assert np.all(plan.coefficients[p.slot] != 0)
