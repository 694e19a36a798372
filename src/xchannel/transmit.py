"""Per-slot transmit construction: phase-1 broadcasts, retrospective phase-2 precoding.

Phase-2 coefficients are chosen so that the interference a pair slot creates
at each member equals (up to the published slot scale) an observation that
member already stored in phase 1. Transmitters only ever touch the channel
through an access-controlled CsitView, which records every read for audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, MessageSet
from .schedule import CsitTable, Schedule

__all__ = [
    "CsitAccessError",
    "CsitRead",
    "CsitView",
    "TransmitPlan",
    "audit_csit_trace",
    "build_transmit_plan",
]


class CsitAccessError(RuntimeError):
    """A precoder tried to read channel state its CSIT contract does not grant."""

    def __init__(self, receiver: int, slot: int, at_slot: int, state: str):
        self.receiver = receiver
        self.slot = slot
        self.at_slot = at_slot
        self.state = state
        super().__init__(
            f"illegal CSIT read of receiver {receiver} slot {slot} at slot "
            f"{at_slot} (state {state!r})"
        )


@dataclass(frozen=True)
class CsitRead:
    """One granted channel read: receiver row `slot`, issued while in `at_slot`."""

    receiver: int
    slot: int
    at_slot: int


def _granted(read: CsitRead, table: CsitTable) -> bool:
    """The CSIT contract: perfect state for the current slot, delayed state for earlier ones."""
    state = table.state(read.receiver, read.slot)
    return (read.slot == read.at_slot and state == "P") or (
        read.slot < read.at_slot and state == "D"
    )


class CsitView:
    """Access-controlled window onto the channel tensor.

    A read of receiver i's coefficient row at slot t' is granted only when
    the state table marks (i, now) as "P" with t' == now, or (i, t') as "D"
    with t' strictly earlier than now. Granted reads accumulate in `reads`;
    an illegal read is recorded in `violations` and raised.
    """

    def __init__(self, channels: ChannelRealization, table: CsitTable):
        self._h = channels.h
        self._table = table
        self.now = 0
        self.reads: list[CsitRead] = []
        self.violations: list[CsitRead] = []

    def read_row(self, receiver: int, slot: int) -> np.ndarray:
        record = CsitRead(receiver=receiver, slot=slot, at_slot=self.now)
        if not _granted(record, self._table):
            self.violations.append(record)
            raise CsitAccessError(receiver, slot, self.now, self._table.state(receiver, slot))
        self.reads.append(record)
        return self._h[receiver, :, slot].copy()


def audit_csit_trace(reads, table: CsitTable) -> list[CsitRead]:
    """Re-check a read trace against the state table; returns the offenders."""
    return [r for r in reads if not _granted(r, table)]


@dataclass
class TransmitPlan:
    """Precoding coefficients for all T slots plus the audit trail that built them.

    coefficients[t, m, j] is transmitter j's coefficient in slot t on the
    message of member m = schedule.members[t, m]; a phase-1 slot sends its
    group as is (coefficients 1 and 0). slot_scale[t] is the common scalar
    already folded into slot t's coefficients (1.0 unless normalization is
    on), which receivers also apply to stored observations when subtracting.
    """

    schedule: Schedule
    messages: MessageSet
    coefficients: np.ndarray
    slot_scale: np.ndarray
    normalized: bool
    csit_reads: tuple[CsitRead, ...]
    csit_violations: tuple[CsitRead, ...]
    _signals: np.ndarray | None = field(default=None, repr=False)

    def signal_matrix(self) -> np.ndarray:
        """All transmit vectors as an (M, T) matrix, computed once and cached."""
        if self._signals is None:
            members = self.schedule.members
            w = self.messages.w[members[..., 0], :, members[..., 1]]  # (T, 2, M)
            X = np.ascontiguousarray(np.einsum("tmj,tmj->jt", self.coefficients, w))
            X.setflags(write=False)
            self._signals = X
        return self._signals


def build_transmit_plan(
    schedule: Schedule,
    messages: MessageSet,
    channels: ChannelRealization,
    csit: CsitTable,
    normalize: bool = False,
) -> TransmitPlan:
    """Compute every slot's coefficients under CSIT access control.

    Member (a, ca) paired with (b, cb) at slot t gets coefficient
    h[b,j,t]^-1 * h[b,j,t_a] on w[a,j,ca]: through receiver b's current
    fading this collapses to h[b,j,t_a], reproducing the observation b stored
    when (a, ca) was broadcast at t_a, so b can subtract it.

    With normalize=True each phase-2 slot is scaled by one common factor
    1 / max_j ||coefficients of transmitter j||, so every transmitter meets a
    unit power budget with unit-power messages. A common factor (rather than
    per-transmitter ones) keeps the stored-observation subtraction exact.
    """
    view = CsitView(channels, csit)
    first = len(schedule.phase1)
    pairs = schedule.members[first:]
    then = schedule.phase1_slots[pairs[..., 0], pairs[..., 1]]
    rows = []  # per pair slot: h_b(t), h_a(t), h_b(t_a), h_a(t_b)
    for t, ((a, _), (b, _)), (t_a, t_b) in zip(
        range(first, schedule.T), pairs.tolist(), then.tolist()
    ):
        view.now = t
        rows.append(
            (view.read_row(b, t), view.read_row(a, t), view.read_row(b, t_a), view.read_row(a, t_b))
        )
    rows = np.array(rows).reshape(len(pairs), 4, schedule.M)
    coefficients = np.zeros((schedule.T, 2, schedule.M), dtype=complex)
    coefficients[:first, 0] = 1.0
    coefficients[first:] = rows[:, 2:] / rows[:, :2]
    scale = np.ones(schedule.T)
    if normalize:
        norms = np.sqrt(np.abs(coefficients[first:, 0]) ** 2 + np.abs(coefficients[first:, 1]) ** 2)
        scale[first:] = 1.0 / norms.max(axis=1)
        coefficients[first:] *= scale[first:, None, None]
    for arr in (coefficients, scale):
        arr.setflags(write=False)
    return TransmitPlan(
        schedule=schedule,
        messages=messages,
        coefficients=coefficients,
        slot_scale=scale,
        normalized=normalize,
        csit_reads=tuple(view.reads),
        csit_violations=tuple(view.violations),
    )
