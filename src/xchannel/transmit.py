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


def _rows(reads) -> np.ndarray:
    """Read-only (K, 3) intp array of (receiver, slot, at_slot) reads."""
    rows = np.array(reads, dtype=np.intp).reshape(-1, 3)
    rows.setflags(write=False)
    return rows


def _granted(reads: np.ndarray, table: CsitTable) -> np.ndarray:
    """The CSIT contract on (K, 3) (receiver, slot, at_slot) reads: perfect state
    for the current slot, delayed state for earlier ones."""
    receiver, slot, at_slot = reads.T
    state = table.grid[receiver, slot]
    return ((slot == at_slot) & (state == ord("P"))) | ((slot < at_slot) & (state == ord("D")))


class CsitView:
    """Access-controlled window onto the channel tensor.

    A read of receiver i's coefficient row at slot t', issued at slot now, is
    granted only when the state table marks (i, now) as "P" with t' == now,
    or (i, t') as "D" with t' strictly earlier than now. Granted reads
    accumulate in `reads`; an illegal read is recorded in `violations` and raised.
    Both are read-only (K, 3) int arrays of (receiver, slot, at_slot) rows.
    """

    def __init__(self, channels: ChannelRealization, table: CsitTable):
        self._channels = channels
        self._table = table
        self.reads = self.violations = _rows(())

    def read(self, reads) -> np.ndarray:
        """(..., K, M) copy of rows h[..., receiver, :, slot] for (K, 3) (receiver, slot,
        at_slot) reads, checked in order: reads before the first denied one are
        recorded, then it is raised."""
        reads = np.asarray(reads, dtype=np.intp).reshape(-1, 3)
        denied = np.flatnonzero(~_granted(reads, self._table))
        stop = denied[0] if denied.size else len(reads)
        self.reads = _rows(np.concatenate([self.reads, reads[:stop]]))
        if denied.size:
            receiver, slot, at_slot = reads[stop].tolist()
            self.violations = _rows(np.concatenate([self.violations, reads[stop:stop + 1]]))
            raise CsitAccessError(receiver, slot, at_slot, self._table.state(receiver, slot))
        return self._channels.rows(reads[:, 0], reads[:, 1])


def audit_csit_trace(reads: np.ndarray, table: CsitTable) -> np.ndarray:
    """Re-check (K, 3) (receiver, slot, at_slot) reads against the state table; returns
    the offending rows, in order, as a read-only (n, 3) array."""
    reads = _rows(reads)
    return _rows(reads[~_granted(reads, table)])


@dataclass(eq=False)
class TransmitPlan:
    """Precoding coefficients for all T slots plus the audit trail that built them.

    coefficients[..., t, m, j] is transmitter j's coefficient in slot t on the
    message of member m = schedule.members[t, m]; a phase-1 slot sends its
    group as is (coefficients 1 and 0). slot_scale[..., t] is the common scalar
    already folded into slot t's coefficients (1.0 unless normalization is
    on), which receivers also apply to stored observations when subtracting.
    """

    schedule: Schedule
    messages: MessageSet
    coefficients: np.ndarray
    slot_scale: np.ndarray
    normalized: bool
    csit_reads: np.ndarray  # (K, 3) granted (receiver, slot, at_slot) reads
    csit_violations: np.ndarray  # the denied read, if any, in the same form
    _signals: np.ndarray | None = field(default=None, repr=False)

    def signal_matrix(self) -> np.ndarray:
        """All transmit vectors as an (..., M, T) matrix, computed once and cached."""
        if self._signals is None:
            members = self.schedule.members
            w = np.swapaxes(self.messages.w, -1, -2)[..., members[..., 0], members[..., 1], :]
            X = np.ascontiguousarray(np.einsum("...tmj,...tmj->...jt", self.coefficients, w))
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
    Channels and messages with draw axes (drawn from a tuple of seeds) give a
    plan with those axes, whose one CSIT audit covers every draw's gather.
    """
    view = CsitView(channels, csit)
    first, draws = schedule.phase1_len, channels.h.shape[:-3]
    rows = view.read(schedule.pair_reads).reshape(draws + (-1, 4, schedule.M))
    coefficients = np.zeros(draws + (schedule.T, 2, schedule.M), dtype=complex)
    coefficients[..., :first, 0, :] = 1.0
    pair = coefficients[..., first:, :, :]
    pair[...] = rows[..., 2:, :] / rows[..., :2, :]
    scale = np.ones(draws + (schedule.T,))
    if normalize:
        norms = np.sqrt(np.abs(pair[..., 0, :]) ** 2 + np.abs(pair[..., 1, :]) ** 2)
        scale[..., first:] = 1.0 / norms.max(axis=-1)
        pair *= scale[..., first:, None, None]
    for arr in (coefficients, scale):
        arr.setflags(write=False)
    return TransmitPlan(
        schedule=schedule,
        messages=messages,
        coefficients=coefficients,
        slot_scale=scale,
        normalized=normalize,
        csit_reads=view.reads,
        csit_violations=view.violations,
    )
