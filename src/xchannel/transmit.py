"""Per-slot transmit construction: phase-1 broadcasts, retrospective phase-2 precoding.

Phase-2 coefficients are chosen so that the interference a pair slot creates
at each member equals (up to the published slot scale) an observation that
member already stored in phase 1. Transmitters read the channel only at the
schedule's pair reads, and only after audit_csit_trace grants every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, read_only
from .schedule import CsitTable

__all__ = [
    "CsitAccessError",
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


def audit_csit_trace(reads, table: CsitTable) -> np.ndarray:
    """The CSIT contract: perfect state for the current slot, delayed state for earlier
    ones. Returns the (K, 3) (receiver, slot, at_slot) reads it denies, in order, as a
    read-only (n, 3) array."""
    reads = np.asarray(reads, dtype=np.intp).reshape(-1, 3)
    receiver, slot, at_slot = reads.T
    state = table.grid[receiver, slot]
    granted = ((slot == at_slot) & (state == ord("P"))) | ((slot < at_slot) & (state == ord("D")))
    return read_only(reads[~granted])


@dataclass(frozen=True, eq=False)
class TransmitPlan:
    """Precoding coefficients for all T slots, the channel draw they were computed from, and
    the audit trail that built them.

    coefficients[..., t, m, j] is transmitter j's coefficient in slot t on the
    message of member m = schedule.members[t, m]; a phase-1 slot sends its
    group as is (coefficients 1 and 0). slot_scale[..., t] is the common scalar
    already folded into slot t's coefficients (1.0 unless normalization is
    on), which receivers also apply to stored observations when subtracting.
    channels is the draw build_transmit_plan gathered from, the one the plan's
    signals travel through and receivers replay; the schedule is the draw's own. The
    audit trail is read from the schedule, since a plan is built only when no read is
    denied. The plan holds no messages: signal_matrix applies it to the messages it is given.
    """

    channels: ChannelRealization
    coefficients: np.ndarray
    slot_scale: np.ndarray

    schedule = property(lambda self: self.channels.schedule, doc="The schedule the channels were drawn for.")

    @property
    def csit_reads(self) -> np.ndarray:
        """The (K, 3) audited (receiver, slot, at_slot) reads: the schedule's pair_reads."""
        return self.schedule.pair_reads

    csit_violations = property(lambda self: self.schedule.pair_reads[:0], doc="The denied reads: none, (0, 3).")

    def signal_matrix(self, messages: np.ndarray) -> np.ndarray:
        """All transmit vectors of the (..., N, M, k) messages as a read-only (..., M, T) matrix."""
        members = self.schedule.members
        w = messages.swapaxes(-1, -2)[..., members[..., 0], members[..., 1], :]
        return read_only(np.ascontiguousarray(np.einsum("...tmj,...tmj->...jt", self.coefficients, w)))


def build_transmit_plan(
    channels: ChannelRealization,
    csit: CsitTable,
    normalize: bool = False,
) -> TransmitPlan:
    """Compute every slot's coefficients for the schedule the channels were drawn for
    (channels.schedule), under CSIT access control.

    Member (a, ca) paired with (b, cb) at slot t gets coefficient
    h[b,j,t]^-1 * h[b,j,t_a] on w[a,j,ca]: through receiver b's current
    fading this collapses to h[b,j,t_a], reproducing the observation b stored
    when (a, ca) was broadcast at t_a, so b can subtract it. The coefficient
    rows are the schedule's pair_reads, audited against csit before any is
    gathered: a denied read raises CsitAccessError for the first one.

    With normalize=True each phase-2 slot is scaled by one common factor
    1 / max_j ||coefficients of transmitter j||, so every transmitter meets a
    unit power budget with unit-power messages. A common factor (rather than
    per-transmitter ones) keeps the stored-observation subtraction exact.
    Channels with draw axes (a range of draws) give a plan with those axes, whose one
    CSIT audit covers every draw's gather.
    """
    schedule = channels.schedule
    reads = schedule.pair_reads
    denied = audit_csit_trace(reads, csit)
    if len(denied):
        receiver, slot, at_slot = denied[0].tolist()
        raise CsitAccessError(receiver, slot, at_slot, chr(csit.grid[receiver, slot]))
    first, draws = schedule.phase1_len, channels.h.shape[:-3]
    rows = channels.rows(reads[:, 0], reads[:, 1]).reshape(draws + (-1, 4, schedule.M))
    coefficients = np.zeros(draws + (schedule.T, 2, schedule.M), dtype=complex)
    coefficients[..., :first, 0, :] = 1.0
    pair = coefficients[..., first:, :, :]
    np.divide(rows[..., 2:, :], rows[..., :2, :], out=pair)
    scale = np.ones(draws + (schedule.T,))
    if normalize:
        norms = np.sqrt(np.abs(pair[..., 0, :]) ** 2 + np.abs(pair[..., 1, :]) ** 2)
        scale[..., first:] = 1.0 / norms.max(axis=-1)
        pair *= scale[..., first:, None, None]
    return TransmitPlan(channels=channels, coefficients=read_only(coefficients), slot_scale=read_only(scale))
