"""Receiver side: observation logging, interference subtraction, decoding.

Every receiver logs all T observations. Phase-2 observations of pair members
are "combined": new desired combination plus a replay of a stored phase-1
interference observation. Subtracting the (scaled) stored value leaves a
clean linear equation in the member's own messages; stacking it with the
phase-1 direct observation gives a kM x kM system per receiver. Coefficient
rows are reconstructed from ground-truth channels, which stands in for
receivers that track all fading coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .channel import ChannelRealization, NoiseModel
from .schedule import Schedule, SchemeConstructionError
from .transmit import TransmitPlan

__all__ = [
    "CONDITION_LIMIT",
    "ObservationKind",
    "ObservationLog",
    "LinearSystem",
    "DecodeResult",
    "observe_all",
    "cancel_interference",
    "assemble_system",
    "decode",
]

CONDITION_LIMIT = 1e12


class ObservationKind(IntEnum):
    """Role of one (receiver, slot) observation, stored as an int8 code."""

    DESIRED_PHASE1 = 0
    INTERFERENCE_PHASE1 = 1
    COMBINED_PHASE2 = 2
    DISCARDED = 3


@dataclass(frozen=True)
class ObservationLog:
    """All N x T received values plus the context needed to use them.

    values[..., i, t] carries the plan's draw axes in front; entries[i, t],
    the ObservationKind code of receiver i's value in slot t, is per schedule.
    """

    schedule: Schedule
    channels: ChannelRealization
    values: np.ndarray
    entries: np.ndarray
    slot_scale: np.ndarray
    noise_variance: float


@dataclass(frozen=True)
class LinearSystem:
    """Square decoding system G w = y for one receiver, or a stack of them.

    Unknowns are ordered copy-major: index c*M + j holds message w[i, j, c].
    Rows follow schedule.decode_rows[receiver]. sigma is the noise covariance
    of y in noise-variance units times the model variance (all zero for
    noiseless runs); noise_map is the (kM, T) matrix B with
    y_noise = B @ n[i, :], so sigma = variance * B B^T.

    A stack has leading axes (draws, then receivers) on every array and an
    int array of receivers; len() counts its systems and iteration yields them.
    """

    receiver: int | np.ndarray
    G: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    noise_map: np.ndarray
    T: int
    M: int
    k: int

    def __len__(self) -> int:
        return math.prod(self.G.shape[:-2])

    def __iter__(self):
        batch = self.G.shape[:-2]
        receivers = np.broadcast_to(self.receiver, batch).ravel().tolist()
        flat = [a.reshape(-1, *a.shape[len(batch):]) for a in (self.G, self.y, self.sigma, self.noise_map)]
        for receiver, *arrays in zip(receivers, *flat):
            yield LinearSystem(receiver, *arrays, T=self.T, M=self.M, k=self.k)


@dataclass(frozen=True)
class DecodeResult:
    receiver: int
    success: bool
    estimates: np.ndarray | None
    rank: int
    condition: float

    def to_record(self) -> dict:
        return {
            "receiver": self.receiver,
            "success": self.success,
            "rank": int(self.rank),
            "condition": float(self.condition) if np.isfinite(self.condition) else None,
        }


def observe_all(
    plan: TransmitPlan, channels: ChannelRealization, noise: NoiseModel
) -> ObservationLog:
    """Compute every receiver's observation for all T slots and classify it.

    In phase 1 the served receiver sees its desired group and everyone else
    stores interference; in phase 2 the two members see a combined value and
    everyone else discards theirs (not schedule.used; NaN if never drawn).
    """
    s = plan.schedule
    X = plan.signal_matrix()
    values = np.einsum("...ijt,...jt->...it", channels.h, X) + noise.sample_grid(s.N, s.T)
    values.setflags(write=False)
    kind = ObservationKind
    entries = np.where(s.used, kind.COMBINED_PHASE2.value, kind.DISCARDED.value).astype(np.int8)
    entries[:, : s.phase1_len] = kind.INTERFERENCE_PHASE1.value
    entries[np.arange(s.N)[:, None], s.phase1_slots] = kind.DESIRED_PHASE1.value
    entries.setflags(write=False)
    return ObservationLog(
        schedule=s,
        channels=channels,
        values=values,
        entries=entries,
        slot_scale=plan.slot_scale,
        noise_variance=noise.variance if noise.enabled else 0.0,
    )


def cancel_interference(log: ObservationLog, receiver) -> tuple[np.ndarray, np.ndarray]:
    """Subtract stored replays from every combined observation of one receiver.

    Returns (rows, values) for the pair rows of schedule.decode_rows[receiver],
    in that order. rows[r] holds the coefficients on the messages of the
    row's copy; noiselessly rows[r] @ w[receiver, :, copy] == values[r].
    An index array of R receivers does all of them in one pass: the arrays
    gain an R axis after the log's draw axes.
    """
    s = log.schedule
    receiver = np.asarray(receiver)
    pairs = s.decode_rows[receiver].reshape(receiver.shape + (s.k, s.M, 4))[..., 1:, :]  # skip each direct row
    copy, slot, partner, linked = (pairs[..., f].reshape(receiver.shape + (-1,)) for f in range(4))
    own_row = receiver[..., None]
    stored = log.entries[own_row, linked]
    if (stored != ObservationKind.INTERFERENCE_PHASE1.value).any():
        raise SchemeConstructionError(
            f"receiver {receiver.tolist()} pair slots {slot.tolist()} replay slots "
            f"{linked.tolist()}, not all of which hold stored interference: {stored.tolist()}"
        )
    g = log.slot_scale[..., slot]
    own = s.phase1_slots[own_row, copy]
    h = np.swapaxes(log.channels.h, -1, -2)  # (..., N, T, M)
    rows = g[..., None] * h[..., own_row, slot, :] * h[..., partner, own, :] / h[..., partner, slot, :]
    values = log.values[..., own_row, slot] - g * log.values[..., own_row, linked]
    return rows, values


def assemble_system(log: ObservationLog, receiver) -> LinearSystem:
    """Stack direct and subtraction rows into the receiver's kM x kM system.

    Row r is schedule.decode_rows[receiver, r]: per copy the phase-1 direct
    observation first, then the copy's M-1 subtraction rows in slot order.
    Each copy's M rows involve only its own M unknowns, so G is block
    diagonal. Arrays are built per copy, as (k, M, ...), then flattened.
    An index array of receivers assembles all of them into one stack.
    """
    s = log.schedule
    M, k, T = s.M, s.k, s.T
    receiver = np.asarray(receiver)
    table = s.decode_rows[receiver].reshape(receiver.shape + (k, M, 4))
    slot, linked = table[..., 1], table[..., 1:, 3]
    rows, values = cancel_interference(log, receiver)
    lead = log.values.shape[:-2] + receiver.shape
    own_row = receiver[..., None, None]
    blocks = np.swapaxes(log.channels.h, -1, -2)[..., own_row, slot, :]  # direct rows are channel rows
    blocks[..., 1:, :] = rows.reshape(lead + (k, M - 1, M))
    G = np.zeros(lead + (k * M, k * M), dtype=complex)
    for c in range(k):
        G[..., c * M : (c + 1) * M, c * M : (c + 1) * M] = blocks[..., c, :, :]
    y = log.values[..., own_row, slot]
    y[..., 1:] = values.reshape(lead + (k, M - 1))
    # B: +1 at each row's own slot, minus the slot scale at the replayed slot
    B = np.zeros(lead + (k, M, T))
    *cells, positions = np.indices(receiver.shape + (k, M), sparse=True)
    B[(..., *cells, positions, slot)] = 1.0
    B[(..., *cells, positions[..., 1:], linked)] = -log.slot_scale[..., slot[..., 1:]]
    B, y = B.reshape(lead + (k * M, T)), y.reshape(lead + (k * M,))
    sigma = log.noise_variance * (B @ np.swapaxes(B, -1, -2))
    for arr in (G, y, B, sigma):
        arr.setflags(write=False)
    return LinearSystem(
        receiver=np.broadcast_to(receiver, lead) if lead else int(receiver),
        G=G, y=y, sigma=sigma, noise_map=B, T=T, M=M, k=k,
    )


def decode(system: LinearSystem) -> DecodeResult:
    """Solve the receiver's system, or report failure for a degenerate one.

    A direct solve plus one iterative-refinement step. For a square
    nonsingular G this is also the generalized least-squares estimate under
    any noise covariance, so noisy and noiseless systems share the path.
    A condition number beyond CONDITION_LIMIT yields a failure result instead
    of an exception.
    """
    G, y = system.G, system.y
    sv = np.linalg.svd(G, compute_uv=False)  # the 2-norm condition, as np.linalg.cond
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    if condition > CONDITION_LIMIT:
        rank = int(np.linalg.matrix_rank(G))
        return DecodeResult(system.receiver, False, None, rank=rank, condition=condition)
    est = np.linalg.solve(G, y)
    est += np.linalg.solve(G, y - G @ est)
    return DecodeResult(system.receiver, True, est, rank=G.shape[0], condition=condition)
