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

    entries[i, t] is the ObservationKind code of receiver i's value in slot t.
    """

    schedule: Schedule
    channels: ChannelRealization
    values: np.ndarray
    entries: np.ndarray
    slot_scale: np.ndarray
    noise_variance: float


@dataclass(frozen=True)
class LinearSystem:
    """Square decoding system G w = y for one receiver.

    Unknowns are ordered copy-major: index c*M + j holds message w[i, j, c].
    Rows follow schedule.decode_rows[receiver]. sigma is the noise covariance
    of y in noise-variance units times the model variance (all zero for
    noiseless runs); noise_map is the (kM, T) matrix B with
    y_noise = B @ n[i, :], so sigma = variance * B B^T.
    """

    receiver: int
    G: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    noise_map: np.ndarray
    T: int
    M: int
    k: int


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
    everyone else discards theirs.
    """
    s = plan.schedule
    X = plan.signal_matrix()
    values = np.einsum("ijt,jt->it", channels.h, X) + noise.sample_grid(s.N, s.T)
    values.setflags(write=False)
    served = (s.members[:, :, 0] == np.arange(s.N)[:, None, None]).any(axis=2)
    kind = ObservationKind
    entries = np.where(
        np.arange(s.T) < len(s.phase1),
        np.where(served, kind.DESIRED_PHASE1.value, kind.INTERFERENCE_PHASE1.value),
        np.where(served, kind.COMBINED_PHASE2.value, kind.DISCARDED.value),
    ).astype(np.int8)
    entries.setflags(write=False)
    return ObservationLog(
        schedule=s,
        channels=channels,
        values=values,
        entries=entries,
        slot_scale=plan.slot_scale,
        noise_variance=noise.variance if noise.enabled else 0.0,
    )


def cancel_interference(log: ObservationLog, receiver: int) -> tuple[np.ndarray, np.ndarray]:
    """Subtract stored replays from every combined observation of one receiver.

    Returns (rows, values) for the pair rows of schedule.decode_rows[receiver],
    in that order. rows[r] holds the coefficients on the messages of the
    row's copy; noiselessly rows[r] @ w[receiver, :, copy] == values[r].
    """
    s = log.schedule
    h = log.channels.h
    pairs = s.decode_rows[receiver].reshape(s.k, s.M, 4)[:, 1:]  # skip each direct row
    copy, slot, partner, linked = pairs.reshape(-1, 4).T
    stored = log.entries[receiver][linked].tolist()
    if any(kind != ObservationKind.INTERFERENCE_PHASE1 for kind in stored):
        raise SchemeConstructionError(
            f"receiver {receiver} pair slots {slot.tolist()} replay slots {linked.tolist()}, "
            f"not all of which hold stored interference: {stored}"
        )
    g = log.slot_scale[slot]
    own = s.phase1_slots[receiver, copy]
    rows = g[:, None] * h[receiver, :, slot] * h[partner, :, own] / h[partner, :, slot]
    observed = log.values[receiver]
    values = observed[slot] - g * observed[linked]
    return rows, values


def assemble_system(log: ObservationLog, receiver: int) -> LinearSystem:
    """Stack direct and subtraction rows into the receiver's kM x kM system.

    Row r is schedule.decode_rows[receiver, r]: per copy the phase-1 direct
    observation first, then the copy's M-1 subtraction rows in slot order.
    Each copy's M rows involve only its own M unknowns, so G is block
    diagonal. Arrays are built per copy, as (k, M, ...), then flattened.
    """
    s = log.schedule
    M, k, T = s.M, s.k, s.T
    table = s.decode_rows[receiver].reshape(k, M, 4)
    slot, linked = table[:, :, 1], table[:, 1:, 3]
    rows, values = cancel_interference(log, receiver)

    blocks = log.channels.h[receiver, :, slot]  # direct rows are channel rows
    blocks[:, 1:] = rows.reshape(k, M - 1, M)
    G = np.zeros((k * M, k * M), dtype=complex)
    for c in range(k):
        G[c * M : (c + 1) * M, c * M : (c + 1) * M] = blocks[c]
    y = log.values[receiver][slot]
    y[:, 1:] = values.reshape(k, M - 1)
    # B: +1 at each row's own slot, minus the slot scale at the replayed slot
    B = np.zeros((k, M, T))
    copies, positions = np.arange(k)[:, None], np.arange(M)
    B[copies, positions, slot] = 1.0
    B[copies, positions[1:], linked] = -log.slot_scale[slot[:, 1:]]
    B, y = B.reshape(k * M, T), y.reshape(k * M)
    sigma = log.noise_variance * (B @ B.T)
    for arr in (G, y, B, sigma):
        arr.setflags(write=False)
    return LinearSystem(
        receiver=receiver, G=G, y=y, sigma=sigma, noise_map=B, T=T, M=M, k=k
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
