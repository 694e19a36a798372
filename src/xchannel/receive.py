"""Receiver side: observation logging, interference subtraction, decoding.

Every receiver logs its value in all T slots, NaN where its channel is not
stored (a slot it does not use). Phase-2 observations of pair members
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

import numpy as np

from .channel import read_only
from .schedule import ObservationKind
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


@dataclass(frozen=True, eq=False)
class ObservationLog:
    """All N x T received values and the plan that sent them.

    values[..., i, t] carries the plan's draw axes in front. The schedule, the channels and the
    slot scale are read through plan, so they are the ones the values were formed with; entries
    is the schedule's own (N, T) ObservationKind table, built on first read.
    """

    plan: TransmitPlan
    values: np.ndarray
    noise: np.ndarray | None  # the (..., N, U) noise added to the stored cells; None if noiseless

    @property
    def entries(self) -> np.ndarray:
        return self.plan.schedule.entries


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Square decoding systems G w = y, stacked over the leading axes (..., N): any draw axes,
    then every receiver of the schedule, receiver i at position i of the last one.

    Unknowns are ordered copy-major: index c*M + j holds message w[i, j, c].
    Rows run copy by copy: the phase1_slots row, then the pair_rows. sigma is the covariance of
    y's unit-variance noise (all zero for noiseless runs); noise_map is the
    (kM, T) matrix B with y_noise = B @ n, where n is receiver i's (U,) noise placed on its
    channels.slots[i] columns of T, zero elsewhere, so sigma = B B^T. len() counts the systems.
    """

    G: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    noise_map: np.ndarray
    T: int
    M: int

    def __len__(self) -> int:
        return math.prod(self.G.shape[:-2])


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Decode of a stack of systems.

    decoded, rank and condition have the stack's shape (..., N), so receiver i is
    at position i of the last axis; estimates adds a trailing kM axis, a NaN row
    for a failed system. success is read from decoded as a plain bool: every system decoded.
    """

    estimates: np.ndarray
    rank: np.ndarray
    condition: np.ndarray
    decoded: np.ndarray

    success = property(lambda self: bool(self.decoded.all()))


def observe_all(plan: TransmitPlan, messages: np.ndarray, noise: np.ndarray | None = None) -> ObservationLog:
    """Compute every receiver's observation for all T slots, classified by schedule.entries.

    The plan sends the (..., N, M, k) messages (TransmitPlan.signal_matrix) through the
    channels it was built from (plan.channels), so the draw that is replayed is the one
    that was precoded with. In phase 1 the served receiver sees its desired group and
    everyone else stores interference; in phase 2 the two members see a combined value
    and everyone else discards theirs. Only the cells the channels store
    (channels.slots, schedule.used for a masked draw) are observed, and noise of
    their (..., N, U) shape, as generate_noise draws it, is added to them alone; messages of
    another shape than the plan's (..., N, M, k), or noise of another shape, raise ValueError.
    values is the full (..., N, T) grid, NaN on every cell not stored.
    """
    s, channels = plan.schedule, plan.channels
    if messages.shape != (want := channels.h.shape[:-3] + (s.N, s.M, s.k)):
        raise ValueError(f"messages must have the plan's shape {want}, got {messages.shape}")
    X = plan.signal_matrix(messages)
    receivers, slots = np.arange(s.N)[:, None], channels.slots
    stored = np.einsum("...iju,...jiu->...iu", channels.h, X[..., :, slots])
    if noise is not None:
        if noise.shape != stored.shape:
            raise ValueError(f"noise must have the stored cells' shape {stored.shape}, got {noise.shape}")
        stored += noise
    values = np.full(stored.shape[:-2] + (s.N, s.T), complex(np.nan, np.nan))
    values[..., receivers, slots] = stored
    return ObservationLog(plan=plan, values=read_only(values), noise=noise)


def cancel_interference(log: ObservationLog) -> tuple[np.ndarray, np.ndarray]:
    """Subtract stored replays from every combined observation of every receiver.

    Returns (rows, values) for each receiver's pair rows, in the order of the
    schedule's pair_rows table, with an N axis after the log's draw axes.
    rows[i, r] holds the coefficients on the messages of the row's copy;
    noiselessly rows[i, r] @ w[i, :, copy] == values[i, r]. Each linked slot
    is the partner's phase-1 broadcast, stored interference for every receiver
    but the partner, and Schedule construction rejects a receiver paired with
    itself, so the replay needs no check here.
    """
    plan = log.plan
    slot, partner, linked, own = plan.schedule.pair_rows
    own_row = np.arange(plan.schedule.N)[:, None]
    g = plan.slot_scale[..., slot]
    h = plan.channels.rows
    rows = h(own_row, slot)  # ((g * h1) * h2) / h3, in place
    np.multiply(g[..., None], rows, out=rows)
    rows *= h(partner, own)
    rows /= h(partner, slot)
    values = log.values[..., own_row, slot] - g * log.values[..., own_row, linked]
    return rows, values


def assemble_system(log: ObservationLog) -> LinearSystem:
    """Stack direct and subtraction rows into every receiver's kM x kM system.

    Per copy the phase-1 direct observation comes first (at
    schedule.phase1_slots), then the copy's M-1 subtraction rows in slot
    order (schedule.pair_rows).
    Each copy's M rows involve only its own M unknowns, so G is block
    diagonal; its rows are written into G copy by copy. The other arrays are
    built per copy, as (k, M, ...), then flattened. The N receivers form one
    stack after the log's draw axes, receiver i at position i. Every array is
    read-only; a noiseless sigma is a broadcast zero.
    """
    plan = log.plan
    s = plan.schedule
    M, N, k, T = s.M, s.N, s.k, s.T
    own = s.phase1_slots  # (N, k): each copy's direct row is at its phase-1 slot
    receivers = np.arange(N)[:, None]
    slot, _, linked, _ = s.pair_rows.reshape(4, N, k, M - 1)
    rows, values = cancel_interference(log)
    draws = log.values.shape[:-2]
    lead = draws + (N,)
    G = np.zeros(lead + (k * M, k * M), dtype=complex)
    diagonal = np.einsum("...cicj->...cij", G.reshape(lead + (k, M, k, M)))  # a view of the k blocks
    diagonal[..., 0, :] = plan.channels.rows(receivers, own)  # direct rows are channel rows
    diagonal[..., 1:, :] = rows.reshape(lead + (k, M - 1, M))
    del diagonal, rows  # freed before the noise map is allocated
    y = np.empty(lead + (k, M), dtype=complex)
    y[..., 0] = log.values[..., receivers, own]
    y[..., 1:] = values.reshape(lead + (k, M - 1))
    # B: +1 at each row's own slot, minus the slot scale at the replayed slot; flat
    # index (row * T + slot) into each draw's rows
    B = np.zeros(lead + (k, M, T))
    flat, start = B.reshape(draws + (-1,)), np.arange(0, own.size * M * T, T).reshape(own.shape + (M,))
    flat[..., (start + np.concatenate([own[..., None], slot], axis=-1)).ravel()] = 1.0
    flat[..., (start[..., 1:] + linked).ravel()] = -plan.slot_scale[..., slot].reshape(draws + (-1,))
    B, y = read_only(B).reshape(lead + (k * M, T)), read_only(y).reshape(lead + (k * M,))
    if log.noise is not None:
        sigma = read_only(B @ np.swapaxes(B, -1, -2))
    else:  # noiseless: sigma is 0 * B B^T, so skip the product
        sigma = np.broadcast_to(read_only(np.zeros(())), lead + (k * M, k * M))
    return LinearSystem(G=read_only(G), y=y, sigma=sigma, noise_map=B, T=T, M=M)


def decode(system: LinearSystem) -> DecodeResult:
    """Solve every system of the stack, or report failure for a degenerate one.

    One stacked SVD gives the 2-norm conditions (as np.linalg.cond); the
    systems within CONDITION_LIMIT get one stacked direct solve plus one
    iterative-refinement step, and only the others get a rank, counted from
    their singular values by np.linalg.matrix_rank's default tolerance. For a
    square nonsingular G this is also the generalized least-squares estimate
    under any noise covariance, so noisy and noiseless systems share the
    path. A single system is the stack with no leading axes, so its results
    are 0-d arrays. A condition number beyond CONDITION_LIMIT yields a
    failure (NaN estimates) instead of an exception.
    """
    G, y = system.G, system.y[..., None]
    sv = np.linalg.svd(G, compute_uv=False)
    smallest = sv[..., -1]
    condition = np.full(smallest.shape, np.inf)
    np.divide(sv[..., 0], smallest, out=condition, where=smallest > 0)
    decoded = np.asarray(condition <= CONDITION_LIMIT)  # an svd of non-finite entries raises, so never NaN
    success = bool(decoded.all())
    Gs, ys = (G, y) if success else (G[decoded], y[decoded])  # no masked copies when all decode
    est = np.linalg.solve(Gs, ys)
    est += np.linalg.solve(Gs, ys - Gs @ est)
    rank = np.full(decoded.shape, G.shape[-1])
    if success:
        estimates = est[..., 0]
    else:
        estimates = np.full(system.y.shape, np.nan, dtype=complex)
        estimates[decoded] = est[..., 0]
        failed = sv[~decoded]  # np.linalg.matrix_rank's default rule, on these singular values
        tol = failed[:, :1] * (G.shape[-1] * np.finfo(sv.dtype).eps)
        rank[~decoded] = np.count_nonzero(failed > tol, axis=-1)
    return DecodeResult(estimates, rank, condition, decoded)
