"""Helpers shared by the tests: named random streams, channels that store every slot, and
a schedule's stored cells of full (N, T) arrays."""

from types import SimpleNamespace

import numpy as np

from xchannel.channel import ChannelRealization, read_only, run_streams, slot_tables


def stream(seed) -> np.ndarray:
    """Stream 0 of draw 0 of an int seed's key, or the run_streams rows of a stream tuple
    (key0, key1, draw, stream) or of a list of them."""
    return run_streams(seed, 1)[0] if isinstance(seed, int) else np.array(seed, dtype=np.uint64)


def full_store(M: int, N: int, T: int, k: int = 1) -> SimpleNamespace:
    """The shapes generate_channels, generate_messages and generate_noise read from a Schedule
    (M, N, T, k and stored), with stored the slot tables of an all-True mask: channels drawn
    for it hold h[i, :, t] for every slot t, and noise drawn for it covers all N x T cells."""
    return SimpleNamespace(M=M, N=N, T=T, k=k, stored=slot_tables(np.ones((N, T), dtype=bool), N, T))


def stored_noise(schedule, grid: np.ndarray) -> np.ndarray:
    """The read-only (..., N, U) cells of a full (..., N, T) grid that schedule stores, in the
    order of its stored slots, as generate_noise draws them for it."""
    return read_only(grid[..., np.arange(schedule.N)[:, None], schedule.stored[0]])


def realization(schedule, h: np.ndarray) -> ChannelRealization:
    """The draw of schedule that holds the rows h[..., i, :, t] of a full (..., N, M, T) tensor
    at the cells schedule stores; gathering any other cell raises IndexError."""
    rows = h.swapaxes(-1, -2)[..., np.arange(schedule.N)[:, None], schedule.stored[0], :]
    return ChannelRealization(schedule, read_only(rows.swapaxes(-1, -2)))


def noise_map(schedule, slot_scale: np.ndarray) -> np.ndarray:
    """Every receiver's (kM, T) noise map B, stacked as (..., N, kM, T) over the draw axes of
    slot_scale: y's noise is B @ n for the receiver's noise n on all T slots, zero where it
    stores no channel. Built by plain loops from schedule.members alone: per copy c, row c*M
    has +1 at the slot that broadcast (i, c), and each pair slot t of (i, c) in slot order
    adds a row with +1 at t and -slot_scale[..., t] at the slot that broadcast the partner."""
    M, N, k, T = schedule.M, schedule.N, schedule.k, schedule.T
    members = [[tuple(m) for m in slot] for slot in schedule.members.tolist()]
    broadcast = {members[t][0]: t for t in range(k * N)}
    B = np.zeros(slot_scale.shape[:-1] + (N, k * M, T))
    for i in range(N):
        for c in range(k):
            row = c * M
            B[..., i, row, broadcast[(i, c)]] = 1.0
            for t in range(k * N, T):
                for me, partner in (members[t], members[t][::-1]):
                    if me == (i, c):
                        row += 1
                        B[..., i, row, t] = 1.0
                        B[..., i, row, broadcast[partner]] = -slot_scale[..., t]
            assert row == c * M + M - 1, (i, c, row)
    return B


def incidence_product(B: np.ndarray) -> np.ndarray:
    """B @ B^T over the last two axes, each entry summed in plain Python floats over the slots
    where both rows are nonzero, in slot order."""
    flat = B.reshape(-1, *B.shape[-2:])
    out = np.zeros(flat.shape[:-1] + (flat.shape[-2],))
    for n, rows in enumerate(flat.tolist()):
        support = [{t: v for t, v in enumerate(row) if v} for row in rows]
        for r, a in enumerate(support):
            for s, b in enumerate(support):
                total = 0.0
                for t in sorted(a.keys() & b.keys()):
                    total += a[t] * b[t]
                out[n, r, s] = total
    return out.reshape(B.shape[:-1] + (B.shape[-2],))
