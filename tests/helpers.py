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
