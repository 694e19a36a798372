"""Helpers shared by the tests: named random streams and channels that store every slot."""

from types import SimpleNamespace

import numpy as np

from xchannel.channel import run_streams, slot_tables


def stream(seed) -> np.ndarray:
    """Stream 0 of draw 0 of an int seed's key, or the run_streams rows of a stream tuple
    (key0, key1, draw, stream) or of a list of them."""
    return run_streams(seed, 1)[0] if isinstance(seed, int) else np.array(seed, dtype=np.uint64)


def full_store(M: int, N: int, T: int, k: int = 1) -> SimpleNamespace:
    """The shapes generate_channels, generate_messages and generate_noise read from a Schedule
    (M, N, T, k and stored), with stored the slot tables of an all-True mask: channels drawn
    for it hold h[i, :, t] for every slot t, and noise drawn for it covers all N x T cells.
    It is also the schedule of a realization built by hand from a full (N, M, T) tensor,
    ChannelRealization(full_store(M, N, T), h), which reads its layout from it."""
    return SimpleNamespace(M=M, N=N, T=T, k=k, stored=slot_tables(np.ones((N, T), dtype=bool), N, T))
