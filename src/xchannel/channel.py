"""Block-fading physical layer: channel tensor, messages and noise.

Coefficients h[i, j, t] connect transmitter j to receiver i in slot t and are
drawn i.i.d. CN(0, 1), with exact zeros resampled so that phase-2 precoders
may divide by any coefficient. Every array is read-only after construction,
so the transmit plan, the observation log and the run result share one draw.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .schedule import Schedule

__all__ = [
    "ChannelRealization",
    "generate_channels",
    "generate_messages",
    "generate_noise",
    "run_streams",
]

_MASK64 = (1 << 64) - 1
_local = threading.local()  # per thread: _generator's reused Philox generator
_EMPTY_PHILOX = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def read_only(table: np.ndarray) -> np.ndarray:
    """A read-only view of table whose owner is read-only too (a copy, if table is a view):
    numpy refuses to make such a view writable again, so the table can be shared."""
    owner = table if table.base is None else table.copy()
    owner.setflags(write=False)
    return owner.view()


def run_streams(seed: int, count: int = 3, draws: range | None = None) -> np.ndarray:
    """The first count of the channel, message and noise streams of the run with this seed, as a
    read-only uint64 (count, 4) array of rows (key0, key1, draw, stream): Philox4x64 with the key
    (key0, key1) and the counter (0, 0, draw, stream) (Salmon et al., "Parallel Random Numbers: As
    Easy as 1, 2, 3", SC 2011). The key is the seed's two 64-bit words, low first; a seed of
    2**128 or more is hashed once, to SeedSequence(seed).generate_state(2, uint64). A single run
    is draw 0; with draws, a range, a (count, D, 4) array over its D draws. A stream would have
    to draw 2**128 blocks before its counter reached another stream's, so no two streams of a
    key share a random number."""
    if isinstance(seed, bool) or not hasattr(type(seed), "__index__"):  # True is no seed, nor 1.0
        raise TypeError(f"seed must be an integer, not the {type(seed).__name__} {seed!r}")
    if (seed := operator.index(seed)) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not isinstance(draws, range | None):  # a range never repeats a draw
        raise TypeError(f"draws must be a range, got {draws!r}")
    if draws and (min(draws) < 0 or max(draws) >> 64):
        raise ValueError(f"draws must lie in 0..2**64 - 1, got {draws!r}")
    if seed >> 128:
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    else:
        key = (seed & _MASK64, seed >> 64)
    streams = np.empty((count, 1 if draws is None else len(draws), 4), dtype=np.uint64)
    streams[..., :2] = key
    streams[..., 2] = 0 if draws is None else draws
    streams[..., 3] = np.arange(count)[:, None]
    return read_only(streams)[:, 0] if draws is None else read_only(streams)


def _generator() -> np.random.Generator:
    """This thread's one Philox generator, reused by every draw: resetting its state costs a
    fraction of constructing Philox(key=...), which first seeds itself from OS entropy."""
    if not hasattr(_local, "rng"):
        _local.rng = np.random.Generator(np.random.Philox(0))
    return _local.rng


def _complex_normals(streams, shape, nonzero: bool = False) -> np.ndarray:
    """CN(0, 1) samples of shape from each row of a run_streams array, stacked over its leading
    axes. A stream's normals fill the cells in C order, real then imaginary part of each,
    straight into the output, which is then scaled in place by sqrt(1/2); nonzero redraws exact
    zeros, continuing the stream."""
    if getattr(streams, "dtype", None) != np.uint64 or np.shape(streams)[-1:] != (4,):
        raise ValueError(f"streams must be a uint64 (..., 4) array of run_streams rows, got {streams!r}")
    rows = streams.reshape(-1, 4).tolist()
    out = np.empty(streams.shape[:-1] + tuple(shape), dtype=complex)
    scale = math.sqrt(0.5)  # the variance of a CN(0, 1) cell's real and imaginary parts is 1/2
    rng = _generator()
    for drawn, (key0, key1, draw, index) in zip(out.reshape(len(rows), -1), rows):
        rng.bit_generator.state = _EMPTY_PHILOX | {"state": {"key": (key0, key1), "counter": (0, 0, draw, index)}}
        normals = drawn.view(float)
        rng.standard_normal(out=normals)
        normals *= scale
        while nonzero and not drawn.all():
            zero = np.flatnonzero(drawn == 0)
            drawn[zero] = (scale * rng.standard_normal(2 * zero.size)).view(complex)
    return out


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Fading coefficients of a schedule's M transmitters, N receivers and T slots, stored for
    the U slots each receiver uses; every layout fact is read from schedule.

    Attributes
    ----------
    h : ndarray
        Complex array of shape (..., N, M, U) after any draw axes: h[..., i, j, u] is
        the coefficient from transmitter j to receiver i in slot slots[i, u]. Every
        stored entry has magnitude > 0.
    slots, columns : ndarray
        schedule.stored: the read-only (N, U) slots stored per receiver, ascending, and the
        (N, T) lookup of (receiver, slot) to its column of h, U where the slot is not stored,
        so gathering it raises IndexError.
    """

    schedule: Schedule
    h: np.ndarray

    M = property(lambda self: self.schedule.M)
    N = property(lambda self: self.schedule.N)
    T = property(lambda self: self.schedule.T)
    slots = property(lambda self: self.schedule.stored[0])
    columns = property(lambda self: self.schedule.stored[1])

    def rows(self, receiver, slot) -> np.ndarray:
        """Coefficient rows h[..., receiver, :, slot] as (..., *shape, M), for index arrays
        receiver and slot broadcast to shape; a slot not stored raises IndexError."""
        return self.h.swapaxes(-1, -2)[..., receiver, self.columns[receiver, slot], :]


def slot_tables(mask, N: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (N, U) slots an (N, T) bool mask selects per receiver, U >= 1 in every row,
    and the read-only (N, T) lookup of each cell's column among them, U where not selected."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (N, T):
        raise ValueError(f"mask must be a bool array of shape {(N, T)}, got {mask.dtype} {mask.shape}")
    counts = mask.sum(axis=1).tolist()
    if min(counts) < 1 or len(set(counts)) > 1:
        raise ValueError(f"every mask row must select the same number of slots, at least one; rows select {counts}")
    columns = np.full((N, T), counts[0], dtype=np.intp)
    columns[mask] = np.arange(N * counts[0]) % counts[0]  # each selected cell's rank in its row
    return read_only(np.nonzero(mask)[1].reshape(N, -1)), read_only(columns)


def generate_channels(schedule: Schedule, streams) -> ChannelRealization:
    """Draw i.i.d. CN(0, 1) channel coefficients, resampling exact zeros.

    The schedule gives the shapes: M, N, T, and schedule.stored, the slot tables of its used
    mask, which the realization reads from it. Only the coefficients h[i, :, t] with used[i, t]
    set are drawn, in C order of (N, M, T), real then imaginary part of each, and stored in
    that order as an (N, M, U) tensor with the mask's rows as slots. streams is a run_streams
    array: one (4,) stream draws an (N, M, U) tensor, a (D, 4) stack a (D, N, M, U) stack.

    Raises
    ------
    ValueError
        If streams is not a run_streams array.
    """
    shape = (schedule.N, schedule.M, schedule.stored[0].shape[1])
    return ChannelRealization(schedule, read_only(_complex_normals(streams, shape, nonzero=True)))


def generate_messages(schedule: Schedule, streams) -> np.ndarray:
    """Draw the read-only (N, M, k) unit-power message symbols w[i, j, c] for receiver i from
    transmitter j, copy c, of the schedule's shape, for one run_streams stream, or a
    (..., N, M, k) stack over its leading axes. The k copies are the replicas of schedules
    that double the message load."""
    return read_only(_complex_normals(streams, (schedule.N, schedule.M, schedule.k)))


def generate_noise(schedule: Schedule, streams) -> np.ndarray:
    """Draw the read-only unit-variance CN(0, 1) receiver noise of the schedule's (N, U) stored
    cells, in the order of its stored slots (ChannelRealization.slots), for one run_streams
    stream, or a (..., N, U) stack over its leading axes."""
    return read_only(_complex_normals(streams, schedule.stored[0].shape))
