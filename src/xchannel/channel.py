"""Block-fading physical layer: channel tensor, messages and noise.

Coefficients h[i, j, t] connect transmitter j to receiver i in slot t and are
drawn i.i.d. CN(0, 1), with exact zeros resampled so that phase-2 precoders
may divide by any coefficient. All containers are immutable after
construction and safe to share across simulation workers.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelRealization",
    "MessageSet",
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


def run_streams(seed: int, count: int = 3, draws=None) -> tuple:
    """The first count of the channel, message and noise streams of the run with this seed, each
    the tuple (key0, key1, draw, stream): Philox4x64 with the key (key0, key1) and the counter
    (0, 0, draw, stream) (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011).
    The key is the seed's two 64-bit words, low first; a seed of 2**128 or more is hashed once,
    to SeedSequence(seed).generate_state(2, uint64). A single run is draw 0; with draws, count
    tuples over the draws. A stream would have to draw 2**128 blocks before its counter reached
    another stream's, so no two streams of a key share a random number."""
    if (seed := operator.index(seed)) < 0:  # TypeError for a float or a SeedSequence
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if seed >> 128:
        key = tuple(np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist())
    else:
        key = (seed & _MASK64, seed >> 64)
    if draws is None:
        return tuple(key + (0, c) for c in range(count))
    return tuple(tuple(key + (d, c) for d in draws) for c in range(count))


def _generator() -> np.random.Generator:
    """This thread's one Philox generator, reused by every draw: resetting its state costs a
    fraction of constructing Philox(key=...), which first seeds itself from OS entropy."""
    if not hasattr(_local, "rng"):
        _local.rng = np.random.Generator(np.random.Philox(0))
    return _local.rng


def _complex_normals(seed, shape, nonzero: bool = False) -> np.ndarray:
    """CN(0, 1) samples of shape from one stream tuple, or stacked on a leading axis for a tuple
    of them; an int seed is stream 0 of its run, run_streams(seed, 1)[0]. A stream's normals fill
    the cells in C order, real then imaginary part of each, straight into the output, which is
    then scaled in place by sqrt(1/2); nonzero redraws exact zeros, continuing the stream."""
    if isinstance(seed, (int, np.integer)):
        seed = run_streams(seed, 1)[0]
    streams, lead = (seed, (len(seed),)) if isinstance(seed[0], tuple) else ((seed,), ())
    out = np.empty(lead + tuple(shape), dtype=complex)
    scale = math.sqrt(0.5)  # the variance of a CN(0, 1) cell's real and imaginary parts is 1/2
    rng = _generator()
    for drawn, (key0, key1, draw, index) in zip(out.reshape(len(streams), -1), streams):
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
    """Fading coefficients for M transmitters, N receivers over T slots, stored for
    the U slots each receiver uses.

    Attributes
    ----------
    h : ndarray
        Complex array of shape (..., N, M, U) after any draw axes: h[..., i, j, u] is
        the coefficient from transmitter j to receiver i in slot slots[i, u]. Every
        stored entry has magnitude > 0.
    slots : ndarray
        Read-only (N, U) table of the slots stored per receiver, ascending;
        slot_tables(None, N, T) stores every slot (U = T).
    columns : ndarray
        Read-only (N, T) lookup of (receiver, slot) to its column of h, given with
        slots (slot_tables); U where the slot is not stored, so gathering it raises IndexError.
    """

    M: int
    N: int
    T: int
    h: np.ndarray
    slots: np.ndarray
    columns: np.ndarray = field(repr=False)

    def rows(self, receiver, slot) -> np.ndarray:
        """Coefficient rows h[..., receiver, :, slot] as (..., *shape, M), for index arrays
        receiver and slot broadcast to shape; a slot not stored raises IndexError."""
        return self.h.swapaxes(-1, -2)[..., receiver, self.columns[receiver, slot], :]


@dataclass(frozen=True, eq=False)
class MessageSet:
    """Independent message symbols w[i, j, c] for receiver i from transmitter j.

    The copy axis c covers the k replicas used by schedules that double the
    message load. Symbols are i.i.d. CN(0, 1), i.e. unit average power, drawn
    as by generate_channels.
    """

    w: np.ndarray  # complex, shape (..., N, M, k)


def slot_tables(mask, N: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (N, U) slots an (N, T) bool mask selects per receiver, U >= 1 in every row,
    and the read-only (N, T) lookup of each cell's column among them, U where not selected."""
    mask = np.ones((N, T), dtype=bool) if mask is None else np.asarray(mask)
    if mask.dtype != bool or mask.shape != (N, T):
        raise ValueError(f"mask must be a bool array of shape {(N, T)}, got {mask.dtype} {mask.shape}")
    counts = mask.sum(axis=1).tolist()
    if min(counts) < 1 or len(set(counts)) > 1:
        raise ValueError(f"every mask row must select the same number of slots, at least one; rows select {counts}")
    columns = np.full((N, T), counts[0], dtype=np.intp)
    columns[mask] = np.arange(N * counts[0]) % counts[0]  # each selected cell's rank in its row
    return read_only(np.nonzero(mask)[1].reshape(N, -1)), read_only(columns)


def generate_channels(M: int, N: int, T: int, seed, *,
                      stored: tuple[np.ndarray, np.ndarray] | None = None) -> ChannelRealization:
    """Draw i.i.d. CN(0, 1) channel coefficients, resampling exact zeros.

    stored is slot_tables(mask, N, T) of an (N, T) bool mask, as Schedule.stored for its
    used table: it draws only the coefficients h[i, :, t] with mask[i, t] set, in C order
    of (N, M, T), real then imaginary part of each, and stores them in that order as an
    (N, M, U) tensor with the mask's rows as slots. None stores all T slots, bit for bit as
    the tables of an all-True mask. seed is a stream tuple of run_streams or an int seed,
    the stream run_streams(seed, 1)[0]; a tuple of D stream tuples fills a (D, N, M, U) stack.

    Raises
    ------
    ValueError
        If any dimension is smaller than 1.
    """
    if M < 1 or N < 1 or T < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N} T={T}")
    slots, columns = slot_tables(None, N, T) if stored is None else stored
    h = read_only(_complex_normals(seed, (N, M, slots.shape[1]), nonzero=True))
    return ChannelRealization(M=M, N=N, T=T, h=h, slots=slots, columns=columns)


def generate_messages(M: int, N: int, k: int, seed) -> MessageSet:
    """Draw the k*M*N unit-power message symbols for one stream, or a stack for a tuple of them."""
    if M < 1 or N < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N}")
    if k not in (1, 2):
        raise ValueError(f"replication factor must be 1 or 2, got {k}")
    return MessageSet(w=read_only(_complex_normals(seed, (N, M, k))))


def generate_noise(N: int, U: int, seed) -> np.ndarray:
    """Draw the read-only unit-variance CN(0, 1) receiver noise of the (N, U) stored cells, in the
    order of ChannelRealization.slots, for one stream, or a (D, N, U) stack for a tuple of them."""
    return read_only(_complex_normals(seed, (N, U)))
