"""Block-fading physical layer: channel tensor, messages and noise.

Coefficients h[i, j, t] connect transmitter j to receiver i in slot t and are
drawn i.i.d. CN(0, 1), with exact zeros resampled so that phase-2 precoders
may divide by any coefficient. All containers are immutable after
construction and safe to share across simulation workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelRealization",
    "MessageSet",
    "NoiseModel",
    "generate_channels",
    "generate_messages",
    "run_streams",
]


def _complex_normals(seed, shape, variance: float = 1.0, nonzero: bool = False) -> np.ndarray:
    """CN(0, variance) samples of shape, stacked on a leading axis for a tuple of seeds. Seed s gives
    bit for bit sqrt(variance/2) * (a + 1j*b), a then b from default_rng(s), through one (2, size)
    buffer reused by every draw; nonzero redraws exact zeros from the same generator."""
    seeds, lead = (seed, (len(seed),)) if isinstance(seed, tuple) else ((seed,), ())
    n = math.prod(shape)
    out = np.empty(lead + tuple(shape), dtype=complex)
    parts = np.empty((2, n))
    scale = math.sqrt(variance / 2.0)
    for drawn, s in zip(out.reshape(-1, n), seeds):
        rng = np.random.default_rng(s)
        rng.standard_normal(out=parts)
        parts *= scale
        drawn.real, drawn.imag = parts
        while nonzero and (zero := drawn == 0).any():  # default_rng(rng) is rng: redraws continue its stream
            drawn[zero] = _complex_normals(rng, (int(zero.sum()),))
    return out


def run_streams(seed, count: int = 3, key: tuple = ()) -> tuple[np.random.SeedSequence, ...]:
    """The channel, message and noise streams of the run rooted at SeedSequence(seed,
    spawn_key=key), the first count of them: those of a fresh such SeedSequence.spawn(3),
    built without it or spawn's counter, so every call gives the same streams."""
    if isinstance(seed, np.random.SeedSequence):
        seed, key = seed.entropy, seed.spawn_key + key
    return tuple(np.random.SeedSequence(seed, spawn_key=key + (c,)) for c in range(count))


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
    seed : int, SeedSequence or tuple of them
        Seed (one per draw) that, with the mask, reproduces the tensor via generate_channels.
    slots : ndarray
        Read-only (N, U) table of the slots stored per receiver, ascending. Left out,
        every slot is stored (U = T), so h is the full (..., N, M, T) tensor.
    columns : ndarray
        Read-only (N, T) lookup of (receiver, slot) to its column of h, built from
        slots; U where the slot is not stored, so gathering it raises IndexError.
    """

    M: int
    N: int
    T: int
    h: np.ndarray
    seed: int | np.random.SeedSequence | tuple
    slots: np.ndarray | None = None
    columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        slots = np.broadcast_to(np.arange(self.T), (self.N, self.T)) if self.slots is None else self.slots
        U = slots.shape[-1]
        columns = np.full((self.N, self.T), U, dtype=np.intp)
        columns[np.arange(self.N)[:, None], slots] = np.arange(U)
        columns.setflags(write=False)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "columns", columns)

    def rows(self, receiver, slot) -> np.ndarray:
        """Coefficient rows h[..., receiver, :, slot] as (..., *shape, M), for index arrays
        receiver and slot broadcast to shape; a slot not stored raises IndexError."""
        return np.swapaxes(self.h, -1, -2)[..., receiver, self.columns[receiver, slot], :]


@dataclass(frozen=True, eq=False)
class MessageSet:
    """Independent message symbols w[i, j, c] for receiver i from transmitter j.

    The copy axis c covers the k replicas used by schedules that double the
    message load. Symbols are i.i.d. CN(0, 1), i.e. unit average power.
    """

    M: int
    N: int
    k: int
    w: np.ndarray  # complex, shape (..., N, M, k)
    seed: int | np.random.SeedSequence | tuple


@dataclass(frozen=True)
class NoiseModel:
    """Additive receiver noise configuration.

    When enabled, sample_grid draws the (N, T) grid deterministically from
    the seed, or a (D, N, T) stack from D seeds. Disabled models contribute
    exactly zero.
    """

    enabled: bool
    variance: float = 1.0
    seed: int | np.random.SeedSequence | tuple = 0

    def sample_grid(self, N: int, T: int) -> np.ndarray:
        if not self.enabled:
            lead = (len(self.seed),) if isinstance(self.seed, tuple) else ()
            return np.zeros(lead + (N, T), dtype=complex)
        if self.variance <= 0:
            raise ValueError(f"noise variance must be positive, got {self.variance}")
        return _complex_normals(self.seed, (N, T), self.variance)


def _stored_slots(mask, N: int, T: int) -> np.ndarray:
    """The (N, U) slots an (N, T) bool mask selects per receiver; every row must select U >= 1."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (N, T):
        raise ValueError(f"mask must be a bool array of shape {(N, T)}, got {mask.dtype} {mask.shape}")
    counts = mask.sum(axis=1).tolist()
    if min(counts) < 1 or len(set(counts)) > 1:
        raise ValueError(f"every mask row must select the same number of slots, at least one; rows select {counts}")
    slots = np.nonzero(mask)[1].reshape(N, -1)
    slots.setflags(write=False)
    return slots


def generate_channels(M: int, N: int, T: int, seed, mask: np.ndarray | None = None) -> ChannelRealization:
    """Draw i.i.d. CN(0, 1) channel coefficients, resampling exact zeros.

    An (N, T) bool mask whose rows each select the same U >= 1 slots draws only the
    coefficients h[i, :, t] with mask[i, t] set, in C order of (N, M, T), all real then
    all imaginary parts, and stores them in that order as an (N, M, U) tensor with
    the mask's rows as slots. No mask stores all T slots; an all-True mask is no mask,
    bit for bit. A tuple of seeds fills a (D, N, M, U) stack draw by draw.

    Raises
    ------
    ValueError
        If any dimension is smaller than 1, or the mask is not bool, not (N, T), or
        its rows select different numbers of slots or none.
    """
    if M < 1 or N < 1 or T < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N} T={T}")
    slots = None if mask is None else _stored_slots(mask, N, T)
    U = T if slots is None else slots.shape[1]
    h = _complex_normals(seed, (N, M, U), nonzero=True)
    h.setflags(write=False)
    return ChannelRealization(M=M, N=N, T=T, h=h, seed=seed, slots=slots)


def generate_messages(M: int, N: int, k: int, seed) -> MessageSet:
    """Draw the k*M*N unit-power message symbols for one run, or a stack for a tuple of seeds."""
    if M < 1 or N < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N}")
    if k not in (1, 2):
        raise ValueError(f"replication factor must be 1 or 2, got {k}")
    w = _complex_normals(seed, (N, M, k))
    w.setflags(write=False)
    return MessageSet(M=M, N=N, k=k, w=w, seed=seed)
