"""Block-fading physical layer: channel tensor, messages and noise.

Coefficients h[i, j, t] connect transmitter j to receiver i in slot t and are
drawn i.i.d. CN(0, 1), with exact zeros resampled so that phase-2 precoders
may divide by any coefficient. All containers are immutable after
construction and safe to share across simulation workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelRealization",
    "MessageSet",
    "NoiseModel",
    "generate_channels",
    "generate_messages",
    "run_streams",
]


def _complex_normal(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples with the given variance."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _draw_seeds(seed) -> tuple[tuple, tuple[int, ...]]:  # the per-draw seeds, and the draw axes they give
    return (seed, (len(seed),)) if isinstance(seed, tuple) else ((seed,), ())


def run_streams(seed) -> tuple[np.random.SeedSequence, ...]:
    """The channel, message and noise streams of the run rooted at seed: those of a fresh
    SeedSequence(seed).spawn(3), without spawn's counter, so every call gives the same three."""
    entropy, key = (seed.entropy, seed.spawn_key) if isinstance(seed, np.random.SeedSequence) else (seed, ())
    return tuple(np.random.SeedSequence(entropy, spawn_key=key + (c,)) for c in range(3))


@dataclass(frozen=True)
class ChannelRealization:
    """Fading coefficients for M transmitters, N receivers over T slots.

    Attributes
    ----------
    h : ndarray
        Complex array of shape (..., N, M, T); h[..., i, j, t] is the coefficient
        from transmitter j to receiver i in slot t, after any draw axes. Every
        drawn entry has magnitude > 0; cells outside the draw's mask are NaN.
    seed : int, SeedSequence or tuple of them
        Seed (one per draw) that, with the mask, reproduces the tensor via generate_channels.
    """

    M: int
    N: int
    T: int
    h: np.ndarray
    seed: int | np.random.SeedSequence | tuple


@dataclass(frozen=True)
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
        seeds, lead = _draw_seeds(self.seed)
        if not self.enabled:
            return np.zeros(lead + (N, T), dtype=complex)
        if self.variance <= 0:
            raise ValueError(f"noise variance must be positive, got {self.variance}")
        grids = [_complex_normal(np.random.default_rng(s), (N, T), self.variance) for s in seeds]
        return np.reshape(grids, lead + (N, T))


def generate_channels(M: int, N: int, T: int, seed, mask: np.ndarray | None = None) -> ChannelRealization:
    """Draw an (N, M, T) i.i.d. CN(0, 1) tensor, resampling exact zeros.

    An (N, T) bool mask draws only the cells h[i, :, t] with mask[i, t] set, in
    C order of (N, M, T), all real then all imaginary parts, and leaves NaN in the
    others; an all-True mask is no mask, bit for bit. A tuple of seeds fills a
    (D, N, M, T) stack draw by draw.

    Raises
    ------
    ValueError
        If any dimension is smaller than 1.
    """
    if M < 1 or N < 1 or T < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N} T={T}")
    seeds, lead = _draw_seeds(seed)
    cells = np.ones((N, M, T), dtype=bool) if mask is None else mask[:, None, :].repeat(M, axis=1)
    n = int(np.count_nonzero(cells))
    h = np.full(lead + (N, M, T), complex(np.nan, np.nan))
    for out, s in zip(h.reshape((-1, N, M, T)), seeds):
        rng, drawn = np.random.default_rng(s), np.empty(n, dtype=complex)
        for part in (drawn.real, drawn.imag):  # bit for bit sqrt(1/2) * (a + 1j*b): all a, then all b
            np.multiply(rng.standard_normal(n), np.sqrt(0.5), out=part)
        zero = drawn == 0
        while zero.any():
            drawn[zero] = _complex_normal(rng, int(zero.sum()))
            zero = drawn == 0
        out[cells] = drawn
    h.setflags(write=False)
    return ChannelRealization(M=M, N=N, T=T, h=h, seed=seed)


def generate_messages(M: int, N: int, k: int, seed) -> MessageSet:
    """Draw the k*M*N unit-power message symbols for one run, or a stack for a tuple of seeds."""
    if M < 1 or N < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N}")
    if k not in (1, 2):
        raise ValueError(f"replication factor must be 1 or 2, got {k}")
    seeds, lead = _draw_seeds(seed)
    w = np.reshape([_complex_normal(np.random.default_rng(s), (N, M, k)) for s in seeds], lead + (N, M, k))
    w.setflags(write=False)
    return MessageSet(M=M, N=N, k=k, w=w, seed=seed)
