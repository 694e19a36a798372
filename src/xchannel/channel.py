"""Block-fading physical layer: channel tensor, messages and noise.

Coefficients h[i, j, t] connect transmitter j to receiver i in slot t and are
drawn i.i.d. CN(0, 1), with exact zeros resampled so that phase-2 precoders
may divide by any coefficient. All containers are immutable after
construction and safe to share across simulation workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ChannelRealization",
    "MessageSet",
    "NoiseModel",
    "generate_channels",
    "generate_messages",
    "stack_draws",
]


def _complex_normal(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples with the given variance."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class ChannelRealization:
    """Fading coefficients for M transmitters, N receivers over T slots.

    Attributes
    ----------
    h : ndarray
        Complex array of shape (..., N, M, T); h[..., i, j, t] is the coefficient
        from transmitter j to receiver i in slot t, after any draw axes (see
        stack_draws). Every entry has magnitude > 0.
    seed : int or tuple of int
        Seed (one per draw) that reproduces the tensor bit-exactly via generate_channels.
    """

    M: int
    N: int
    T: int
    h: np.ndarray
    seed: int


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
    seed: int | tuple[int, ...]


@dataclass(frozen=True)
class NoiseModel:
    """Additive receiver noise configuration.

    When enabled, sample_grid draws the (N, T) grid deterministically from
    the seed, or a (D, N, T) stack from D seeds. Disabled models contribute
    exactly zero.
    """

    enabled: bool
    variance: float = 1.0
    seed: int | tuple[int, ...] = 0

    def sample_grid(self, N: int, T: int) -> np.ndarray:
        lead = np.shape(self.seed)
        if not self.enabled:
            return np.zeros(lead + (N, T), dtype=complex)
        if self.variance <= 0:
            raise ValueError(f"noise variance must be positive, got {self.variance}")
        seeds = self.seed if lead else [self.seed]
        grids = [_complex_normal(np.random.default_rng(s), (N, T), self.variance) for s in seeds]
        return np.reshape(grids, lead + (N, T))


def generate_channels(M: int, N: int, T: int, seed: int) -> ChannelRealization:
    """Draw an (N, M, T) i.i.d. CN(0, 1) tensor, resampling exact zeros.

    Raises
    ------
    ValueError
        If any dimension is smaller than 1.
    """
    if M < 1 or N < 1 or T < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N} T={T}")
    rng = np.random.default_rng(seed)
    h, part = np.empty((N, M, T), dtype=complex), np.empty((N, M, T))
    for out in (h.real, h.imag):  # in place, bit for bit sqrt(1/2) * (a + 1j*b): all a, then all b
        np.multiply(rng.standard_normal(out=part), np.sqrt(0.5), out=out)
    zero = h == 0
    while zero.any():
        h[zero] = _complex_normal(rng, int(zero.sum()))
        zero = h == 0
    h.setflags(write=False)
    return ChannelRealization(M=M, N=N, T=T, h=h, seed=seed)


def generate_messages(M: int, N: int, k: int, seed: int) -> MessageSet:
    """Draw the k*M*N unit-power message symbols for one run."""
    if M < 1 or N < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N}")
    if k not in (1, 2):
        raise ValueError(f"replication factor must be 1 or 2, got {k}")
    rng = np.random.default_rng(seed)
    w = _complex_normal(rng, (N, M, k))
    w.setflags(write=False)
    return MessageSet(M=M, N=N, k=k, w=w, seed=seed)


def stack_draws(draws):
    """One ChannelRealization or MessageSet whose array gains a leading draw axis
    and whose seed is the tuple of the draws' seeds; one draw is not copied."""
    name = "h" if isinstance(draws[0], ChannelRealization) else "w"
    arrays = [getattr(d, name) for d in draws]
    stacked = arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
    stacked.setflags(write=False)
    return replace(draws[0], **{name: stacked, "seed": tuple(d.seed for d in draws)})
