"""Block-fading physical layer: channel tensor, messages and noise.

Coefficients h[i, j, t] connect transmitter j to receiver i in slot t and are
drawn i.i.d. CN(0, 1), with exact zeros resampled so that phase-2 precoders
may divide by any coefficient. All containers are immutable after
construction and safe to share across simulation workers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelRealization",
    "MessageSet",
    "NoiseModel",
    "Stream",
    "generate_channels",
    "generate_messages",
    "run_streams",
]


def read_only(table: np.ndarray) -> np.ndarray:
    """A read-only view of table whose owner is read-only too (a copy, if table is a view):
    numpy refuses to make such a view writable again, so the table can be shared."""
    owner = table if table.base is None else table.copy()
    owner.setflags(write=False)
    return owner.view()


def _complex_normals(seed, shape, variance: float = 1.0, nonzero: bool = False) -> np.ndarray:
    """CN(0, variance) samples of shape, stacked on a leading axis for a tuple of seeds. Seed s gives
    bit for bit sqrt(variance/2) * (a + 1j*b), a then b from default_rng(s), each through one
    size-long buffer reused by every draw; nonzero redraws exact zeros from the same generator."""
    seeds, lead = (seed, (len(seed),)) if isinstance(seed, tuple) else ((seed,), ())
    n = math.prod(shape)
    out = np.empty(lead + tuple(shape), dtype=complex)
    buffer = np.empty(n)
    scale = math.sqrt(variance / 2.0)
    for drawn, s in zip(out.reshape(-1, n), seeds):
        rng = np.random.default_rng(s)
        for part in (drawn.real, drawn.imag):
            rng.standard_normal(out=buffer)
            np.multiply(buffer, scale, out=part)
        while nonzero and (zero := drawn == 0).any():  # default_rng(rng) is rng: redraws continue its stream
            drawn[zero] = _complex_normals(rng, (int(zero.sum()),))
    return out


# numpy.random.SeedSequence's hash constants, for its default pool of 4 uint32 words
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash(value, const, after):
    """SeedSequence's hashmix of value under the hash constant const, with after the constant
    that follows it. The same expression serves Python ints and broadcast uint32 arrays."""
    value = (value ^ const) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of the pool word x with the hashed word y."""
    x = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return x ^ x >> 16


@functools.lru_cache(maxsize=64)
def _constants(const: int, mult: int, n: int) -> np.ndarray:
    """Read-only uint32 array of the n hash constants from const on, then the one after them."""
    out = [const]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return read_only(np.array(out, dtype=np.uint32))


def _words(value) -> list[int]:
    """SeedSequence's uint32 words of an int (least significant first, 0 is one word) or of a
    sequence of them, concatenated."""
    if isinstance(value, (int, np.integer)):
        if value < 0:
            raise ValueError("expected non-negative integer")
        value = int(value)
        return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]
    if isinstance(value, (list, tuple, range, np.ndarray)):
        return [w for v in value for w in _words(v)]
    raise TypeError(f"SeedSequence expects int or sequence of ints for entropy not {value!r}")


def _generate_state(pools: np.ndarray, n_words: int, dtype) -> np.ndarray:
    """SeedSequence.generate_state(n_words, dtype) of every (..., 4) uint32 pool at once."""
    dtype = np.dtype(dtype)
    if dtype not in (np.uint32, np.uint64):
        raise ValueError("only support uint32 or uint64")
    n = n_words * dtype.itemsize // 4
    cycles = -(-n // 4)  # word i hashes pool word i % 4
    consts = _constants(_INIT_B, _MULT_B, 4 * cycles)
    words = _hash(pools[..., None, :], consts[:-1].reshape(-1, 4), consts[1:].reshape(-1, 4))
    words = words.reshape(pools.shape[:-1] + (-1,))[..., :n]
    if dtype == np.uint32:
        return words
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class Stream:
    """One run stream: bit for bit numpy.random.SeedSequence(entropy, spawn_key=spawn_key) in
    generate_state, and so in default_rng, without spawn. pool is its (4,) uint32 entropy pool;
    state is default_rng's generate_state(4, uint64), hashed with its sibling streams. It is a
    numpy.random.bit_generator.ISeedSequence, registered when the first streams are built."""

    __slots__ = ("entropy", "spawn_key", "pool", "_state")

    def __init__(self, entropy, spawn_key: tuple, pool: np.ndarray, state: np.ndarray):
        self.entropy, self.spawn_key, self.pool, self._state = entropy, spawn_key, pool, state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:  # default_rng's request
            return self._state.copy()
        return _generate_state(self.pool, n_words, dtype)


def _seed_pool(entropy: tuple[int, ...], key: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """SeedSequence's (4,) pool after the entropy words, zero-padded to the pool as numpy pads
    them when a spawn key follows, then the key words, mixed in Python ints; and the hash
    constant next in line."""
    words = entropy + (0,) * (4 - len(entropy)) + key
    consts = _constants(_INIT_A, _MULT_A, 4 * len(words)).tolist()
    pairs = zip(consts, consts[1:])
    pool = [_hash(w, *next(pairs)) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hash(pool[src], *next(pairs)))
    for w in words[4:]:
        pool = [_mix(p, _hash(w, *next(pairs))) for p in pool]
    return np.array(pool, dtype=np.uint32), consts[-1]


@functools.lru_cache(maxsize=64)
def _column_hashes(column: tuple, const: int) -> tuple:
    """The hashes a column's values mix into a pool, when const is the hash constant their first
    word takes: per run of values with n words each, an (n, R, 4) uint32 array and the constant
    next in line. They do not depend on the pool, so every pool of every seed shares them."""
    runs = []
    for n, values in itertools.groupby(map(_words, column), key=len):
        words = np.array(list(values), dtype=np.uint32).T[..., None]
        consts = _constants(const, _MULT_A, 4 * n)
        hashes = _hash(words, consts[:-1].reshape(n, 1, 4), consts[1:].reshape(n, 1, 4))
        runs.append((read_only(hashes), int(consts[-1])))
    return tuple(runs)


def _mix_columns(pools: np.ndarray, const: int, columns: tuple) -> np.ndarray:
    """Mix each value of the first column into every (..., 4) pool, adding its axis before the
    last, then the next columns likewise; const is the hash constant the first word takes."""
    if not columns:
        return pools
    parts = []
    for hashes, after in _column_hashes(columns[0], const):
        mixed = pools[..., None, :]
        for word_hashes in hashes:
            mixed = _mix(mixed, word_hashes)
        parts.append(_mix_columns(mixed, after, columns[1:]))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1 - len(columns))


@functools.lru_cache(maxsize=8)
def _hash_streams(entropy: tuple, key: tuple, columns: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (K, 4) pools and default_rng states of the streams with the entropy words and
    spawn key words key + tail, for every tail in the product of the columns, in C order: the
    entropy and key words mix into one pool in Python ints, then each column's words into all
    its values' pools as uint32 arrays. Cached, since runs often share a seed: a verify suite
    runs seed 0 for each of its schedules."""
    pool, const = _seed_pool(entropy, key)
    pools = _mix_columns(pool, const, columns).reshape(-1, 4)
    return read_only(pools), read_only(_generate_state(pools, 4, np.uint64))


def _spawn(entropy, key: tuple, *columns) -> list[Stream]:
    """The streams SeedSequence(entropy, spawn_key=key + tail) for every tail in the product of
    the int columns, in C order, from one hash."""
    # numpy.random loads on first use, as numpy itself loads it: commands that draw nothing skip it
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(Stream)
    columns = tuple(map(tuple, columns))
    pools, states = _hash_streams(tuple(_words(entropy)), tuple(_words(key)), columns)
    tails = itertools.product(*columns)
    return [Stream(entropy, key + t, p, s) for t, p, s in zip(tails, pools, states)]


def run_streams(seed, count: int = 3, key: tuple = (), draws=None) -> tuple:
    """The channel, message and noise streams of the run rooted at SeedSequence(seed,
    spawn_key=key), the first count of them: those of a fresh such SeedSequence.spawn(3),
    built without it or spawn's counter, so every call gives the same streams. With draws,
    the streams of every draw d, rooted at SeedSequence(seed, spawn_key=key + (d,)), as count
    tuples over the draws. Each stream equals numpy's SeedSequence(seed, spawn_key=key + (d, c))
    bit for bit; all of them come from one vectorised hash."""
    if isinstance(seed, (np.random.SeedSequence, Stream)):
        seed, key = seed.entropy, seed.spawn_key + key
    if draws is None:
        return tuple(_spawn(seed, key, range(count)))
    streams = _spawn(seed, key, draws, range(count))
    return tuple(tuple(streams[c::count]) for c in range(count))


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
    seed : int, SeedSequence, Stream or tuple of them
        Seed (one per draw) that, with the slot tables, reproduces the tensor via generate_channels.
    slots : ndarray
        Read-only (N, U) table of the slots stored per receiver, ascending. Left out,
        every slot is stored (U = T), so h is the full (..., N, M, T) tensor.
    columns : ndarray
        Read-only (N, T) lookup of (receiver, slot) to its column of h, given with
        slots (slot_tables); U where the slot is not stored, so gathering it raises IndexError.
    """

    M: int
    N: int
    T: int
    h: np.ndarray
    seed: int | np.random.SeedSequence | Stream | tuple
    slots: np.ndarray | None = None
    columns: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.slots is None:
            slots, columns = slot_tables(None, self.N, self.T)
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
    seed: int | np.random.SeedSequence | Stream | tuple


@dataclass(frozen=True)
class NoiseModel:
    """Additive receiver noise configuration.

    sample_grid draws the (N, T) grid deterministically from the seed, or a
    (D, N, T) stack from D seeds. observe_all adds it only when enabled, so
    disabled models contribute exactly zero.
    """

    enabled: bool
    variance: float = 1.0
    seed: int | np.random.SeedSequence | Stream | tuple = 0

    def sample_grid(self, N: int, T: int) -> np.ndarray:
        if self.variance <= 0:
            raise ValueError(f"noise variance must be positive, got {self.variance}")
        return _complex_normals(self.seed, (N, T), self.variance)


def slot_tables(mask, N: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (N, U) slots an (N, T) bool mask selects per receiver, U >= 1 in every row,
    and the read-only (N, T) lookup of each cell's column among them, U where not selected."""
    mask = np.ones((N, T), dtype=bool) if mask is None else np.asarray(mask)
    if mask.dtype != bool or mask.shape != (N, T):
        raise ValueError(f"mask must be a bool array of shape {(N, T)}, got {mask.dtype} {mask.shape}")
    counts = mask.sum(axis=1).tolist()
    if min(counts) < 1 or len(set(counts)) > 1:
        raise ValueError(f"every mask row must select the same number of slots, at least one; rows select {counts}")
    columns = np.where(mask, np.cumsum(mask, axis=1, dtype=np.intp) - 1, counts[0])
    return read_only(np.nonzero(mask)[1].reshape(N, -1)), read_only(columns)


def generate_channels(M: int, N: int, T: int, seed, *,
                      stored: tuple[np.ndarray, np.ndarray] | None = None) -> ChannelRealization:
    """Draw i.i.d. CN(0, 1) channel coefficients, resampling exact zeros.

    stored is slot_tables(mask, N, T) of an (N, T) bool mask, as Schedule.stored for its
    used table: it draws only the coefficients h[i, :, t] with mask[i, t] set, in C order
    of (N, M, T), all real then all imaginary parts, and stores them in that order as an
    (N, M, U) tensor with the mask's rows as slots. None stores all T slots, bit for bit as
    the tables of an all-True mask. A tuple of seeds fills a (D, N, M, U) stack.

    Raises
    ------
    ValueError
        If any dimension is smaller than 1.
    """
    if M < 1 or N < 1 or T < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N} T={T}")
    slots, columns = slot_tables(None, N, T) if stored is None else stored
    h = read_only(_complex_normals(seed, (N, M, slots.shape[1]), nonzero=True))
    return ChannelRealization(M=M, N=N, T=T, h=h, seed=seed, slots=slots, columns=columns)


def generate_messages(M: int, N: int, k: int, seed) -> MessageSet:
    """Draw the k*M*N unit-power message symbols for one run, or a stack for a tuple of seeds."""
    if M < 1 or N < 1:
        raise ValueError(f"dimensions must be at least 1, got M={M} N={N}")
    if k not in (1, 2):
        raise ValueError(f"replication factor must be 1 or 2, got {k}")
    w = read_only(_complex_normals(seed, (N, M, k)))
    return MessageSet(M=M, N=N, k=k, w=w, seed=seed)
