"""Two-phase transmission schedules and per-slot CSIT state tables.

Phase 1 broadcasts each (receiver, copy) message group once. Phase 2 serves
receivers in pairs: each pair slot hands both members one fresh combination
of their desired messages while the interference it creates replays an
observation the member already stored during phase 1. Decodability therefore
needs every (receiver, copy) to take part in exactly M-1 pair slots; the
builders below construct such balanced sequences for every supported (M, N),
and every Schedule checks its phase-1 broadcasts and its balance when it is
constructed.

CSIT states use one character per (receiver, slot) cell: "P" for perfect
current-slot knowledge, "D" for delayed knowledge (readable at any strictly
later slot), "N" for none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property, lru_cache

import numpy as np

from .channel import read_only, slot_tables

__all__ = [
    "SchemeCase",
    "UnsupportedConfigurationError",
    "SchemeConstructionError",
    "ObservationKind",
    "Schedule",
    "CsitTable",
    "classify_case",
    "replication_factor",
    "one_factorization",
    "hamiltonian_cycles",
    "build_schedule",
    "build_csit_table",
    "permute_schedule",
    "count_csit_variants",
    "format_schedule",
    "format_csit_table",
]

_SCHEDULE_CACHE_SIZE = 64  # canonical schedules kept per process; a verify grid of 8 has 56


class SchemeCase(Enum):
    """Scheduling regime for a given (M, N); ties (M = N) go to the M >= N branch."""

    M_GE_N_GENERAL = "M_GE_N_GENERAL"
    M_GE_N_EVEN_M_ODD_N = "M_GE_N_EVEN_M_ODD_N"
    N_GE_M_EVEN_N = "N_GE_M_EVEN_N"
    N_GE_M_ODD_N = "N_GE_M_ODD_N"


class UnsupportedConfigurationError(ValueError):
    """The (M, N) pair admits no pairing-based schedule (needs N >= 2)."""


class SchemeConstructionError(RuntimeError):
    """A Schedule's member table is malformed or unbalanced; raised on construction, never by a system."""


class ObservationKind(IntEnum):
    """Role of one (receiver, slot) observation, stored as an int8 code."""

    DESIRED_PHASE1 = 0
    INTERFERENCE_PHASE1 = 1
    COMBINED_PHASE2 = 2
    DISCARDED = 3


@dataclass(frozen=True, eq=False)
class Schedule:
    """Complete slot plan for one run: kN phase-1 slots then the pair slots.

    `members` is the one field: a read-only (T, 2, 2) index table of the two (receiver, copy)
    members each slot serves, a phase-1 slot listing its single group twice. Slot indices are
    0-based and global: phase 1 occupies 0..k*N-1 (copy-major in the canonical schedule), phase 2
    the remainder. The table fixes the dimensions, which construction derives once: k and N are
    one more than the largest copy and receiver, and M is 1 + 2P/(kN) for the P slots after
    phase 1. Every other table, the CSIT table included, is a view derived from it; compare
    schedules by their `members`. Construction checks the indices, the phase-1 broadcasts
    (_check_phase1) and the phase-2 balance (_check_balance), so every schedule, built, permuted
    or made by hand, is checked once and its derived tables need no checks of their own. They
    also fix the shapes a run reads from it: N >= 1, k in (1, 2), M >= 1 and T >= kN. Every
    table is a read-only view of a read-only owner, so build_schedule can share one per (M, N).
    """

    members: np.ndarray

    case = property(lambda self: classify_case(self.M, self.N), doc="classify_case(M, N), built on read.")

    def __post_init__(self):
        if (given := self.members).dtype.kind not in "iu" or given.shape[1:] != (2, 2) or not len(given):
            raise SchemeConstructionError(
                f"members must be a non-empty (T, 2, 2) integer table, got {given.dtype} {given.shape}"
            )
        # intp: the keys c*N + i and the derived index tables would wrap in a smaller integer type
        object.__setattr__(self, "members", members := read_only(given.astype(np.intp, copy=False)))
        top = members.max(axis=(0, 1))  # the largest receiver and copy
        if members.min() < 0 or top[1] > 1:
            bad = (members < 0) | (members > [top[0], 1])  # argmax: the first offender
            t, m, field = np.unravel_index(bad.argmax(), bad.shape)
            raise SchemeConstructionError(
                f"slot {t} holds {('receiver', 'copy')[field]} {members[t, m, field]}, "
                f"expected {('0 or more', '0 or 1')[field]}"
            )
        N, k = (v + 1 for v in top.tolist())  # in Python: top + 1 wraps for a receiver of 2**63 - 1
        first, pair_slots = k * N, len(members) - k * N
        if pair_slots < 0:  # before any table of kN counts is allocated
            raise SchemeConstructionError(f"{len(members)} slots, fewer than the kN = {first} of phase 1")
        keys = members[..., 1] * N + members[..., 0]  # copy-major keys c*N + i
        _check_phase1(N, k, keys[:first])
        rounds, rem = divmod(2 * pair_slots, first)  # M - 1
        if rem:
            raise SchemeConstructionError(f"phase 2 has {pair_slots} slots, kN(M-1)/2 for no M (kN = {first})")
        self.__dict__.update(M=rounds + 1, N=N, k=k)  # past the frozen __setattr__, as cached_property
        _check_balance(rounds + 1, N, k, members[first:, :, 0], keys[first:])

    @cached_property
    def T(self) -> int:
        return len(self.members)

    @cached_property
    def phase1_len(self) -> int:
        return self.k * self.N

    @cached_property
    def phase1_slots(self) -> np.ndarray:
        """(N, k) index table: phase1_slots[i, c] is the slot that broadcast group (i, c)."""
        first = self.phase1_len
        slots = np.full((self.N, self.k), -1, dtype=np.intp)
        slots[self.members[:first, 0, 0], self.members[:first, 0, 1]] = np.arange(first)
        return read_only(slots)

    @cached_property
    def entries(self) -> np.ndarray:
        """(N, T) int8 table of the ObservationKind code of each receiver's value in each slot:
        the one "who is served" table, built from members."""
        kind, first = ObservationKind, self.phase1_len
        entries = np.full((self.N, self.T), kind.DISCARDED.value, dtype=np.int8)
        entries[:, :first] = kind.INTERFERENCE_PHASE1.value
        entries[self.members[:first, 0, 0], np.arange(first)] = kind.DESIRED_PHASE1.value
        entries[self.members[first:, :, 0].T, np.arange(first, self.T)] = kind.COMBINED_PHASE2.value
        return read_only(entries)

    @cached_property
    def used(self) -> np.ndarray:
        """(N, T) bool table of the observations receivers use: all of phase 1, and their pair slots."""
        # .value: numpy converts an IntEnum operand slowly
        return read_only(self.entries != ObservationKind.DISCARDED.value)

    @cached_property
    def pair_rows(self) -> np.ndarray:
        """(4, N, k(M-1)) index table of each receiver's pair rows, field by field: slot,
        partner, linked, and own. Per receiver the rows run copy by copy, one per pair
        slot of the (receiver, copy) in slot order; linked is the partner's phase-1
        broadcast, which the receiver stored as interference, and own the phase-1 slot
        of the row's own copy."""
        first, k, M = self.phase1_len, self.k, self.M
        keys = self.members[first:, :, 0] * k + self.members[first:, :, 1]  # (P, 2) keys i*k + c
        # a stable sort keeps slot order within each (receiver, copy); balance
        # gives every one of them exactly M-1 rows
        order = np.argsort(keys.ravel(), kind="stable")
        partner = keys[:, ::-1].ravel()[order]
        t1 = self.phase1_slots  # t1.ravel() is indexed by the same keys
        table = np.empty((4, self.N, k, M - 1), dtype=np.intp)
        rows = table.reshape(4, keys.size)
        rows[0] = order // 2 + first
        rows[1] = partner // k
        rows[2] = t1.ravel()[partner]
        table[3] = t1[..., None]
        return read_only(table).reshape(4, self.N, k * (M - 1))

    @cached_property
    def pair_reads(self) -> np.ndarray:
        """(4P, 3) index table of the P pair slots' CSIT reads, (receiver, slot, at_slot) in
        read order: pair slot t serving members a and b, broadcast at t_a and t_b, reads
        h_b(t), h_a(t), h_b(t_a), h_a(t_b)."""
        first, t1 = self.phase1_len, self.phase1_slots
        (a, ca), (b, cb) = self.members[first:].transpose(1, 2, 0)
        t = np.arange(first, self.T)
        reads = np.empty((len(t), 2, 2, 3), dtype=np.intp)  # per pair slot: current, delayed
        reads[..., 0] = self.members[first:, None, ::-1, 0]  # b, a
        reads[:, 0, :, 1] = t[:, None]
        reads[:, 1, 0, 1], reads[:, 1, 1, 1] = t1[a, ca], t1[b, cb]
        reads[..., 2] = t[:, None, None]
        return read_only(reads).reshape(-1, 3)

    @cached_property
    def csit(self) -> CsitTable:
        """The schedule's CSIT table, build_csit_table(self), built once."""
        return build_csit_table(self)

    @cached_property
    def stored(self) -> tuple[np.ndarray, np.ndarray]:
        """slot_tables(used, N, T), built once: the (N, U) slots a run stores and their (N, T) columns."""
        return slot_tables(self.used, self.N, self.T)

    def to_dict(self) -> dict:
        first, members = self.phase1_len, self.members.tolist()
        return {
            "M": self.M,
            "N": self.N,
            "case": self.case.value,
            "k": self.k,
            "T": self.T,
            "phase1": [
                {"slot": t, "receiver": i, "copy": c}
                for t, ((i, c), _) in enumerate(members[:first])
            ],
            "phase2": [
                {
                    "slot": t,
                    "pair": [{"receiver": a, "copy": ca}, {"receiver": b, "copy": cb}],
                }
                for t, ((a, ca), (b, cb)) in enumerate(members[first:], first)
            ],
        }


@dataclass(frozen=True, eq=False)
class CsitTable:
    """Per-slot CSIT states as a read-only (N, T) uint8 grid of state codes, e.g. ord("P")."""

    grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", read_only(self.grid))

    @cached_property
    def states(self) -> tuple[str, ...]:
        """Per-receiver state strings, one character per slot."""
        return tuple(row.tobytes().decode() for row in self.grid)

    def to_dict(self) -> dict:
        return {"states": [list(row) for row in self.states]}


def classify_case(M: int, N: int) -> SchemeCase:
    """Pick the scheduling regime; M = N resolves to the M >= N branch."""
    if M < 1 or N < 1:
        raise ValueError(f"user counts must be at least 1, got M={M} N={N}")
    if M >= N:
        if M % 2 == 0 and N % 2 == 1:
            return SchemeCase.M_GE_N_EVEN_M_ODD_N
        return SchemeCase.M_GE_N_GENERAL
    if N % 2 == 0:
        return SchemeCase.N_GE_M_EVEN_N
    return SchemeCase.N_GE_M_ODD_N


def replication_factor(case: SchemeCase) -> int:
    """k = 2 exactly for the regimes that double messages and slots."""
    if case in (SchemeCase.M_GE_N_EVEN_M_ODD_N, SchemeCase.N_GE_M_ODD_N):
        return 2
    return 1


def one_factorization(n: int) -> list[list[tuple[int, int]]]:
    """Round-robin perfect matchings of the complete graph on even n vertices.

    Circle method: vertex n-1 is fixed, the others rotate. Returns n-1 rounds
    of n/2 disjoint pairs that together cover every pair exactly once.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need an even vertex count >= 2, got {n}")
    rounds = []
    for r in range(n - 1):
        pairs = [tuple(sorted((r % (n - 1), n - 1)))]
        for m in range(1, n // 2):
            a = (r + m) % (n - 1)
            b = (r - m) % (n - 1)
            pairs.append(tuple(sorted((a, b))))
        rounds.append(pairs)
    return rounds


def hamiltonian_cycles(n: int) -> list[list[tuple[int, int]]]:
    """Edge-disjoint closed tours covering the complete graph on odd n vertices.

    Each tour visits every vertex once (two pair appearances per vertex), so a
    whole tour is a balanced scheduling unit. The (n-1)/2 tours use the hub
    vertex n-1 plus a zigzag over the rotating ring vertices.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd vertex count >= 3, got {n}")
    half = (n - 1) // 2
    offsets = [0]
    for d in range(1, half):
        offsets += [d, -d]
    offsets.append(half)
    cycles = []
    for r in range(half):
        verts = [n - 1] + [(r + off) % (n - 1) for off in offsets]
        cycles.append(
            [tuple(sorted((verts[i], verts[(i + 1) % n]))) for i in range(n)]
        )
    return cycles


def _pair_sequence_m_ge_n(N: int, appearances: int) -> list[tuple[int, int]]:
    """Receiver pairs with every receiver appearing exactly `appearances` times.

    Whole sweeps of all C(N,2) pairs in lexicographic order contribute N-1
    appearances each; the remainder is filled with whole balanced units: one
    perfect matching per missing appearance for even N, one closed tour per
    two missing appearances for odd N. Prefixes therefore stay balanced at
    every unit boundary, which is what makes truncation safe.
    """
    lex = [(a, b) for a in range(N) for b in range(a + 1, N)]
    q, r = divmod(appearances, N - 1)
    seq = lex * q
    if r:
        if N % 2 == 0:
            for matching in one_factorization(N)[:r]:
                seq.extend(matching)
        else:  # r is even: odd N comes with an even appearance count (M - 1 for odd M, else 2(M - 1))
            for cycle in hamiltonian_cycles(N)[: r // 2]:
                seq.extend(cycle)
    return seq


def _phase2_pairs(M: int, N: int, case: SchemeCase, k: int):
    """Ordered (receiver, copy) pair list for phase 2 of each regime."""
    if case is SchemeCase.M_GE_N_GENERAL:
        return [((a, 0), (b, 0)) for a, b in _pair_sequence_m_ge_n(N, M - 1)]

    if case is SchemeCase.M_GE_N_EVEN_M_ODD_N:
        # Copies cannot stay segregated: per copy the pair-slot count would be
        # N(M-1)/2, a non-integer here. Alternating the copy on each successive
        # appearance of a receiver splits its 2(M-1) appearances evenly.
        pairs = []
        next_copy = [0] * N
        for a, b in _pair_sequence_m_ge_n(N, 2 * (M - 1)):
            ca, cb = next_copy[a], next_copy[b]
            next_copy[a] ^= 1
            next_copy[b] ^= 1
            pairs.append(((a, ca), (b, cb)))
        return pairs

    if case is SchemeCase.N_GE_M_EVEN_N:
        # Fixed disjoint pairing repeated M-1 times; fresh current-slot fading
        # makes repeated partners deliver independent combinations.
        base = [((i, 0), (i + 1, 0)) for i in range(0, N - 1, 2)]
        return base * (M - 1)

    # Odd N with doubling: pair the 2N (receiver, copy) units consecutively in
    # copy-major order. N odd makes one pair straddle the copy boundary.
    units = [(m % N, m // N) for m in range(2 * N)]
    base = [(units[2 * i], units[2 * i + 1]) for i in range(N)]
    return base * (M - 1)


def _check_phase1(N: int, k: int, keys: np.ndarray) -> None:
    """Check the (kN, 2) member keys of phase 1: each slot lists one group twice,
    and the slots broadcast every (receiver, copy) exactly once."""
    if (split := keys[:, 0] != keys[:, 1]).any():  # argmax: the first offender
        raise SchemeConstructionError(
            f"phase-1 slot {split.argmax()} lists two groups, expected one group twice"
        )
    counts = np.bincount(keys[:, 0], minlength=k * N)
    if (bad := counts != 1).any():
        c, i = divmod(key := int(bad.argmax()), N)
        raise SchemeConstructionError(
            f"receiver {i} copy {c} is broadcast in {counts[key]} phase-1 slots, expected 1"
        )


def _check_balance(M: int, N: int, k: int, receivers: np.ndarray, keys: np.ndarray) -> None:
    """Check the (P, 2) receivers and member keys of the pair slots: two receivers per slot,
    and every (receiver, copy) in exactly M-1 pair slots."""
    if (reused := receivers[:, 0] == receivers[:, 1]).any():
        raise SchemeConstructionError(f"pair slot reuses receiver {receivers[reused.argmax(), 0]}")
    counts = np.bincount(keys.ravel(), minlength=k * N)
    if (bad := counts != M - 1).any():
        c, i = divmod(key := int(bad.argmax()), N)
        raise SchemeConstructionError(
            f"receiver {i} copy {c} appears in {counts[key]} pair slots, expected {M - 1}"
        )


def build_schedule(M: int, N: int) -> Schedule:
    """The canonical schedule for M transmitters and N receivers, built and checked once per
    process: later calls for (M, N), by position or keyword, share it and its read-only tables
    until build_schedule.cache_clear(). Permuted and hand-made schedules are never cached.

    Raises
    ------
    UnsupportedConfigurationError
        If N < 2 (pairing needs at least two receivers).
    SchemeConstructionError
        If the built pair sequence fails the balance check of Schedule.
    """
    return _canonical_schedule(M, N)


@lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _canonical_schedule(M: int, N: int) -> Schedule:
    case = classify_case(M, N)
    if N < 2:
        raise UnsupportedConfigurationError(
            f"need at least 2 receivers to form phase-2 pairs, got N={N}"
        )
    k = replication_factor(case)
    pairs = np.array(_phase2_pairs(M, N, case, k), dtype=np.intp).reshape(-1, 2, 2)
    copy, receiver = np.divmod(np.arange(k * N), N)
    groups = np.stack([receiver, copy], axis=-1)[:, None, :]
    members = np.concatenate([np.repeat(groups, 2, axis=1), pairs])
    return Schedule(members)


build_schedule.cache_clear = _canonical_schedule.cache_clear


def build_csit_table(schedule: Schedule) -> CsitTable:
    """Derive the per-slot CSIT states implied by a schedule, one per entries code.

    Phase-1 slots give the served receiver (desired) nothing and everyone else
    (stored interference) delayed knowledge; phase-2 slots give the two paired
    receivers (combined) perfect current knowledge and everyone else
    (discarded) nothing.
    """
    return CsitTable(np.frombuffer(b"NDPN", np.uint8)[schedule.entries])  # by ObservationKind code


def _check_permutation(perm, length: int, label: str) -> np.ndarray:
    perm = list(perm)
    if sorted(perm) != list(range(length)):
        raise ValueError(f"{label} must be a permutation of 0..{length - 1}, got {perm}")
    return np.asarray(perm, dtype=np.intp)


def permute_schedule(schedule: Schedule, phase1_perm, phase2_perm) -> Schedule:
    """Reorder slot contents within each phase, keeping slot times fixed.

    Position p of the result carries what position phase_perm[p] carried in
    the input. Per-receiver appearance counts are untouched; the within-round
    disjointness of the N >= M regimes may be lost, which decoding tolerates.
    """
    first = schedule.phase1_len
    p1 = _check_permutation(phase1_perm, first, "phase-1 permutation")
    p2 = _check_permutation(phase2_perm, schedule.T - first, "phase-2 permutation")
    members = schedule.members[np.concatenate([p1, p2 + first])]
    return Schedule(members)


def count_csit_variants(schedule: Schedule) -> int:
    """Number of schedules reachable from schedule by permuting slots within each phase.

    Equals (kN)! * (kN(M-1)/2)! because any phase-1 order and any phase-2
    order yields a working schedule with identical slot budgets.
    """
    first = schedule.phase1_len
    return math.factorial(first) * math.factorial(schedule.T - first)


def _phase_split_table(name_cells: list[str], body: list[list[str]], split: int) -> str:
    ncols = len(name_cells)
    widths = [
        max(len(row[c]) for row in [name_cells, *body]) for c in range(ncols)
    ]

    def segment(cells, lo, hi):
        return "  ".join(cells[c].rjust(widths[c]) for c in range(lo, hi))

    def line(cells):
        out = cells[0].ljust(widths[0]) + " | " + segment(cells, 1, 1 + split)
        if split < ncols - 1:
            out += " | " + segment(cells, 1 + split, ncols)
        return out

    header = line(name_cells)
    left_w = len(segment(name_cells, 1, 1 + split))
    banner = " " * (widths[0] + 3) + "Phase 1".center(left_w)
    if split < ncols - 1:
        right_w = len(segment(name_cells, 1 + split, ncols))
        banner += " | " + "Phase 2".center(right_w)
    lines = [banner, header] + [line(row) for row in body]
    return "\n".join(lines)


def _group_label(receiver: int, copy: int, k: int) -> str:
    if k == 1:
        return f"W{receiver + 1}"
    return f"W{receiver + 1}^{copy + 1}"


def format_schedule(schedule: Schedule) -> str:
    """Plain-text slot table: which message groups occupy each slot."""
    head = ["Time"] + [str(t + 1) for t in range(schedule.T)]
    first, k = schedule.phase1_len, schedule.k
    members = schedule.members.tolist()
    row = ["Tx"] + [_group_label(*group, k) for group, _ in members[:first]]
    row += [_group_label(*a, k) + "," + _group_label(*b, k) for a, b in members[first:]]
    summary = (
        f"M={schedule.M} N={schedule.N} case={schedule.case.value} "
        f"k={schedule.k} T={schedule.T} messages={schedule.k * schedule.M * schedule.N}"
    )
    return summary + "\n" + _phase_split_table(head, [row], first)


def format_csit_table(schedule: Schedule) -> str:
    """Plain-text state table of the schedule's CSIT table, receivers as rows and slots as columns."""
    head = ["Time"] + [str(t + 1) for t in range(schedule.T)]
    body = [[f"R{i + 1}"] + list(row) for i, row in enumerate(schedule.csit.states)]
    summary = f"M={schedule.M} N={schedule.N} case={schedule.case.value} k={schedule.k} T={schedule.T}"
    return summary + "\n" + _phase_split_table(head, body, schedule.phase1_len)
