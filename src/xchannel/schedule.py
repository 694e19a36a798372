"""Two-phase transmission schedules and per-slot CSIT state tables.

Phase 1 broadcasts each (receiver, copy) message group once. Phase 2 serves
receivers in pairs: each pair slot hands both members one fresh combination
of their desired messages while the interference it creates replays an
observation the member already stored during phase 1. Decodability therefore
needs every (receiver, copy) to take part in exactly M-1 pair slots; the
builders below construct such balanced sequences for every supported (M, N)
and verify the balance before returning.

CSIT states use one character per (receiver, slot) cell: "P" for perfect
current-slot knowledge, "D" for delayed knowledge (readable at any strictly
later slot), "N" for none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "SchemeCase",
    "UnsupportedConfigurationError",
    "SchemeConstructionError",
    "Phase1Slot",
    "Phase2Slot",
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


class SchemeCase(Enum):
    """Scheduling regime for a given (M, N); ties (M = N) go to the M >= N branch."""

    M_GE_N_GENERAL = "M_GE_N_GENERAL"
    M_GE_N_EVEN_M_ODD_N = "M_GE_N_EVEN_M_ODD_N"
    N_GE_M_EVEN_N = "N_GE_M_EVEN_N"
    N_GE_M_ODD_N = "N_GE_M_ODD_N"


class UnsupportedConfigurationError(ValueError):
    """The (M, N) pair admits no pairing-based schedule (needs N >= 2)."""


class SchemeConstructionError(RuntimeError):
    """A built schedule or assembled system violates a structural invariant."""


@dataclass(frozen=True)
class Phase1Slot:
    """Slot that broadcasts the message group of one (receiver, copy)."""

    slot: int
    receiver: int
    copy: int = 0


@dataclass(frozen=True)
class Phase2Slot:
    """Slot that serves two (receiver, copy) members with retrospective precoding."""

    slot: int
    pair: tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True, eq=False)
class Schedule:
    """Complete slot plan for one run: kN phase-1 slots then the pair slots.

    `members` is the one stored form: a read-only (T, 2, 2) index table of the
    two (receiver, copy) members each slot serves, a phase-1 slot listing its
    single group twice. Slot indices are 0-based and global: phase 1 occupies
    0..k*N-1 (copy-major in the canonical schedule), phase 2 the remainder.
    Every other table and the slot records are views derived from it; compare
    schedules by their `members`.
    """

    M: int
    N: int
    case: SchemeCase
    k: int
    members: np.ndarray

    def __post_init__(self):
        self.members.setflags(write=False)

    @property
    def T(self) -> int:
        return len(self.members)

    @property
    def phase1_len(self) -> int:
        return self.k * self.N

    @cached_property
    def phase1(self) -> tuple[Phase1Slot, ...]:
        groups = self.members[: self.phase1_len, 0].tolist()
        return tuple(Phase1Slot(t, i, c) for t, (i, c) in enumerate(groups))

    @cached_property
    def phase2(self) -> tuple[Phase2Slot, ...]:
        pairs = self.members[self.phase1_len :].tolist()
        return tuple(
            Phase2Slot(t, (tuple(a), tuple(b))) for t, (a, b) in enumerate(pairs, self.phase1_len)
        )

    @cached_property
    def phase1_slots(self) -> np.ndarray:
        """(N, k) index table: phase1_slots[i, c] is the slot that broadcast group (i, c)."""
        first = self.phase1_len
        slots = np.full((self.N, self.k), -1, dtype=np.intp)
        slots[self.members[:first, 0, 0], self.members[:first, 0, 1]] = np.arange(first)
        slots.setflags(write=False)
        return slots

    @cached_property
    def decode_rows(self) -> np.ndarray:
        """(N, kM, 4) index table of each receiver's decoding rows.

        A row is (copy, slot, partner, linked). Each copy has M rows: the
        direct row first, at the copy's phase-1 slot with partner and linked
        slot -1; then one row per pair slot in slot order, whose linked slot is
        the partner's phase-1 broadcast that the receiver stored as
        interference.
        """
        first, t1 = self.phase1_len, self.phase1_slots.tolist()
        rows = [[[(c, t1[i][c], -1, -1)] for c in range(self.k)] for i in range(self.N)]
        for t, ((a, ca), (b, cb)) in enumerate(self.members[first:].tolist(), first):
            rows[a][ca].append((ca, t, b, t1[b][cb]))
            rows[b][cb].append((cb, t, a, t1[a][ca]))
        counts = [[len(per) for per in per_copy] for per_copy in rows]
        if counts != [[self.M] * self.k] * self.N:
            raise SchemeConstructionError(
                f"decoding rows per (receiver, copy) are {counts}, expected {self.M} each; "
                "phase-2 balance is broken"
            )
        table = np.array(
            [[row for per in per_copy for row in per] for per_copy in rows], dtype=np.intp
        )
        table.setflags(write=False)
        return table

    @cached_property
    def used(self) -> np.ndarray:
        """(N, T) bool table of the observations receivers use: all of phase 1, and their pair slots."""
        used = np.zeros((self.N, self.T), dtype=bool)
        used[:, : self.phase1_len] = True
        used[self.members[:, :, 0].T, np.arange(self.T)] = True  # each slot's members
        used.setflags(write=False)
        return used

    @cached_property
    def pair_reads(self) -> np.ndarray:
        """(4P, 3) index table of the P pair slots' CSIT reads, (receiver, slot, at_slot) in
        read order: pair slot t serving members a and b, broadcast at t_a and t_b, reads
        h_b(t), h_a(t), h_b(t_a), h_a(t_b)."""
        first = self.phase1_len
        (a, ca), (b, cb) = self.members[first:].transpose(1, 2, 0)
        t_a, t_b, t = self.phase1_slots[a, ca], self.phase1_slots[b, cb], np.arange(first, self.T)
        reads = np.array([(b, t, t), (a, t, t), (b, t_a, t), (a, t_b, t)])
        reads = reads.transpose(2, 0, 1).reshape(-1, 3)
        reads.setflags(write=False)
        return reads

    @property
    def message_count(self) -> int:
        return self.k * self.M * self.N

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
        self.grid.setflags(write=False)

    @cached_property
    def states(self) -> tuple[str, ...]:
        """Per-receiver state strings, one character per slot."""
        return tuple(row.tobytes().decode() for row in self.grid)

    def state(self, receiver: int, slot: int) -> str:
        return chr(self.grid[receiver, slot])

    def counts(self, receiver: int) -> dict[str, int]:
        row = self.states[receiver]
        return {s: row.count(s) for s in "PDN"}

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
    if appearances == 0:
        return []
    lex = [(a, b) for a in range(N) for b in range(a + 1, N)]
    q, r = divmod(appearances, N - 1)
    seq = lex * q
    if r:
        if N % 2 == 0:
            for matching in one_factorization(N)[:r]:
                seq.extend(matching)
        else:
            if r % 2:
                raise SchemeConstructionError(
                    f"odd remainder {r} cannot be balanced over {N} receivers"
                )
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


def _check_balance(M: int, N: int, k: int, pairs: np.ndarray) -> None:
    """Check a (P, 2, 2) pair table: P = kN(M-1)/2, two receivers per slot, and
    every (receiver, copy) in exactly M-1 pair slots."""
    expected_slots, rem = divmod(k * N * (M - 1), 2)
    if rem:
        raise SchemeConstructionError(
            f"phase-2 slot count k*N*(M-1)/2 is fractional for M={M} N={N} k={k}"
        )
    if len(pairs) != expected_slots:
        raise SchemeConstructionError(
            f"phase 2 has {len(pairs)} slots, expected {expected_slots}"
        )
    reused = np.flatnonzero(pairs[:, 0, 0] == pairs[:, 1, 0])
    if reused.size:
        raise SchemeConstructionError(f"pair slot reuses receiver {pairs[reused[0], 0, 0]}")
    counts = np.bincount((pairs[..., 1] * N + pairs[..., 0]).ravel(), minlength=k * N)
    bad = np.flatnonzero(counts != M - 1)
    if bad.size:
        c, i = divmod(int(bad[0]), N)
        raise SchemeConstructionError(
            f"receiver {i} copy {c} appears in {counts[bad[0]]} pair slots, expected {M - 1}"
        )


def build_schedule(M: int, N: int) -> Schedule:
    """Construct the canonical schedule for M transmitters and N receivers.

    Raises
    ------
    UnsupportedConfigurationError
        If N < 2 (pairing needs at least two receivers).
    SchemeConstructionError
        If the built pair sequence fails the balance verification.
    """
    case = classify_case(M, N)
    if N < 2:
        raise UnsupportedConfigurationError(
            f"need at least 2 receivers to form phase-2 pairs, got N={N}"
        )
    k = replication_factor(case)
    pairs = np.array(_phase2_pairs(M, N, case, k), dtype=np.intp).reshape(-1, 2, 2)
    _check_balance(M, N, k, pairs)
    copy, receiver = np.divmod(np.arange(k * N), N)
    groups = np.stack([receiver, copy], axis=-1)[:, None, :]
    members = np.concatenate([np.repeat(groups, 2, axis=1), pairs])
    if 2 * len(members) != k * N * (M + 1):
        raise SchemeConstructionError(
            f"total slot count {len(members)} disagrees with k*N*(M+1)/2 for M={M} N={N}"
        )
    return Schedule(M=M, N=N, case=case, k=k, members=members)


def build_csit_table(schedule: Schedule) -> CsitTable:
    """Derive the per-slot CSIT states implied by a schedule.

    Phase-1 slots give the served receiver nothing and everyone else delayed
    knowledge; phase-2 slots give the two paired receivers perfect current
    knowledge and everyone else nothing.
    """
    s, first = schedule, schedule.phase1_len
    grid = np.full((s.N, s.T), ord("N"), dtype=np.uint8)
    grid[:, :first] = ord("D")
    grid[s.members[:first, 0, 0], np.arange(first)] = ord("N")
    grid[s.members[first:, :, 0], np.arange(first, s.T)[:, None]] = ord("P")
    return CsitTable(grid)


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
    return replace(schedule, members=schedule.members[np.concatenate([p1, p2 + first])])


def count_csit_variants(M: int, N: int) -> int:
    """Number of schedules reachable by permuting slots within each phase.

    Equals (kN)! * (kN(M-1)/2)! because any phase-1 order and any phase-2
    order yields a working schedule with identical slot budgets.
    """
    s = build_schedule(M, N)
    return math.factorial(s.phase1_len) * math.factorial(s.T - s.phase1_len)


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
        f"k={schedule.k} T={schedule.T} messages={schedule.message_count}"
    )
    return summary + "\n" + _phase_split_table(head, [row], first)


def format_csit_table(table: CsitTable, phase1_len: int) -> str:
    """Plain-text state table with receivers as rows and slots as columns."""
    head = ["Time"] + [str(t + 1) for t in range(table.grid.shape[1])]
    body = [[f"R{i + 1}"] + list(row) for i, row in enumerate(table.states)]
    return _phase_split_table(head, body, phase1_len)
