"""End-to-end single-run driver tying channel, schedule, transmit and receive together."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import generate_channels, generate_messages, generate_noise, read_only, run_streams
from .receive import DecodeResult, LinearSystem, ObservationLog, assemble_system, decode, observe_all
from .schedule import Schedule
from .transmit import build_transmit_plan

__all__ = ["RECOVERY_TOL", "SimulationResult", "run_simulation"]

RECOVERY_TOL = 1e-8  # all_recovered's bound on each system's relative error


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Everything one seeded run produced, from schedule to decode diagnostics.

    The plan, its channels and its schedule are read through log.plan, so each is stored once.
    """

    messages: np.ndarray  # the (..., N, M, k) message symbols
    log: ObservationLog
    systems: LinearSystem  # stacked over (draws..., N)
    decoding: DecodeResult  # one stacked decode of systems

    plan = property(lambda self: self.log.plan, doc="The transmit plan the log was observed from.")
    channels = property(lambda self: self.log.plan.channels, doc="The plan's channel draw.")
    schedule = property(lambda self: self.log.plan.schedule, doc="The plan's schedule.")

    @functools.cached_property
    def truths(self) -> np.ndarray:
        """Read-only (systems, kM) copy-major message vectors the systems should recover, in their
        flat order."""
        return read_only(self.messages.swapaxes(-1, -2).reshape(len(self.systems), -1))

    @functools.cached_property
    def _errors(self) -> tuple[float, ...]:
        # every row's error and truth norm in one stacked pass: the sum of the real and imaginary
        # parts' dot products, as np.linalg.norm takes it, bit for bit
        x = np.stack([self.decoding.estimates.reshape(self.truths.shape) - self.truths, self.truths])
        norms = np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))
        return tuple((norms[0] / norms[1]).tolist())  # NaN for a failed row

    def relative_errors(self) -> list[float]:
        """Relative recovery error per system, in the flat order of systems; NaN where decoding failed."""
        return list(self._errors)

    def all_recovered(self) -> bool:
        return all(e <= RECOVERY_TOL for e in self._errors)  # False for NaN


def run_simulation(
    schedule: Schedule,
    seed: int,
    *,
    draws: range | None = None,
    noise_enabled: bool = False,
    normalize: bool = False,
) -> SimulationResult:
    """Run one seeded end-to-end transmission of the schedule: build_schedule(M, N), or a
    permuted or hand-made one. Every stage reads the run's shapes from it.

    The seed, a non-negative int (no bool), keys the run's Philox streams (run_streams): streams
    0, 1 and 2 of draw 0 for channels, messages and noise, with no noise stream for a noiseless
    run, so no two seeds share a random number. Channels and noise are drawn only at the cells
    schedule.used stores. A range of draws stacks the draws d of the seed in a single pass, on
    the streams (key, d, c), with a leading draw axis on every array; draw d equals
    run_simulation(schedule, seed, draws=range(d, d + 1)), and draw 0 the single run.
    """
    # run_streams first: it rejects a bool seed and draws other than a range by name
    ch_seed, msg_seed, *noise_seed = run_streams(seed, 3 if noise_enabled else 2, draws=draws)
    if draws is not None and not draws:
        raise ValueError(f"draws must hold at least one draw, got {draws!r}")
    channels = generate_channels(schedule, ch_seed)
    messages = generate_messages(schedule, msg_seed)
    noise = generate_noise(schedule, *noise_seed) if noise_enabled else None
    plan = build_transmit_plan(channels, schedule.csit, normalize=normalize)
    log = observe_all(plan, messages, noise)
    systems = assemble_system(log)
    return SimulationResult(messages=messages, log=log, systems=systems, decoding=decode(systems))
