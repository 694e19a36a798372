"""End-to-end single-run driver tying channel, schedule, transmit and receive together."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, generate_channels, generate_messages, generate_noise, read_only, run_streams
from .receive import DecodeResult, LinearSystem, ObservationLog, assemble_system, decode, observe_all
from .schedule import Schedule, build_schedule
from .transmit import TransmitPlan, build_transmit_plan

__all__ = ["RECOVERY_TOL", "SimulationResult", "run_simulation"]

RECOVERY_TOL = 1e-8  # all_recovered's bound on each system's relative error


@dataclass(eq=False)
class SimulationResult:
    """Everything one seeded run produced, from schedule to decode diagnostics."""

    schedule: Schedule
    channels: ChannelRealization
    messages: np.ndarray  # the (..., N, M, k) message symbols
    plan: TransmitPlan
    log: ObservationLog
    systems: LinearSystem  # stacked over (draws..., receivers)
    decoding: DecodeResult  # one stacked decode of systems

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
    M: int,
    N: int,
    seed: int | list[int] | tuple[int, ...],
    *,
    draws: range | None = None,
    noise_enabled: bool = False,
    normalize: bool = False,
    schedule: Schedule | None = None,
) -> SimulationResult:
    """Run one seeded end-to-end transmission.

    The seed, a non-negative int, keys the run's Philox streams (run_streams): streams 0, 1
    and 2 of draw 0 for channels, messages and noise, with no noise stream for a noiseless run,
    so no two seeds share a random number. Channels and noise are drawn only at the cells
    schedule.used stores. A list of seeds runs one draw per seed in a single stacked pass, with
    a leading draw axis on every array; each draw equals its own single run. A range of draws
    stacks the draws d of seed, on the streams (key, d, c); draw d equals run_simulation(seed,
    draws=range(d, d + 1)). Passing an explicit schedule (e.g. a permuted one) overrides the
    canonical construction; dimensions must match.
    """
    if schedule is None:
        schedule = build_schedule(M, N)
    if schedule.M != M or schedule.N != N:
        raise ValueError(
            f"schedule is for M={schedule.M} N={schedule.N}, requested M={M} N={N}"
        )
    count = 3 if noise_enabled else 2
    if draws is not None and not len(draws):
        raise ValueError(f"draws must hold at least one draw, got {draws!r}")
    if np.ndim(seed):  # one draw per seed, stacked on axis 1 after the stream axis
        if not len(seed):
            raise ValueError(f"seed must list at least one seed, got {seed!r}")
        streams = np.stack([run_streams(s, count, draws=draws) for s in seed], axis=1)
    else:
        streams = run_streams(seed, count, draws=draws)
    ch_seed, msg_seed, *noise_seed = streams
    channels = generate_channels(M, N, schedule.T, ch_seed, stored=schedule.stored)
    messages = generate_messages(M, N, schedule.k, msg_seed)
    noise = generate_noise(N, channels.slots.shape[1], *noise_seed) if noise_enabled else None
    plan = build_transmit_plan(schedule, messages, channels, schedule.csit, normalize=normalize)
    log = observe_all(plan, channels, noise)
    systems = assemble_system(log, np.arange(N))
    return SimulationResult(
        schedule=schedule,
        channels=channels,
        messages=messages,
        plan=plan,
        log=log,
        systems=systems,
        decoding=decode(systems),
    )
