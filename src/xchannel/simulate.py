"""End-to-end single-run driver tying channel, schedule, transmit and receive together."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (ChannelRealization, MessageSet, NoiseModel, generate_channels,
                      generate_messages, stack_draws)
from .receive import DecodeResult, LinearSystem, ObservationLog, assemble_system, decode, observe_all
from .schedule import CsitTable, Schedule, build_csit_table, build_schedule
from .transmit import TransmitPlan, build_transmit_plan

__all__ = ["SimulationResult", "run_simulation"]


@dataclass
class SimulationResult:
    """Everything one seeded run produced, from schedule to decode diagnostics."""

    schedule: Schedule
    channels: ChannelRealization
    messages: MessageSet
    table: CsitTable
    plan: TransmitPlan
    log: ObservationLog
    systems: LinearSystem  # stacked over (draws..., receivers)
    decodes: tuple[DecodeResult, ...]  # in the order of systems

    def truth(self, receiver: int) -> np.ndarray:
        """Copy-major flat message vector the receiver should recover (single runs)."""
        return self.messages.w[receiver].T.reshape(-1)

    def relative_errors(self) -> list[float]:
        """Relative recovery error per decode; NaN where decoding failed."""
        truths = np.swapaxes(self.messages.w, -1, -2).reshape(len(self.decodes), -1)
        errs = []
        for d, truth in zip(self.decodes, truths):
            if not d.success:
                errs.append(float("nan"))
                continue
            errs.append(
                float(np.linalg.norm(d.estimates - truth) / np.linalg.norm(truth))
            )
        return errs

    def all_recovered(self, tol: float = 1e-8) -> bool:
        errs = self.relative_errors()
        return all(np.isfinite(e) and e <= tol for e in errs)


def run_simulation(
    M: int,
    N: int,
    seed: int | list[int] = 0,
    *,
    noise_enabled: bool = False,
    noise_variance: float = 1.0,
    normalize: bool = False,
    schedule: Schedule | None = None,
) -> SimulationResult:
    """Run one seeded end-to-end transmission.

    Channels, messages and noise derive their seeds as seed, seed+1, seed+2.
    A list of seeds runs one draw per seed in a single stacked pass, with a
    leading draw axis on every array; each draw equals its own single run.
    Passing an explicit schedule (e.g. a permuted one) overrides the canonical
    construction; dimensions must match.
    """
    if schedule is None:
        schedule = build_schedule(M, N)
    if schedule.M != M or schedule.N != N:
        raise ValueError(
            f"schedule is for M={schedule.M} N={schedule.N}, requested M={M} N={N}"
        )
    stacked = np.ndim(seed) > 0
    seeds = list(seed) if stacked else [seed]
    combine = stack_draws if stacked else (lambda draws: draws[0])
    channels = combine([generate_channels(M, N, schedule.T, s) for s in seeds])
    messages = combine([generate_messages(M, N, schedule.k, s + 1) for s in seeds])
    table = build_csit_table(schedule)
    plan = build_transmit_plan(schedule, messages, channels, table, normalize=normalize)
    noise_seed = tuple(s + 2 for s in seeds) if stacked else seed + 2
    noise = NoiseModel(enabled=noise_enabled, variance=noise_variance, seed=noise_seed)
    log = observe_all(plan, channels, noise)
    systems = assemble_system(log, np.arange(N))
    decodes = tuple(map(decode, systems))
    return SimulationResult(
        schedule=schedule,
        channels=channels,
        messages=messages,
        table=table,
        plan=plan,
        log=log,
        systems=systems,
        decodes=decodes,
    )
