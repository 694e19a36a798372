"""Outside-in layer trace for the xchannel benchmark.

The tracer wraps public functions of xchannel's layers from outside the
program. On entry it replaces each function by a timing wrapper in every
xchannel module that holds it (the defining module and every module that
imported the name), and on exit it puts the originals back. No file of the
program changes.

Spans nest on one stack, because the benchmark runs one request at a time in
one thread. Every span carries the id of the request it belongs to and the id
of the span that called it. A span's self time is its duration minus the
durations of its child spans. Counts are read at the same boundaries, from
each wrapped call's arguments or return value.

A function that no longer exists is reported as absent, never as zero time;
so is a count whose value can no longer be read from the call.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

__all__ = ["Count", "Layer", "LAYERS", "Tracer"]


@dataclass(frozen=True)
class Count:
    """An exact count read from one wrapped call: fn(args, kwargs, result)."""

    name: str
    unit: str
    fn: Callable[[tuple, dict, object], int]


@dataclass(frozen=True)
class Layer:
    """One traced function: `qualname` inside `module`, reported as `name`."""

    name: str
    module: str
    qualname: str
    counts: tuple[Count, ...] = ()


def _systems_arg(args, kwargs):
    return args[0] if args else kwargs["systems"]


# Units ending in "-computed" mark counts derived from the call's shapes, not
# observed in the program.
LAYERS = (
    Layer("cli.main", "xchannel.cli", "main"),
    Layer("simulate.run_simulation", "xchannel.simulate", "run_simulation"),
    Layer("schedule.build_schedule", "xchannel.schedule", "build_schedule"),
    Layer("schedule.build_csit_table", "xchannel.schedule", "build_csit_table"),
    Layer(
        "channel.generate_channels",
        "xchannel.channel",
        "generate_channels",
        (Count("channel.bytes_drawn", "B-computed", lambda a, k, ch: 16 * ch.N * ch.M * ch.T),),
    ),
    Layer(
        "transmit.build_transmit_plan",
        "xchannel.transmit",
        "build_transmit_plan",
        (
            Count("transmit.csit_reads", "count", lambda a, k, plan: len(plan.csit_reads)),
            Count("transmit.csit_violations", "count", lambda a, k, plan: len(plan.csit_violations)),
        ),
    ),
    Layer("transmit.signal_matrix", "xchannel.transmit", "TransmitPlan.signal_matrix"),
    Layer(
        "receive.observe_all",
        "xchannel.receive",
        "observe_all",
        (Count("receive.observations", "count", lambda a, k, log: sum(len(e) for e in log.entries)),),
    ),
    Layer("receive.cancel_interference", "xchannel.receive", "cancel_interference"),
    Layer("receive.assemble_system", "xchannel.receive", "assemble_system"),
    Layer(
        "receive.decode",
        "xchannel.receive",
        "decode",
        (Count("receive.decode.successes", "count", lambda a, k, res: int(res.success)),),
    ),
    Layer(
        "analysis.sum_rate",
        "xchannel.analysis",
        "sum_rate",
        # One Cholesky and one slogdet per receiver system at the call's SNR.
        (Count("analysis.rate_factorizations", "count-computed",
               lambda a, k, pt: 2 * len(_systems_arg(a, k))),),
    ),
    Layer("analysis.sweep_rates", "xchannel.analysis", "sweep_rates"),
    Layer("analysis.oracle_verify_3user", "xchannel.analysis", "oracle_verify_3user"),
    Layer("analysis.verify_suite", "xchannel.analysis", "verify_suite"),
)


class Tracer:
    """Context manager that wraps the layers' functions while it is open.

    Set `request` before each request; spans and counts recorded until the
    next change belong to it.
    """

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.request = None
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()  # keyed by (request, layer name)
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        # (request, span id, parent span id or None, layer name, start ns, end ns)
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for layer in self.layers:
            try:
                module = importlib.import_module(layer.module)
                owner = module
                *path, attr = layer.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(layer.name)
                self.absent.update(c.name for c in layer.counts)
                continue
            wrapper = self._wrap(layer, original)
            if owner is not module:  # a method: patch the class itself
                self._patch(owner, attr, wrapper)
                continue
            package = layer.module.split(".")[0]
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: Layer, fn):
        stack = self._stack
        name = layer.name
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [next(self._ids), 0]  # span id, child ns
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_ns[self.request, name] += duration - frame[1]
                self.spans.append((self.request, frame[0], parent, name, start, end))
            for count in layer.counts:
                if count.name in self.absent:
                    continue
                try:
                    self.counts[count.name] += count.fn(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.absent.add(count.name)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def metrics(self, requests: int, scale=None) -> dict[str, tuple[float, str]]:
        """Per-request calls, self time and counts of every present layer.

        `scale` maps a request to the factor its self times are multiplied by.
        """
        self_ms: Counter = Counter()
        for (request, name), ns in self.self_ns.items():
            self_ms[name] += ns / 1e6 * (scale[request] if scale else 1.0)
        out: dict[str, tuple[float, str]] = {}
        for layer in self.layers:
            if layer.name in self.absent:
                continue
            out[f"{layer.name}.calls"] = (self.calls[layer.name] / requests, "count")
            out[f"{layer.name}.self_ms"] = (self_ms[layer.name] / requests, "ms")
            for count in layer.counts:
                if count.name not in self.absent:
                    out[count.name] = (self.counts[count.name] / requests, count.unit)
        decodes = self.calls["receive.decode"]
        if "receive.decode.successes" in out and decodes:
            ratio = self.counts["receive.decode.successes"] / decodes
            out["receive.decode.success_ratio"] = (ratio, "ratio")
        return out
