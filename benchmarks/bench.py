"""Closed-loop benchmark of the xchannel command line, with an outside-in layer trace.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload sweep-8x8 --seed 1 --seconds 30 --trace 0

One client in one thread calls ``xchannel.cli.main`` in-process, one request
after the other, and checks every output. Request seeds derive from --seed.

--trace 0 prints the end-to-end metrics. --trace 1 runs requests untraced for
half of --seconds, replays the same seeds under the layer trace, checks that
the traced outputs are byte-identical, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record, with the machine description,
goes to .bench_results/ in the checkout. benchmarks/README.md lists the
workloads and metrics.
"""

from __future__ import annotations

import os

# Fixed before numpy is first imported, so every run measures the same
# single-threaded program whatever the machine's BLAS defaults are.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
SWEEP_SNRS = (40, 50, 60, 70, 80)
SWEEP_DRAWS = 20
SLOPE_BAND = 0.05  # acceptance criterion 6: fitted slope within 5% of 2M/(M+1)
EXACT_TOL = 1e-8
# Time of speed_probe on an uncontended core of a 2-CPU Xeon, numpy 2.4 with
# OpenBLAS 0.3.31. A constant, so that latencies of different runs compare.
PROBE_REF_S = 0.00175


class CheckFailed(Exception):
    """A request's output does not meet its workload's checks."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def check_sweep(seed: int, data: bytes) -> None:
    doc = json.loads(data)
    M = 8
    points = doc["points"]
    _require(doc["seed"] == seed and doc["draws"] == SWEEP_DRAWS, "sweep echoes other inputs")
    _require(len(points) == len(SWEEP_SNRS), f"expected {len(SWEEP_SNRS)} points, got {len(points)}")
    snrs = [p["snr_db"] for p in points]
    rates = [p["sum_rate"] for p in points]
    _require(snrs == list(map(float, SWEEP_SNRS)), f"SNR grid {snrs}")
    _require(all(math.isfinite(r) for r in rates), "non-finite sum rate")
    _require(all(b > a for a, b in zip(rates, rates[1:])), "sum rate not strictly increasing")
    target = 2 * M / (M + 1)
    fitted = doc["slope"]["fitted"]
    refit = float(np.polyfit(np.array(snrs) * (math.log2(10.0) / 10.0), rates, 1)[0])
    _require(abs(refit - fitted) <= 1e-9 * target, f"reported slope {fitted} but points give {refit}")
    _require(abs(fitted - target) <= SLOPE_BAND * target,
             f"slope {fitted} outside {SLOPE_BAND:.0%} of {target}")


def check_simulate(seed: int, data: bytes) -> None:
    doc = json.loads(data)
    _require(len(doc["runs"]) == 1, "expected one run")
    run = doc["runs"][0]
    _require(run["seed"] == seed and len(run["receivers"]) == 32, "simulate echoes other inputs")
    _require(run["all_recovered"] is True, "not all messages recovered")
    err = run["max_relative_error"]
    _require(err is not None and err <= EXACT_TOL, f"max relative error {err}")
    _require(run["csit_violations"] == 0, f"{run['csit_violations']} CSIT violations")


def check_verify(seed: int, data: bytes) -> None:
    lines = data.decode().strip().splitlines()
    _require(bool(lines) and lines[-1] == "8/8 checks passed", f"verify ended with {lines[-1:]}")


@dataclass(frozen=True)
class Workload:
    name: str
    stride: int  # request seeds are base + stride * index
    argv: Callable[[int], list[str]]
    check: Callable[[int, bytes], None]


def _sweep_argv(seed: int) -> list[str]:
    snrs = [arg for snr in SWEEP_SNRS for arg in ("--snr", str(snr))]
    return ["sweep", "--M", "8", "--N", "8", "--draws", str(SWEEP_DRAWS), *snrs,
            "--seed", str(seed), "--format", "json"]


# Why each workload exists, and which layer should move which metric on it, is
# recorded in BENCHMARK.json and benchmarks/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Draw d of a sweep uses seeds seed + 10*d .. seed + 10*d + 2, so a
        # stride of 10 * draws keeps the draws of two requests apart.
        Workload("sweep-8x8", 10 * SWEEP_DRAWS, _sweep_argv, check_sweep),
        # A run uses seeds seed, seed + 1, seed + 2.
        Workload(
            "simulate-32x32",
            3,
            lambda s: ["simulate", "--M", "32", "--N", "32", "--seeds", str(s),
                       "--noise", "off", "--format", "json"],
            check_simulate,
        ),
        # verify takes no seed: every request is the same.
        Workload("verify-grid8", 0, lambda s: ["verify", "--grid", "8", "--seeds", "5"], check_verify),
    )
}


@dataclass(frozen=True)
class Outcome:
    index: int
    seed: int
    latency_s: float
    digest: str
    error: str | None
    probe_s: float = math.nan  # speed probe around the request, see Client.loop


def speed_probe(matrix: np.ndarray) -> float:
    """Time a fixed piece of work that does not touch xchannel.

    The work mixes interpreter steps and small LAPACK solves, as the program
    does, so it slows down with the core when other tenants of the machine
    contend for it.
    """
    np.linalg.solve(matrix, matrix[0])  # matrix into cache, untimed
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(20):
        np.linalg.solve(matrix, matrix[0])
    return time.perf_counter() - start


def core_ms(outcomes: list[Outcome]) -> list[float]:
    """Request latencies in ms on a core where the speed probe takes PROBE_REF_S.

    Other tenants of the machine slow a core down by up to 1.6x, in phases
    of seconds. Dividing each latency by the probe time around it removes
    most of that; the fixed reference turns the ratio back into ms. The
    benchmark is pinned to one CPU, so probe and requests share the core.
    """
    return [o.latency_s * 1e3 * PROBE_REF_S / o.probe_s for o in outcomes]


class Client:
    """Sends one workload's requests to xchannel.cli.main and checks each output."""

    def __init__(self, cli, workload: Workload, bench_seed: int, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.base = random.Random(bench_seed).randrange(2**40)
        self.out_path = out_dir / "out"
        self.matrix = np.random.default_rng(0).standard_normal((64, 64))
        for _ in range(3):
            speed_probe(self.matrix)

    def seed_of(self, index: int) -> int:
        return self.base + self.workload.stride * index

    def send(self, index: int) -> Outcome:
        seed = self.seed_of(index)
        argv = self.workload.argv(seed) + ["--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)  # looked up per call, so a trace sees it
        except (Exception, SystemExit) as exc:  # a raising request is a failed one
            return Outcome(index, seed, time.perf_counter() - start, "", f"raised {exc!r}")
        latency = time.perf_counter() - start
        data = self.out_path.read_bytes() if self.out_path.exists() else b""
        error = None
        if code != 0:
            error = f"exit code {code}"
        else:
            try:
                self.workload.check(seed, data)
            except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        return Outcome(index, seed, latency, hashlib.sha256(data).hexdigest(), error)

    def loop(self, indices, seconds: float = math.inf, tracer: Tracer | None = None) -> list[Outcome]:
        """Closed loop: send the next request when the last one is done.

        Stops when `indices` run out or `seconds` have passed, after at least
        one request. The speed probe runs before the first request and after
        each one; a request's probe_s is the mean of the probes around it.
        """
        outcomes = []
        deadline = time.perf_counter() + seconds
        before = speed_probe(self.matrix)
        for index in indices:
            if tracer is not None:
                tracer.request = index
            outcome = self.send(index)
            after = speed_probe(self.matrix)
            outcomes.append(replace(outcome, probe_s=(before + after) / 2))
            before = after
            if time.perf_counter() >= deadline:
                break
        return outcomes


def import_program():
    """Import xchannel from this checkout's src/, never from elsewhere."""
    if not (SRC / "xchannel" / "__init__.py").is_file():
        raise SystemExit(f"bench: no xchannel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import xchannel.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported xchannel from {cli.__file__}, not {SRC}")
    return cli


@contextmanager
def scratch_dir():
    path = RESULTS / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure_setup(workload: str, seed: int, matrix: np.ndarray) -> list[tuple[float, float]]:
    """Time fresh processes from start through import and one warm-up request.

    Returns (seconds, speed probe around them) for each process.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    before = speed_probe(matrix)
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"bench: set-up run failed with exit code {proc.returncode}")
        after = speed_probe(matrix)
        samples.append((elapsed, (before + after) / 2))
        before = after
    return samples


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.strip().isdigit() else None


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def latency_metrics(ms: list[float], prefix: str = "") -> dict:
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        # One client with no think time: requests per second spent in the program.
        f"{prefix}requests_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        f"{prefix}latency_p50_ms": (statistics.median(ms), "ms"),
        f"{prefix}latency_p90_ms": (p90, "ms"),
    }


def end_to_end(outcomes: list[Outcome], setup: list[tuple[float, float]]) -> dict:
    ok = sum(o.error is None for o in outcomes)
    probes_ms = [o.probe_s * 1e3 for o in outcomes]
    return {
        **latency_metrics(core_ms(outcomes)),
        # As timed, whatever load other tenants put on the core.
        **latency_metrics([o.latency_s * 1e3 for o in outcomes], "raw_"),
        "probe_ms_min": (min(probes_ms), "ms"),
        "probe_ms_median": (statistics.median(probes_ms), "ms"),
        "setup_s": (statistics.median(t * PROBE_REF_S / p for t, p in setup), "s"),
        "raw_setup_s": (statistics.median(t for t, _ in setup), "s"),
        # ru_maxrss is in KiB on Linux; set-up runs are children, not counted.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (ok / len(outcomes), "ratio"),
        "failed_frac": ((len(outcomes) - ok) / len(outcomes), "ratio"),
    }


def trace_run(client: Client, seconds: float) -> tuple[list[Outcome], dict, Tracer]:
    """Run untraced, replay the same requests traced; return all outcomes and metrics."""
    plain = client.loop(itertools.count(1), seconds / 2)
    with Tracer() as tracer:
        traced = client.loop([o.index for o in plain], tracer=tracer)
    for i, (a, b) in enumerate(zip(plain, traced)):
        if b.error is None and a.digest != b.digest:
            traced[i] = replace(b, error="traced output differs")
    metrics = tracer.metrics(len(traced), {o.index: PROBE_REF_S / o.probe_s for o in traced})
    overhead = sum(core_ms(traced)) / sum(core_ms(plain)) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return plain + traced, metrics, tracer


def write_spans(path: Path, tracer: Tracer) -> None:
    fields = ["request", "span", "parent", "layer", "start_ns", "end_ns"]
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": fields, "rows": tracer.spans}, fh)


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up measurement in a fresh process (see measure_setup).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    names = declared_metrics(bool(args.trace))
    # One core for the client, its speed probe and its set-up processes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = import_program()
    workload = WORKLOADS[args.workload]
    with scratch_dir() as tmp:
        client = Client(cli, workload, args.seed, tmp)
        warm = client.send(0)  # untimed; part of set-up
        if args.setup_only:
            print("ready", flush=True)
            return 0 if warm.error is None else 1
        if args.trace:
            outcomes, metrics, tracer = trace_run(client, args.seconds)
            setup = []
        else:
            setup = measure_setup(args.workload, args.seed, client.matrix)
            outcomes = client.loop(itertools.count(1), args.seconds)
            metrics = end_to_end(outcomes, setup)
            tracer = None

    failures = [o for o in [warm, *outcomes] if o.error is not None]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    if tracer is not None:
        write_spans(RESULTS / f"{tag}-spans.json.gz", tracer)
    missing = [n for n in names if n not in metrics]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 thread",
        "machine": machine(),
        "requests": len(outcomes),
        "setup_samples": [{"seconds": t, "probe_s": p} for t, p in setup],
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent": sorted(tracer.absent) if tracer else [],
        "missing": missing,
        "failures": [{"index": o.index, "seed": o.seed, "error": o.error} for o in failures[:20]],
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for o in failures[:5]:
        print(f"bench: request {o.index} (seed {o.seed}) failed: {o.error}", file=sys.stderr)
    if missing:
        print(f"bench: metrics absent: {', '.join(missing)}", file=sys.stderr)
    if not args.trace and len(outcomes) < 100:
        print(f"bench: only {len(outcomes)} requests; latency_p90_ms needs 100", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": sum(o.error is not None for o in outcomes),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
