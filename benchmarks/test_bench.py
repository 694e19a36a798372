"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest benchmarks

They run every workload for about a second, so they are kept out of the
package's own test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bench
from tracing import LAYERS, Layer, Tracer

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return bench.import_program()


def run_bench(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/bench.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/bench.py"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _steeper_points(real):
    def tampered(*args, **kwargs):
        return [replace(p, sum_rate=1.08 * p.sum_rate) for p in real(*args, **kwargs)]

    return tampered


def _misreported_slope(real):
    def tampered(points):
        fit = real(points)
        return replace(fit, slope=1.01 * fit.slope)

    return tampered


@pytest.mark.parametrize(
    "target, tamper, reason",
    [
        ("sweep_rates", _steeper_points, "outside 5%"),
        ("dof_slope", _misreported_slope, "points give"),
    ],
)
def test_tampered_sweep_counts_as_failed(cli, monkeypatch, tmp_path, target, tamper, reason):
    monkeypatch.setattr(cli, target, tamper(getattr(cli, target)))
    client = bench.Client(cli, bench.WORKLOADS["sweep-8x8"], 1, tmp_path)
    outcomes = [replace(client.send(i), probe_s=bench.PROBE_REF_S) for i in (1, 2)]
    assert all(reason in o.error for o in outcomes)
    metrics = bench.end_to_end(outcomes, [(1.0, bench.PROBE_REF_S)])
    assert metrics["failed_frac"][0] == 1.0 and metrics["ok_frac"][0] == 0.0


def test_tampered_recovery_counts_as_failed(cli, tmp_path):
    client = bench.Client(cli, bench.WORKLOADS["simulate-32x32"], 1, tmp_path)
    assert client.send(1).error is None
    doc = json.loads(client.out_path.read_bytes())
    doc["runs"][0]["max_relative_error"] = 1e-3
    with pytest.raises(bench.CheckFailed, match="max relative error"):
        bench.check_simulate(client.seed_of(1), json.dumps(doc).encode())


def test_trace_is_faithful_and_counts_repeat(cli, tmp_path):
    client = bench.Client(cli, bench.WORKLOADS["verify-grid8"], 1, tmp_path)
    runs = [bench.trace_run(client, 0.05) for _ in range(2)]
    exact = ("calls", "csit_reads", "csit_violations", "observations", "bytes_drawn",
             "rate_factorizations", "success_ratio")
    counts = []
    for outcomes, metrics, tracer in runs:
        assert all(o.error is None for o in outcomes)
        assert not tracer.absent
        counts.append({k: v for k, v in metrics.items() if k.endswith(exact)})
        roots = sum(end - start for _, _, parent, _, start, end in tracer.spans if parent is None)
        assert sum(tracer.self_ns.values()) == roots
    assert counts[0] == counts[1]
    assert counts[0]["schedule.build_schedule.calls"][0] >= 8 * 7  # the DoF grid alone
    assert counts[0]["analysis.sum_rate.calls"][0] == 0


def test_trace_restores_the_program(cli):
    import xchannel.analysis as analysis
    import xchannel.simulate as simulate
    from xchannel.transmit import TransmitPlan

    before = (simulate.observe_all, analysis.sum_rate, TransmitPlan.signal_matrix, cli.main)
    with Tracer():
        assert simulate.observe_all is not before[0]
        assert analysis.sum_rate is not before[1]
    assert (simulate.observe_all, analysis.sum_rate, TransmitPlan.signal_matrix, cli.main) == before


def test_missing_function_is_absent_not_zero(cli, tmp_path):
    gone = Layer("receive.gone", "xchannel.receive", "no_such_function")
    with Tracer(LAYERS + (gone,)) as tracer:
        cli.main(["schedule", "--M", "2", "--N", "2", "--out", str(tmp_path / "out")])
    metrics = tracer.metrics(1)
    assert "receive.gone" in tracer.absent
    assert not any(k.startswith("receive.gone") for k in metrics)
    assert metrics["schedule.build_schedule.calls"][0] == 1


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify-grid8", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
