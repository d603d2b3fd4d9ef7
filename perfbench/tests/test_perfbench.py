"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsd
from calibration import Meter
from metrics import END_TO_END, PER_LAYER
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAMES = tuple(WORKLOADS)


def run_bench(workload: str, trace: int, cwd=ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def tiny_result(workload: str, trace: int) -> dict:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric(workload, trace):
    result = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_traced_call_counts_repeat(workload):
    first = tiny_result(workload, 1)["metrics"]
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    calls = [name for name in PER_LAYER if name.endswith(".calls")]
    assert [first[n]["value"] for n in calls] == [second[n]["value"] for n in calls]
    assert first["kernel.eig_per_sd"]["value"] == second["kernel.eig_per_sd"]["value"] == 4


def test_skew_divergence_makes_four_eigen_calls():
    assert tiny_result("scan-small", 1)["metrics"]["kernel.eig_per_sd"]["value"] == 4


@pytest.mark.parametrize("workload", NAMES)
def test_inputs_follow_the_seed(workload, tmp_path):
    def digest(seed):
        workdir = tmp_path / f"seed{seed}-{len(list(tmp_path.iterdir()))}"
        workdir.mkdir()
        return WORKLOADS[workload](seed, "tiny", str(workdir)).inputs_digest()

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_span_tree_is_well_formed():
    wl = WORKLOADS["scan-small"](4, "tiny", "")
    original = (qsd.skew_divergence, np.linalg.eigh)
    tracer = Tracer()
    with tracer:
        wl.run_pass(Meter())
    assert (qsd.skew_divergence, np.linalg.eigh) == original
    assert wl.failed == 0
    n = len(tracer.start)
    assert n > len(wl.ops)
    for idx in range(n):
        assert tracer.start[idx] <= tracer.end[idx]
        p = tracer.parent[idx]
        if p >= 0:
            assert p < idx
            assert tracer.start[p] <= tracer.start[idx] <= tracer.end[idx] <= tracer.end[p]
    assert min(tracer.self_times()) >= 0.0
    summary = tracer.summary()
    assert summary.calls["divergences.skew_divergence"] == sum(op.fn == "skew_divergence" for op in wl.ops)
    assert summary.per_call(["divergences.skew_divergence"], ["eigh", "eigvalsh"]) == 4


def test_gate_catches_a_wrong_result(monkeypatch):
    wl = WORKLOADS["scan-small"](4, "tiny", "")
    real = qsd.skew_divergence
    monkeypatch.setattr(qsd, "skew_divergence", lambda *args: real(*args) + 1e-7)
    wl.run_pass(Meter())
    wl.gate_sample = 0  # check every result
    wl.gate()
    assert wl.failed == sum(op.fn == "skew_divergence" for op in wl.ops)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("scan-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
