"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload at smoke size, traced and untraced, and checks that
each metric BENCHMARK.json declares is printed by name with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def outputs():
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            runs[workload, trace] = proc.stdout.splitlines()
    return runs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(outputs, workload, trace):
    lines = outputs[workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.strip().startswith("failed_share = 0 share") for line in lines)
    machine = json.loads(next(line for line in lines if line.startswith("machine "))[8:])
    for key in ("nproc", "python", "numpy", "scipy", "blas", "commit", "OPENBLAS_NUM_THREADS"):
        assert key in machine


def test_end_to_end_metrics_are_nonzero(outputs):
    for workload in WORKLOADS:
        metrics = json.loads(outputs[workload, 0][-1])["metrics"]
        assert all(v["value"] > 0 for v in metrics.values()), (workload, metrics)


def test_trace_confirms_the_workload_split(outputs):
    layer = {w: {k: v["value"] for k, v in json.loads(outputs[w, 1][-1])["metrics"].items()}
             for w in WORKLOADS}
    assert layer["verify-polytope"]["spectrum.secular_roots.calls"] == 0
    assert layer["scan-spectral"]["spectrum.secular_roots.calls"] > 0
    assert layer["additivity"]["spectrum.secular_roots.calls"] > 0
    assert layer["scan-spectral"]["majorization.elem_sym.calls"] > 0
    assert layer["verify-polytope"]["majorization.elem_sym.calls"] == 0
    assert layer["additivity"]["majorization.elem_sym.calls"] == 0
    assert layer["verify-polytope"]["verification.polytope.draws_per_row"] > 1
    assert layer["additivity"]["entropy.objective.calls"] == layer["additivity"]["spectrum.secular_roots.calls"]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_and_reports_absent_names():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import tdchan
        from spans import Tracer

        original = tdchan.spectrum.secular_roots
        tracer = Tracer("tdchan")
        assert tracer.wrap("spectrum.secular_roots")
        assert not tracer.wrap("verification.no_such_function")
        try:
            assert tdchan.majorization.secular_roots is tdchan.spectrum.secular_roots is not original
            ch = tdchan.new_channel(3, -0.25)
            tracer.span("outer", tdchan.scaled_secular_roots, ch, [0.5, 0.3, 0.2])
        finally:
            tracer.restore()
        assert tdchan.majorization.secular_roots is original
        assert tracer.absent == ["verification.no_such_function"]
        stats = tracer.summary()
        assert stats["spectrum.secular_roots"].calls == 1
        outer, inner = stats["outer"], stats["spectrum.secular_roots"]
        assert abs(outer.self_s - (outer.total_s - inner.total_s)) < 1e-9
    finally:
        del sys.path[:2]
