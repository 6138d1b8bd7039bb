"""Smoke run of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Covers every workload untraced and traced (and so the trace writer), the
result line's contract against ``BENCHMARK.json`` and the span arithmetic.
It lives outside ``tests/``, so the repository's own test run skips it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def _run(workload, trace, seed=5):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_contract(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        trace_files = sorted((HERE.parent / ".bench_out" / workload).glob("*.trace.json"))
        assert len(trace_files) >= 2
        spans = json.loads(trace_files[0].read_text())["spans"]
        assert spans[0][0] == "cli.dispatch" and spans[0][3] == -1
        # a declared time must be measured on every workload, never a constant 0
        assert all(m["value"] != 0 for m in result["metrics"].values() if m["unit"] == "s")
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_transform_counts_and_self_time():
    import numpy as np

    tracer = tracing.Tracer()
    step = tracer._wrap("solver.step_etd2", lambda x: dst(dst(x)))
    dst = tracer._wrap("spectral.dst", lambda x, type=1: x)
    for _ in range(3):
        step(np.zeros((4, 8)))
    summary = tracer.summarise(probe_rtol=1e-6, probe_max_nodes=256)
    assert summary["spectral.transforms_per_step"] == 8
    assert summary["spectral.dst_calls"] == 6
    assert summary["spectral.transform_bytes_computed"] == 6 * 2 * 4 * 8 * 8
    inclusive = summary["solver.step_etd2_s"]
    assert summary["solver.step_etd2_self_s"] == pytest.approx(
        inclusive - summary["spectral.dst_s"], abs=1e-12)


def test_probe_refinement_counts():
    tracer = tracing.Tracer()
    tracer.probe_history = [(0, 32, 1.0), (0, 64, 1.0 + 1e-9),     # converged
                            (5, 32, 1.0), (5, 64, 1.1)]            # stopped at the cap
    assert tracer._unconverged(1e-6) == 1
    assert tracer._at_max_nodes(64) == 2
