"""Smoke test of both workloads' code paths on a 10 m drive.

Run from the root of a checkout::

    python3 -m pytest perfbench
"""

import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins the BLAS threads and locates src/)

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _main(workload, trace):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, extra_config=run.TINY_CONFIG, out=out) == 0
    lines = out.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = _main(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac 0 ratio (0 of" in "\n".join(lines)
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in BENCHMARK["end_to_end"]:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert reported["value"] > 0
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']} (" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_reported(workload):
    _, result = _main(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["optimizer.dvso.iterations"]["value"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_in_traced_wall_time(workload):
    bench = run.Bench(workloads.WORKLOADS[workload], 3, 0, 1, run.TINY_CONFIG)
    bench.run()
    assert bench.failed == 0
    traced = [r for r in bench.ops if r["traced"]]
    assert traced
    for r in traced:
        op_spans = [s for s in bench.tracer.spans if s.op == r["op"]]
        layers = spans.self_times(op_spans)
        assert {"pipeline", "simulate", "sync", "graph", "optimizer", "metrics"} <= set(layers)
        assert all(t >= 0.0 for t in layers.values()), layers
        assert sum(layers.values()) <= r["wall_s"]
