"""The benchmark's own tests, at unit-test size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import scenarios
import tracer
from repro.simcore import EventTrace

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(name, trace):
    result = run.measure(scenarios.WORKLOADS[name].tiny(), seed=3, seconds=0, trace=trace)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(scenarios.WORKLOADS)


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_traced_fingerprint_equals_untraced(name):
    workload = scenarios.WORKLOADS[name].tiny()
    untraced = EventTrace()
    scenarios.build(workload, 5, trace=untraced).run()
    traced = EventTrace()
    layer_tracer = tracer.LayerTracer()
    with tracer.traced_layers(layer_tracer):
        scenarios.build(workload, 5, trace=traced, tracer=layer_tracer).run()
    assert traced.count == untraced.count > 0
    assert traced.fingerprint == untraced.fingerprint
    assert sum(layer_tracer.calls.values()) > 0


def test_wrappers_are_removed_after_the_traced_run():
    from repro.core import HVACClient

    read = HVACClient.__dict__["read"]
    with tracer.traced_layers(tracer.LayerTracer()):
        assert HVACClient.__dict__["read"] is not read
    assert HVACClient.__dict__["read"] is read


def test_mdtest_never_calls_the_hvac_layers():
    metrics, _, problems = run.measure_layers(scenarios.WORKLOADS["mdtest_gpfs"].tiny(), 2)
    assert problems == []
    for layer in run.ZERO_CALL_LAYERS["mdtest"]:
        assert metrics[f"{layer}.calls"] == 0, layer
    assert metrics["storage.gpfs.calls"] > 0
    assert metrics["workloads.mdtest.calls"] > 0


def test_same_seed_gives_identical_sim_metrics():
    workload = scenarios.WORKLOADS["crash_failover"].tiny()
    a = run.sim_metrics(scenarios.build(workload, 9).run())
    b = run.sim_metrics(scenarios.build(workload, 9).run())
    c = run.sim_metrics(scenarios.build(workload, 10).run())
    assert a == b
    assert a != c


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8_hvac",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
