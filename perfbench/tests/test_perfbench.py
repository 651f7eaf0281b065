"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs use the smallest run length, one cycle of each workload.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        spec,
    )


def _run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done


@pytest.fixture(scope="module", autouse=True)
def program():
    bench.import_program()


def test_benchmark_json_lists_the_workloads():
    _, _, spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_exactly_the_declared_metrics(workload):
    end_to_end, _, _ = _declared()
    done = _run(workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(end_to_end)
    for name, value in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert value["unit"] == end_to_end[name]
        assert value["value"] > 0


def test_traced_run_prints_exactly_the_declared_per_layer_metrics():
    _, per_layer, _ = _declared()
    done = _run("bulk", trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(per_layer)
    for name, value in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert value["unit"] == per_layer[name]


def test_seed_changes_web_and_fleet_inputs():
    from repro.experiments.table1 import TRACES
    from repro.fleet.hybrid import FleetConfig
    from repro.fleet.tenants import TenantPopulation
    from repro.traces.catalog import get_trace

    for name in ("web", "fleet"):
        build = workloads.WORKLOADS[name].build
        assert {op.key for op in build(0, 1)}.isdisjoint(op.key for op in build(1, 1))
    # Web: the seed picks the trace realization (Table 1 uses seed + 1).
    rates = [get_trace(TRACES["driving"], seed=s + 1).rates_bps[:50] for s in (0, 1)]
    assert list(rates[0]) != list(rates[1])
    # Fleet: the seed picks the tenant population.
    pops = [
        TenantPopulation.generate(FleetConfig(tenants=100, seed=s).population_spec())
        for s in (0, 1)
    ]
    assert pops[0].arrivals != pops[1].arrivals


def test_bulk_and_multipath_inputs_ignore_the_seed():
    for name in ("bulk", "multipath"):
        build = workloads.WORKLOADS[name].build
        assert [op.key for op in build(0, 1)] == [op.key for op in build(7, 1)]


def _vegas_op():
    return next(op for op in workloads.bulk_build(0, 1) if op.param("cc") == "vegas")


def test_perturbed_reference_counts_as_a_failed_op():
    workload = workloads.WORKLOADS["bulk"]
    op = _vegas_op()
    good = bench.load_references()["bulk"]
    cap = bench.capture.Capture().install()
    try:
        checker = bench.Checker(workload, good)
        bench.execute(workload, op, cap, checker)
        assert (checker.attempted, checker.failed) == (1, 0)
        perturbed = dict(good, **{op.key: "0" * 64})
        checker = bench.Checker(workload, perturbed)
        bench.execute(workload, op, cap, checker)
        assert (checker.attempted, checker.failed) == (1, 1)
        assert "reference" in checker.failures[0]["reason"]
    finally:
        cap.uninstall()


def test_counters_repeat_exactly():
    workload = workloads.WORKLOADS["bulk"]
    op = _vegas_op()
    cap = bench.capture.Capture().install()
    try:
        runs = [bench.execute(workload, op, cap, bench.Checker(workload, {}))[1] for _ in range(2)]
    finally:
        cap.uninstall()
    assert runs[0] == runs[1]
    assert runs[0]["sim.events"] > 0 and runs[0]["net.send_calls"] > 0


def test_layer_self_times_reconcile_with_the_traced_op_wall_time():
    from tracing import Tracer

    tracer = Tracer()
    op = _vegas_op()
    _, wall = tracer.run_op(0, lambda: workloads.bulk_run(op))
    layers = tracer.layer_self_s()
    assert sum(layers.values()) == pytest.approx(wall, rel=1e-6)
    assert layers["sim"] > 0 and layers["net"] > 0 and layers["steering"] > 0
    assert layers["fleet"] == 0.0
    # Every wrapper is removed after the op.
    from repro.net.node import Device

    assert not hasattr(Device.__dict__["send"], "__wrapped__")


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    times = [float(i) for i in range(1, 41)]
    assert bench.tail(times) == (30.0, 75.0, 10)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_exits_nonzero_without_the_program():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = _run("bulk", trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_results_with_different_stamps_are_not_compared(capsys):
    import compare

    def result(python: str, value: float):
        stamp = {"python": python, "implementation": "CPython", "numpy": None,
                 "compiled_core": False, "cpu_count": 2, "commit": "x"}
        return {"detail": {"workload": "bulk", "trace": 0, "stamp": stamp},
                "result": {"metrics": {"op_p50_s": {"value": value, "unit": "s"}}}}

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    paths = []
    for i, (python, value) in enumerate((("3.11.7", 1.0), ("3.11.7", 1.05), ("3.12.1", 1.0))):
        path = out / f"compare-test-{i}.json"
        path.write_text(json.dumps(result(python, value)))
        paths.append(str(path))
    try:
        assert compare.main(["--base", paths[0], "--head", paths[1]]) == 0
        assert "head/base 1.0500" in capsys.readouterr().out
        assert compare.main(["--base", paths[0], "--head", paths[2]]) == 3
        assert "not comparable" in capsys.readouterr().out
    finally:
        for path in paths:
            Path(path).unlink()
