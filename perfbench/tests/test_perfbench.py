"""Tests of the benchmark itself: tracer arithmetic, wrapper restoration,
and the output check.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import suite
from digest import digest
from run import END_TO_END_UNITS, Bench, layer_metrics, per_layer_units
from tracer import Tracer

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation
from repro.workloads.suite import make_workload

PERFBENCH = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock that advances only when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def tiny_ops() -> list[suite.Op]:
    """Two cheap operations that still reach every engine: one cell, one fleet."""
    cell = SimulationConfig(epochs=2, host_mib=256, guest_mib=64, fragment_host=0.5, seed=3)
    fleet = ClusterConfig(hosts=2, host_mib=256, epochs=2, seed=3)
    return [
        suite.Op("Redis/Gemini", lambda: Simulation(make_workload("Redis"), "Gemini", cell),
                 lambda sim: sim.run_single()),
        suite.Op("fleet", lambda: ClusterSimulation(fleet), lambda sim: sim.run(workers=1)),
    ]


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.spend(2.0)

    def middle():
        clock.spend(1.0)
        leaf_span()
        clock.spend(0.5)
        leaf_span()

    def top():
        clock.spend(3.0)
        middle_span()

    leaf_span = tracer.span(leaf, "mem.leaf")
    middle_span = tracer.span(middle, "os.middle")
    top_span = tracer.span(top, "sim.top")

    clock.spend(0.25)  # outside any span: unattributed
    top_span()
    wall = clock.now

    assert tracer.self_s("mem.leaf") == 4.0
    assert tracer.self_s("os.middle") == 1.5
    assert tracer.self_s("sim.top") == 3.0
    assert tracer.calls("mem.leaf") == 2
    assert tracer.spans_total() + 0.25 == wall


def test_same_name_nesting_folds_into_one_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def recurse(depth):
        clock.spend(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.span(recurse, "mem.recurse")
    wrapped(3)
    assert tracer.calls("mem.recurse") == 1
    assert tracer.self_s("mem.recurse") == 4.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.spend(1.0)
        raise ValueError("boom")

    outer = tracer.span(lambda: inner(), "sim.outer")
    inner = tracer.span(boom, "mem.inner")
    with pytest.raises(ValueError):
        outer()
    assert tracer.self_s("mem.inner") == 1.0
    assert tracer.self_s("sim.outer") == 0.0
    assert tracer._stack == []


def test_counter_counts_without_timing():
    clock = FakeClock()
    tracer = Tracer(clock)
    counted = tracer.counter(lambda x: clock.spend(x), "paging.translate")
    span = tracer.span(lambda: [counted(1.0) for _ in range(3)], "os.fault")
    span()
    assert tracer.calls("paging.translate") == 3
    assert tracer.self_s("paging.translate") == 0.0
    assert tracer.self_s("os.fault") == 3.0


# ----------------------------------------------------------------------
# Wrapper installation and restoration
# ----------------------------------------------------------------------


def _targets() -> dict[tuple[object, str], object]:
    """Every (owner, attribute) the tables touch, with its current value."""
    owners: dict[tuple[object, str], object] = {}
    for owner, attr, _, _, tree in layers._SPAN_TABLE:
        classes = [owner]
        if tree:
            pending = [owner]
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                classes.append(cls)
        for cls in classes:
            owners[(cls, attr)] = vars(cls).get(attr)
    for owner, attr, _, _ in layers._COUNTER_TABLE:
        owners[(owner, attr)] = vars(owner).get(attr)
    return owners


def test_every_wrapper_is_restored_after_a_traced_set():
    before = _targets()
    bench = Bench(tiny_ops())
    plain = bench.run_set()
    tracer = Tracer()
    traced = bench.run_set(tracer)
    assert _targets() == before
    assert bench.failed == 0, bench.problems
    assert [digest(r) for r in traced["results"]] == [digest(r) for r in plain["results"]]
    # The traced set really went through the wrappers.
    assert tracer.calls("hypervisor.touch_range") > 0
    assert tracer.calls("cluster.step_epoch") > 0
    assert tracer.calls("sim.build_segments") > 0


def test_wrappers_are_restored_when_an_operation_raises():
    before = _targets()

    def explode(sim):
        raise RuntimeError("operation failed")

    bench = Bench([suite.Op("bad", lambda: None, explode)])
    bench.run_set(Tracer())
    assert _targets() == before
    assert (bench.attempted, bench.failed) == (1, 1)


def test_layer_report_sums_to_traced_wall():
    bench = Bench(tiny_ops())
    tracer = Tracer()
    traced = bench.run_set(tracer)
    metrics = layer_metrics(tracer, traced["wall"])
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert metrics["sim.unattributed_s"] >= 0.0
    assert layer_sum + metrics["sim.unattributed_s"] == pytest.approx(traced["wall"])
    assert set(metrics) <= set(per_layer_units())


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


def test_output_check_catches_a_perturbed_result():
    config = SimulationConfig(epochs=2, host_mib=256, guest_mib=64, seed=5)
    runs = 0

    def run(sim):
        nonlocal runs
        runs += 1
        result = sim.run_single()
        if runs == 2:  # the repeat comes back one modelled op different
            first = result.epochs[0]
            performance = dataclasses.replace(first.performance, ops=first.performance.ops + 1)
            result.epochs[0] = dataclasses.replace(first, performance=performance)
        return result

    op = suite.Op("Redis/THP", lambda: Simulation(make_workload("Redis"), "THP", config), run)
    bench = Bench([op])
    bench.run_set()
    assert bench.failed == 0
    bench.run_set()
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "Redis/THP" in bench.problems[0]


def test_output_check_compares_with_pinned_digests():
    ops = tiny_ops()[:1]
    good = Bench(ops)
    good.run_set()
    assert good.failed == 0
    pinned = Bench(ops, pins=dict(good.seen))
    pinned.run_set()
    assert pinned.failed == 0
    wrong = Bench(ops, pins={key: "0" * 16 for key in good.seen})
    wrong.run_set()
    assert wrong.failed == 1


def test_digest_is_independent_of_hash_seed():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        "import suite; from digest import digest;"
        "op = suite.ops_for('steady', 4)[0];"
        "from dataclasses import replace; sim = op.build();"
        "sim.config = replace(sim.config, epochs=3);"
        "print(digest(op.run(sim)))"
    )
    digests = set()
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", script, str(PERFBENCH), str(PERFBENCH.parent / "src")],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_pinned_seeds_cover_every_workload():
    import json

    pins = json.loads((PERFBENCH / "pins.json").read_text())
    assert set(pins) == set(suite.WORKLOADS)
    for workload, seeds in pins.items():
        keys = {op.key for op in suite.ops_for(workload, 0)}
        for seed, digests in seeds.items():
            assert set(digests) == keys, (workload, seed)


def test_names_and_units_match_benchmark_json():
    import json

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(suite.WORKLOADS)
    assert {entry["name"]: entry["unit"] for entry in spec["end_to_end"]} == END_TO_END_UNITS
    assert {entry["name"]: entry["unit"] for entry in spec["per_layer"]} == per_layer_units()
