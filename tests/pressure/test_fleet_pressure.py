"""Overcommitted fleets under pressure: the determinism contract must
survive the whole escalation ladder (ballooning, KSM, swap), pressure
telemetry must merge identically across processes, and the paper's
Section 8 victim rule must measurably protect well-aligned huge pages.
"""

from collections import defaultdict
from dataclasses import replace

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterSimulation, run_cluster
from repro.cluster.config import ChurnConfig, MigrationConfig
from repro.obs import Clock, Telemetry
from repro.pressure import PressureConfig

#: Two small Gemini hosts admitting 2.5x their memory in commitments:
#: every epoch of the run is spent below the watermark, swapping.
PRESSURED = ClusterConfig(
    hosts=2,
    host_mib=128,
    epochs=5,
    seed=7,
    system="Gemini",
    overcommit_ratio=2.5,
    placement_headroom=1.0,
    churn=ChurnConfig(
        initial_vms=8,
        arrivals_per_epoch=0.5,
        departure_rate=0.03,
        max_vms=14,
        guest_mib_choices=(48, 64),
        workload_pool=("Shore", "SP.D", "Sphinx", "Moses"),
    ),
    pressure=PressureConfig(enabled=True),
    migration=MigrationConfig(check_invariants=True),
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.clear_context()
    yield
    obs.disable()
    obs.clear_context()


def test_pressure_actually_engages():
    result = ClusterSimulation(PRESSURED).run()
    assert result.fleet_swap_out_pages > 0
    assert result.fleet_swap_in_pages > 0
    assert result.fleet_swapped_pages > 0
    assert result.mean_throughput > 0.0
    # The host records expose the pressure signal and swap residency.
    finals = [
        record
        for record in result.host_epochs
        if record.epoch == result.epochs - 1
    ]
    assert any(record.pressure > 0.0 for record in finals)
    assert any(record.swapped_pages > 0 for record in finals)
    for record in result.host_epochs:
        assert 0.0 <= record.pressure <= 1.0
        assert record.swap_out_pages >= 0


def test_overcommit_admits_beyond_physical_memory():
    base = ClusterSimulation(replace(PRESSURED, overcommit_ratio=1.0))
    over = ClusterSimulation(PRESSURED)
    base_result = base.run()
    over_result = over.run()
    placed_base = len({r.ordinal for r in base_result.tenant_epochs})
    placed_over = len({r.ordinal for r in over_result.tenant_epochs})
    assert placed_over > placed_base
    assert over_result.placement_failures < base_result.placement_failures


def test_serial_and_parallel_pressured_runs_are_identical(force_pool):
    serial = ClusterSimulation(PRESSURED).run(workers=1)
    sim = ClusterSimulation(PRESSURED)
    parallel = sim.run(workers=2)
    if sim.ipc_bytes_per_epoch == 0:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert serial == parallel
    assert serial.fleet_swap_out_pages > 0


def _run_traced(config, workers):
    obs.enable(Telemetry(sample=1.0, clock=Clock(wall=lambda: 0.0)))
    sim = ClusterSimulation(config)
    result = sim.run(workers=workers)
    events = obs.get().events()
    obs.disable()
    obs.clear_context()
    return result, events, sim.ipc_bytes_per_epoch > 0


def _by_host(events):
    streams = defaultdict(list)
    for event in events:
        streams[event.host].append(event.identity())
    return dict(streams)


def test_pressure_telemetry_is_neutral_and_merges(force_pool):
    untraced = ClusterSimulation(PRESSURED).run(workers=1)
    serial_result, serial_events, _ = _run_traced(PRESSURED, workers=1)
    parallel_result, parallel_events, forked = _run_traced(PRESSURED, workers=2)
    # Tracing changes nothing, serial or parallel.
    assert serial_result == untraced
    assert parallel_result == untraced
    kinds = {event.kind for event in serial_events}
    assert "pressure.watermark" in kinds
    assert "swap.out" in kinds
    assert "swap.in" in kinds
    if not forked:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert _by_host(parallel_events) == _by_host(serial_events)


def test_alignment_aware_retains_more_aligned_huge_pages():
    """The acceptance contrast: under an identical overcommitted Gemini
    pressure trace, the paper's Section 8 victim rule keeps strictly
    more well-aligned huge pages alive than pure working-set eviction,
    by destroying strictly fewer of them."""
    squeezed = replace(PRESSURED, host_mib=80, epochs=6)
    squeezed = replace(
        squeezed, churn=replace(squeezed.churn, initial_vms=10, max_vms=16)
    )
    results = {}
    for policy in ("lru-cold", "alignment-aware"):
        config = replace(
            squeezed,
            pressure=replace(squeezed.pressure, victim_policy=policy),
        )
        results[policy] = run_cluster(config)
    aware = results["alignment-aware"]
    lru = results["lru-cold"]
    assert lru.fleet_swap_out_pages > 0
    assert lru.fleet_pressure_aligned_demotions > 0, (
        "the squeeze must be hard enough that lru-cold eats aligned pages"
    )
    assert aware.fleet_aligned_huge > lru.fleet_aligned_huge
    assert (
        aware.fleet_pressure_aligned_demotions
        < lru.fleet_pressure_aligned_demotions
    )


def test_pressure_config_is_not_an_execution_strategy():
    """Changing the victim policy must change the cache key: pressure
    settings are physics, not execution strategy."""
    from repro.cluster import fleet_key

    aware = fleet_key(PRESSURED)
    lru = replace(
        PRESSURED, pressure=replace(PRESSURED.pressure, victim_policy="lru-cold")
    )
    assert fleet_key(lru) != aware
    off = replace(PRESSURED, pressure=PressureConfig())
    assert fleet_key(off) != aware
