"""Overcommitted fleets under pressure: the whole escalation ladder
(ballooning, KSM, swap) must engage, tracing it must not change results,
and the paper's Section 8 victim rule must measurably protect
well-aligned huge pages.
"""

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


def test_pressure_telemetry_is_neutral_and_merges():
    # One registry collects the ladder's events from every host, and
    # tracing changes nothing.
    untraced = ClusterSimulation(PRESSURED).run()
    obs.enable(Telemetry(sample=1.0, clock=Clock(wall=lambda: 0.0)))
    traced = ClusterSimulation(PRESSURED).run()
    events = obs.get().events()
    assert traced == untraced
    kinds = {event.kind for event in events}
    assert "pressure.watermark" in kinds
    assert "swap.out" in kinds
    assert "swap.in" in kinds
    assert {event.host for event in events} >= set(range(PRESSURED.hosts))


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
