"""Tests for the cluster engine: end-to-end runs, the views decisions
read, placement outcomes and the cached entry point."""

from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    FleetResult,
    fleet_key,
    run_cluster,
)
from repro.cluster.config import ConsolidationConfig, MigrationConfig
from repro.exec import ResultCache

SMALL = ClusterConfig(
    hosts=3,
    host_mib=512,
    epochs=6,
    seed=7,
    migration=MigrationConfig(check_invariants=True),
)


def test_end_to_end_small_fleet():
    result = ClusterSimulation(SMALL).run()
    assert result.hosts == 3 and result.epochs == 6
    # Every host reports every epoch.
    assert len(result.host_epochs) == 3 * 6
    assert result.tenant_epochs, "churn should land tenants that run"
    assert 0.0 <= result.fleet_fmfi <= 1.0
    assert 0.0 <= result.fleet_well_aligned_rate <= 1.0
    assert result.mean_throughput > 0.0
    assert set(result.host_fmfi()) == {0, 1, 2}
    for host, rate in result.alignment_distribution().items():
        assert 0 <= host < 3
        assert 0.0 <= rate <= 1.0


def test_final_host_states_are_gathered():
    sim = ClusterSimulation(SMALL)
    sim.run()
    assert len(sim.hosts) == 3
    total_tenants = sum(len(host.tenants) for host in sim.hosts)
    live = len(sim._vm_host)
    assert total_tenants == live
    for ordinal, index in sim._vm_host.items():
        assert ordinal in sim.hosts[index].tenants


def test_zero_hosts_rejected():
    with pytest.raises(ValueError):
        ClusterSimulation(ClusterConfig(hosts=0))


def test_run_rejects_worker_counts_above_one():
    # Hosts always step in-process; the keyword survives only for
    # callers that pass ``workers=1``.
    with pytest.raises(ValueError, match="in-process"):
        ClusterSimulation(SMALL).run(workers=2)


def test_placement_views_match_summaries(monkeypatch):
    # Every placement decision — arrivals and consolidation targets —
    # must read views equal to what the hosts themselves report.  The
    # initial VMs all arrive in epoch 0, several per host, and this
    # fleet's consolidation passes migrate.
    config = replace(SMALL, hosts=4, epochs=8)
    sim = ClusterSimulation(config)
    select = sim.placement.select
    decisions = []

    def checked_select(views, *args, **kwargs):
        assert list(views) == [host.summary() for host in sim.hosts]
        decisions.append(kwargs.get("exclude"))
        return select(views, *args, **kwargs)

    monkeypatch.setattr(sim.placement, "select", checked_select)
    result = sim.run()
    first_epoch = [e for e in sim.trace if e.kind == "arrive" and e.epoch == 0]
    assert len(first_epoch) > config.hosts
    assert len(decisions) >= len(first_epoch)
    assert result.migration_count > 0
    assert any(exclude is not None for exclude in decisions)
    # The views stay exact to the end of the run.
    for index, host in enumerate(sim.hosts):
        assert sim._views[index] == host.summary()


def test_consolidation_migrates_and_records():
    config = replace(SMALL, hosts=4, epochs=8)
    result = ClusterSimulation(config).run()
    assert result.migration_count > 0
    for record in result.migrations:
        assert record.source != record.destination
        assert record.resident_pages > 0
        assert record.rounds >= 1
        assert record.copied_pages >= record.resident_pages
        assert record.total_cycles > 0


def test_alignment_aware_beats_first_fit_on_aged_fleet():
    # The acceptance scenario: a THP fleet with a host-age fragmentation
    # gradient.  First-fit packs the aged hosts and collocates tenants on
    # shared coalescing budgets; alignment-aware spreads contention and
    # lands VMs where aligned backing is attainable.
    base = ClusterConfig(
        hosts=6,
        host_mib=768,
        epochs=10,
        seed=42,
        system="THP",
        fragment_host=0.9,
        consolidation=ConsolidationConfig(every=0),
    )
    first_fit = ClusterSimulation(replace(base, placement="first-fit")).run()
    aware = ClusterSimulation(replace(base, placement="alignment-aware")).run()
    assert aware.fleet_well_aligned_rate > first_fit.fleet_well_aligned_rate


def test_fleet_key_ignores_fast_path_flags():
    """There are no fast-path flags left to ignore: the key hashes every
    field, so it is deterministic and moves with any content change."""
    config = ClusterConfig(hosts=2, epochs=4)
    assert fleet_key(config) == fleet_key(ClusterConfig(hosts=2, epochs=4))
    assert fleet_key(config) != fleet_key(replace(config, seed=1))
    assert fleet_key(config) != fleet_key(replace(config, placement="best-fit"))
    assert fleet_key(config) != fleet_key(replace(config, noise_rate=0.1))


def test_run_cluster_caches_results(tmp_path):
    config = replace(SMALL, epochs=4)
    cache = ResultCache(tmp_path, expected=FleetResult)
    first = run_cluster(config, cache=cache)
    assert cache.stats.stores == 1
    second = run_cluster(config, cache=cache)
    assert cache.stats.hits == 1
    assert first == second


def test_to_dict_is_json_friendly():
    import json

    result = run_cluster(replace(SMALL, epochs=4), cache=None)
    payload = result.to_dict()
    assert json.dumps(payload)
    assert payload["hosts"] == SMALL.hosts
    assert "fleet_fmfi" in payload
