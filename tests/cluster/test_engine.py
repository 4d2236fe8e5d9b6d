"""Tests for the cluster engine: end-to-end runs, serial/parallel
determinism, placement outcomes and the cached entry point."""

from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    FleetResult,
    fleet_key,
    run_cluster,
)
from repro.cluster import engine
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


def test_serial_and_parallel_runs_are_identical(force_pool):
    # The determinism contract: same seed, same results, any worker count.
    serial = ClusterSimulation(SMALL).run(workers=1)
    sim = ClusterSimulation(SMALL)
    parallel = sim.run(workers=2)
    if sim.ipc_bytes_per_epoch == 0:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert serial == parallel
    # Deltas shipped over the wire rebuild every view exactly.
    for index, host in enumerate(sim.hosts):
        assert sim._views[index] == host.summary()


def test_queued_arrival_views_match_summaries(monkeypatch):
    # The controller patches its view for each queued arrival instead of
    # asking the host; once the add op runs, the host must publish
    # exactly the patched view.  SMALL's initial VMs all arrive in epoch
    # 0, several per host.
    sim = ClusterSimulation(SMALL)
    patched = {}
    checked = []
    queue_arrival = sim._queue_arrival
    add_tenant = engine._queue_add_tenant

    def record_patch(event, epoch, ops):
        queue_arrival(event, epoch, ops)
        if event.ordinal in sim._vm_host:
            patched[event.ordinal] = sim._views[sim._vm_host[event.ordinal]]

    def add_and_check(host, ordinal, *args):
        add_tenant(host, ordinal, *args)
        checked.append((patched[ordinal], host.summary()))

    monkeypatch.setattr(sim, "_queue_arrival", record_patch)
    monkeypatch.setattr(engine, "_queue_add_tenant", add_and_check)
    sim.run(workers=1)
    first_epoch = [e for e in sim.trace if e.kind == "arrive" and e.epoch == 0]
    assert len(first_epoch) > SMALL.hosts
    assert len(checked) == len(patched) >= len(first_epoch)
    for view, summary in checked:
        assert view == summary
    # Deltas rebuild every view exactly, to the end of the run.
    for index, host in enumerate(sim.hosts):
        assert sim._views[index] == host.summary()


@pytest.mark.parametrize("spool", [1, 3, 100])
@pytest.mark.parametrize("serial_spooled", [True, False])
def test_parallel_identical_across_spool_and_delta_knobs(
    force_pool, monkeypatch, spool, serial_spooled
):
    # Spool drains must splice records back in run order at every drain
    # boundary: every epoch, mid-run, and only after the last epoch.  The
    # in-process pool spools too, so the serial leg runs either under the
    # same period or under the default one.  View deltas are always on
    # and must rebuild every view exactly.
    if serial_spooled:
        monkeypatch.setattr(engine, "SPOOL_EPOCHS", spool)
    serial = ClusterSimulation(SMALL).run(workers=1)
    monkeypatch.setattr(engine, "SPOOL_EPOCHS", spool)
    sim = ClusterSimulation(SMALL)
    parallel = sim.run(workers=2)
    if sim.ipc_bytes_per_epoch == 0:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert serial == parallel
    for index, host in enumerate(sim.hosts):
        assert sim._views[index] == host.summary()


def test_tiny_fleet_never_spawns_a_pool(monkeypatch):
    # Three hosts sit under the parallel threshold: even an explicit
    # worker request degrades to the in-process pool.
    monkeypatch.delenv("REPRO_MIN_PARALLEL", raising=False)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    sim = ClusterSimulation(SMALL)
    assert sim._effective_workers(4) == 1
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    # No more workers than cores: two cores cap a request for four.
    assert sim._effective_workers(4) == 2
    # A single core has nothing to overlap the workers with.
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
    assert sim._effective_workers(4) == 1


def test_serial_run_reports_zero_ipc():
    sim = ClusterSimulation(SMALL)
    sim.run(workers=1)
    assert sim.ipc_bytes_per_epoch == 0.0
    assert sim.ipc_peer_bytes == 0


def test_parallel_run_counts_ipc_bytes(force_pool):
    sim = ClusterSimulation(SMALL)
    sim.run(workers=2)
    if sim.ipc_bytes_per_epoch == 0:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert len(sim.ipc_bytes_epochs) == SMALL.epochs
    assert all(epoch_bytes > 0 for epoch_bytes in sim.ipc_bytes_epochs)


def test_view_deltas_reconstruct_summaries():
    from repro.cluster.host import Host, apply_view_delta
    from repro.workloads import make_workload

    host = Host(0, replace(SMALL, hosts=1), noise_seed=SMALL.seed)
    view = host.publish_view()
    assert view == host.summary()
    host.add_tenant(0, 64, make_workload("Redis"), epoch=0)
    kind, *payload = host.publish_view_payload()
    assert kind == "d"
    index, mask, values = payload
    assert index == host.index and mask != 0
    assert apply_view_delta(view, mask, values) == host.summary()
    # A quiet host publishes an empty delta, not a full view.
    kind2, _, mask2, values2 = host.publish_view_payload()
    assert kind2 == "d" and mask2 == 0 and values2 == ()


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
