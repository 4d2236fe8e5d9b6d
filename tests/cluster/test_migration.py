"""Tests for the live-migration engine: pre-copy schedule, cost
charging, page conservation and EPT alignment destroy/rebuild."""

import pytest

from repro.cluster import ClusterConfig
from repro.cluster.config import MigrationConfig
from repro.cluster.host import Host, resident_pages, resident_runs
from repro.cluster.migration import (
    MigrationEngine,
    MigrationInvariantError,
    precopy_schedule,
)
from repro.hypervisor.vm import PROCESS
from repro.metrics.alignment import alignment_report
from repro.tlb import costs
from repro.workloads import make_workload

FIVE_FAMILIES = ["THP", "Ingens", "HawkEye", "CA-paging", "Translation-Ranger"]


def _hosts(system="THP", check=True, host_mib=512):
    config = ClusterConfig(
        hosts=2,
        host_mib=host_mib,
        epochs=8,
        seed=42,
        system=system,
        migration=MigrationConfig(check_invariants=check),
    )
    return Host(0, config, noise_seed=0), Host(1, config, noise_seed=1), config


def _warm_source(src, workload="Redis", epochs=4):
    src.add_tenant(0, 192, make_workload(workload), 0)
    for epoch in range(epochs):
        src.step_epoch(epoch)


def _report(host, ordinal):
    vm = host.tenants[ordinal].vm
    return alignment_report(vm.guest.table(PROCESS), host.platform.ept(vm.id))


# ----------------------------------------------------------------------
# Pre-copy schedule
# ----------------------------------------------------------------------


def test_precopy_static_workload_converges_in_one_round():
    config = MigrationConfig(max_rounds=8, downtime_pages=64)
    rounds, copied, downtime = precopy_schedule(10_000, 0.0, config)
    assert rounds == 1
    assert copied == 10_000
    assert downtime == 0


def test_precopy_rounds_grow_with_write_rate():
    config = MigrationConfig(max_rounds=30, downtime_pages=64)
    results = [precopy_schedule(10_000, wf, config) for wf in (0.05, 0.2, 0.5)]
    rounds = [r for r, _, _ in results]
    copied = [c for _, c, _ in results]
    assert rounds == sorted(rounds) and rounds[0] < rounds[-1]
    assert copied == sorted(copied) and copied[0] < copied[-1]
    # Every converged schedule meets the downtime budget.
    assert all(d <= config.downtime_pages for _, _, d in results)


def test_precopy_hot_writer_hits_round_cap():
    config = MigrationConfig(max_rounds=4, downtime_pages=16)
    rounds, _, downtime = precopy_schedule(100_000, 0.9, config)
    assert rounds == config.max_rounds
    assert downtime > config.downtime_pages  # forced stop, long downtime


def test_precopy_pathological_write_fraction_is_clamped():
    config = MigrationConfig(max_rounds=8, downtime_pages=64)
    rounds, copied, _ = precopy_schedule(10_000, 5.0, config)
    assert rounds == config.max_rounds
    assert copied <= 10_000 * (1 + 0.95 * config.max_rounds)


# ----------------------------------------------------------------------
# Cost charging
# ----------------------------------------------------------------------

def test_migration_charges_source_ledger():
    src, dst, config = _hosts()
    _warm_source(src)
    ledger = src.platform.host.ledger
    baseline = ledger.snapshot()

    engine = MigrationEngine(config.migration)
    record = engine.migrate(0, src, dst, 4, "test")
    delta = ledger.delta_since(baseline)

    assert delta.count("migration_precopy") == record.copied_pages
    assert delta.cycles("migration_precopy") == pytest.approx(
        costs.PAGE_COPY_CYCLES * record.copied_pages
    )
    assert delta.count("migration_stopcopy") == record.downtime_pages
    assert delta.count("tlb_shootdown") == record.rounds
    # Pre-copy overlaps execution (background); the blackout copy and the
    # per-round shoot-downs stall the VM (sync).
    assert delta.background.get("migration_precopy") is not None
    assert delta.sync.get("migration_stopcopy") is not None
    assert record.total_cycles == pytest.approx(
        record.precopy_cycles + record.stopcopy_cycles + record.shootdown_cycles
    )


def test_migration_record_matches_resident_set():
    src, dst, config = _hosts()
    _warm_source(src)
    resident = resident_pages(src.tenants[0].vm)

    record = MigrationEngine(config.migration).migrate(0, src, dst, 4, "test")
    assert record.resident_pages == resident
    assert record.copied_pages >= resident  # round 1 plus dirty re-sends
    assert record.source == 0 and record.destination == 1
    assert record.reason == "test"


# ----------------------------------------------------------------------
# Page conservation (the --check-invariants debug flag)
# ----------------------------------------------------------------------

def test_migration_moves_tenant_and_conserves_pages():
    src, dst, config = _hosts()
    _warm_source(src)
    vm = src.tenants[0].vm
    runs = resident_runs(vm)
    src_free_before = src.platform.memory.free_pages

    MigrationEngine(config.migration).migrate(0, src, dst, 4, "test")

    assert 0 not in src.tenants and 0 in dst.tenants
    assert vm.id not in src.platform.vms
    # Source frames were released...
    assert src.platform.memory.free_pages > src_free_before
    # ...and the destination re-backed the identical resident set.
    moved = dst.tenants[0].vm
    assert resident_runs(moved) == runs
    ept = dst.platform.ept(moved.id)
    for start, count in runs:
        for gpn in range(start, start + count):
            assert ept.translate(gpn) is not None


def test_invariant_check_catches_lost_pages():
    src, dst, config = _hosts()
    _warm_source(src)
    from repro.cluster.migration import migrate_in, migrate_out

    tenant, state, runs, _, _ = migrate_out(src, 0, config.migration)
    # Lose the last run in transit: the destination re-backs less than
    # the resident set, which the conservation check must flag.
    with pytest.raises(MigrationInvariantError):
        migrate_in(dst, tenant, state, runs[:-1], config.migration)


def test_invariant_check_is_opt_in():
    src, dst, config = _hosts(check=False)
    _warm_source(src)
    assert config.migration.check_invariants is False
    record = MigrationEngine(config.migration).migrate(0, src, dst, 4, "test")
    assert record.resident_pages > 0


# ----------------------------------------------------------------------
# Post-migration alignment across the five policy families
# ----------------------------------------------------------------------

@pytest.mark.parametrize("system", FIVE_FAMILIES)
def test_migration_destroys_then_rebuilds_alignment(system):
    src, dst, config = _hosts(system=system)
    _warm_source(src)
    before = _report(src, 0)
    assert before.host_huge > 0, "source should build huge backing first"

    MigrationEngine(config.migration).migrate(0, src, dst, 4, "test")
    after = _report(dst, 0)
    # The EPT does not travel: the destination demand-faults the resident
    # set, so host-side huge backing collapses at switch-over...
    assert after.host_huge < before.host_huge
    # ...while the guest's own page table is untouched by the move.
    assert after.guest_huge == before.guest_huge

    for epoch in (4, 5):
        dst.step_epoch(epoch)
    rebuilt = _report(dst, 0)
    # ...and the destination's coalescing policy rebuilds it at its own
    # pace from the destination's memory state.
    assert rebuilt.host_huge > after.host_huge
