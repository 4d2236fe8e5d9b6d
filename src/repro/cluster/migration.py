"""Live migration: pre-copy rounds, cost charging and EPT rebuild.

The model is iterative pre-copy (the qemu/KVM default): the whole
resident set goes over in round one while the VM keeps running, then each
round re-sends the pages dirtied during the previous round.  The dirty
set shrinks geometrically with the workload's ``dirty_fraction`` — the
share of the resident set it rewrites per round — until it fits the
downtime budget (stop-and-copy) or the round limit forces the stop.

Costs are charged through the source host's cost ledger: pre-copy page
copies run concurrently with the workload (background), stop-and-copy and
the per-round shoot-downs stall it (sync).

The destination side is where the paper's subject shows up: the EPT does
not travel.  The destination re-backs the resident set by demand-faulting
it through *its own* host policy, so the VM's huge-page alignment is
destroyed at the source and rebuilt from the destination's free-memory
state — a freshly-racked destination restores well-aligned backing, a
fragmented one leaves the VM splintered regardless of policy.

The two halves are module-level functions (:func:`migrate_out`,
:func:`migrate_in`) that the cluster engine calls in turn, refreshing its
views of both hosts from what they return; :class:`MigrationEngine`
composes them for direct use and keeps the records.
"""

from __future__ import annotations

from repro import obs
from repro.cluster.config import MigrationConfig
from repro.cluster.host import Host, HostView, Tenant, resident_pages, resident_runs
from repro.cluster.results import MigrationRecord
from repro.tlb import costs

__all__ = [
    "MigrationEngine",
    "MigrationInvariantError",
    "migrate_in",
    "migrate_out",
    "precopy_schedule",
    "resident_pages",
    "resident_runs",
]


class MigrationInvariantError(RuntimeError):
    """Page conservation violated by a migration (lost or duplicated
    pages, or source state left behind)."""


def precopy_schedule(
    resident: int, dirty_fraction: float, config: MigrationConfig
) -> tuple[int, int, int]:
    """Model the copy schedule: ``(rounds, copied_pages, downtime_pages)``.

    Round 1 copies the whole resident set; every further round re-sends
    the pages dirtied meanwhile (``resident * dirty_fraction``, then
    geometrically shrinking), until the dirty set fits the downtime
    budget or ``max_rounds`` is hit.
    """
    dirty_fraction = min(0.95, max(0.0, dirty_fraction))
    copied = resident
    rounds = 1
    dirty = int(resident * dirty_fraction)
    while dirty > config.downtime_pages and rounds < config.max_rounds:
        copied += dirty
        rounds += 1
        dirty = int(dirty * dirty_fraction)
    return rounds, copied, dirty


def migrate_out(
    host: Host, ordinal: int, config: MigrationConfig
) -> tuple[Tenant, object, list[tuple[int, int]], tuple[int, int, int], HostView]:
    """Source half: charge copy costs, detach the VM, free its frames.

    Returns ``(tenant, runtime_state, resident_runs, schedule, view)`` —
    everything the destination half and the migration record need.
    """
    # Attribute any failure (and nested emissions) to the source host;
    # the epoch is unknown here — the controller-side fleet.migrate
    # event carries it.
    obs.set_context(host=host.index)
    tenant = host.tenants[ordinal]
    vm = tenant.vm
    runs = resident_runs(vm)
    resident = sum(count for _, count in runs)
    schedule = precopy_schedule(resident, tenant.workload.dirty_fraction, config)
    rounds, copied, downtime = schedule
    obs.emit_at(
        "migration.out",
        host.index,
        None,
        ordinal=ordinal,
        resident=resident,
        rounds=rounds,
        copied=copied,
        downtime=downtime,
    )

    ledger = host.platform.host.ledger
    ledger.charge(
        "migration_precopy",
        float(costs.PAGE_COPY_CYCLES * copied),
        count=copied,
        sync=False,
    )
    ledger.charge(
        "migration_stopcopy",
        float(costs.PAGE_COPY_CYCLES * downtime),
        count=downtime,
        sync=True,
    )
    # One remote shoot-down per round: each round write-protects the
    # guest to track the next dirty set.
    ledger.charge(
        "tlb_shootdown",
        float(costs.TLB_SHOOTDOWN_CYCLES * rounds),
        count=rounds,
        sync=True,
    )

    free_before = host.platform.memory.free_pages
    tenant, state = host.detach_tenant(ordinal)
    if config.check_invariants:
        if host.platform.host.has_client(vm.id):
            raise MigrationInvariantError(
                f"host{host.index}: source still holds an EPT for vm{vm.id}"
            )
        if vm.id in host.platform.vms or vm.id in host.platform.indices:
            raise MigrationInvariantError(
                f"host{host.index}: source platform still tracks vm{vm.id}"
            )
        if host.platform.memory.free_pages < free_before:
            raise MigrationInvariantError(
                f"host{host.index}: vm{vm.id}'s source frames were not freed"
            )
    return tenant, state, runs, schedule, host.summary()


def migrate_in(
    host: Host,
    tenant: Tenant,
    state: object,
    runs: list[tuple[int, int]],
    config: MigrationConfig,
) -> HostView:
    """Destination half: adopt the VM and re-back its resident set.

    The demand faults go through this host's coalescing policy, so the
    EPT huge-page layout — and with it the VM's alignment — is rebuilt
    from the destination's memory state.
    """
    obs.set_context(host=host.index)
    obs.emit_at(
        "migration.in",
        host.index,
        None,
        ordinal=tenant.ordinal,
        pages=sum(count for _, count in runs),
    )
    host.adopt_tenant(tenant, state)
    vm = tenant.vm
    layer = host.platform.host
    for start, count in runs:
        layer.fault_range(vm.id, start, count)
    if config.check_invariants:
        _check_destination(host, tenant, runs)
    return host.summary()


def _check_destination(
    host: Host, tenant: Tenant, runs: list[tuple[int, int]]
) -> None:
    """Page conservation at the destination: the resident set is intact,
    fully backed, and no two resident pages share a frame."""
    vm = tenant.vm

    def fail(what: str) -> None:
        raise MigrationInvariantError(
            f"migration of vm{vm.id} into host{host.index}: {what}"
        )

    if resident_runs(vm) != runs:
        fail("guest resident set changed across the migration")
    ept = host.platform.ept(vm.id)
    frames: set[int] = set()
    total = 0
    for start, count in runs:
        for gpn in range(start, start + count):
            hpn = ept.translate(gpn)
            if hpn is None:
                fail(f"resident gpn {gpn} unbacked at the destination")
            frames.add(hpn)
            total += 1
    if len(frames) != total:
        fail("resident pages share destination frames (duplication)")


class MigrationEngine:
    """Composes the two halves for in-process hosts; keeps the records."""

    def __init__(self, config: MigrationConfig | None = None) -> None:
        self.config = config or MigrationConfig()
        self.records: list[MigrationRecord] = []

    def migrate(
        self,
        tenant_ordinal: int,
        source: Host,
        destination: Host,
        epoch: int,
        reason: str,
    ) -> MigrationRecord:
        """Move one tenant from *source* to *destination*."""
        tenant, state, runs, schedule, _ = migrate_out(
            source, tenant_ordinal, self.config
        )
        migrate_in(destination, tenant, state, runs, self.config)
        record = build_record(
            epoch=epoch,
            ordinal=tenant_ordinal,
            source=source.index,
            destination=destination.index,
            reason=reason,
            runs=runs,
            schedule=schedule,
        )
        self.records.append(record)
        return record


def build_record(
    epoch: int,
    ordinal: int,
    source: int,
    destination: int,
    reason: str,
    schedule: tuple[int, int, int],
    runs: list[tuple[int, int]],
) -> MigrationRecord:
    """Assemble the accounting record for one migration of the resident
    set *runs*."""
    resident_pages = sum(count for _, count in runs)
    rounds, copied, downtime = schedule
    return MigrationRecord(
        epoch=epoch,
        ordinal=ordinal,
        source=source,
        destination=destination,
        reason=reason,
        resident_pages=resident_pages,
        rounds=rounds,
        copied_pages=copied,
        downtime_pages=downtime,
        precopy_cycles=float(costs.PAGE_COPY_CYCLES * copied),
        stopcopy_cycles=float(costs.PAGE_COPY_CYCLES * downtime),
        shootdown_cycles=float(costs.TLB_SHOOTDOWN_CYCLES * rounds),
    )
