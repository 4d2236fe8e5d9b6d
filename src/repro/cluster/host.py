"""One host: a :class:`~repro.hypervisor.platform.Platform` plus its
tenants, noise agent, (optional) Gemini runtime and per-epoch stepping.

:meth:`Host.step_epoch` is the simulator's one epoch kernel.  The fleet
engine steps every host with it, and the single-host
:class:`~repro.sim.engine.Simulation` is a driver over one host.  Each
epoch the tenants' workloads fault, each touched 2 MiB region is
classified against the guest table and the EPT, the TLB model is
evaluated and the epoch's costs are split between tenants, and then the
daemons run (policy scans, the Gemini runtime, the pressure ladder).

A :class:`Host` is fully self-contained and picklable: the cluster engine
can ship it to a worker process, step it there, and take the mutated copy
back — with results identical to stepping in place, because every source
of randomness a host touches (its noise stream, its tenants' workload
RNGs) lives inside the host and `random.Random` pickles its exact state.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.cluster.results import HostEpochRecord, TenantEpochRecord
from repro.core.runtime import GeminiRuntime
from repro.hypervisor.balloon import BalloonDriver
from repro.hypervisor.platform import Platform
from repro.hypervisor.vm import PROCESS, VM
from repro.mem.fragmentation import Fragmenter, fmfi
from repro.mem.layout import HUGE_ORDER, PAGES_PER_HUGE
from repro.metrics.alignment import classify_region
from repro.metrics.performance import epoch_performance
from repro.policies.base import EpochTelemetry
from repro.policies.registry import system_spec
from repro.pressure.controller import PressureController
from repro.sim.noise import NoiseAgent
from repro.tlb import costs
from repro.tlb.model import TLBModel, TranslationSegment, TranslationStats
from repro.workloads.base import Workload, WorkloadContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.config import ClusterConfig

__all__ = [
    "Host",
    "HostView",
    "Tenant",
    "apply_view_delta",
    "backfill_host",
    "build_segments",
    "charge_dedup_cow",
    "resident_pages",
    "resident_runs",
]


def build_segments(
    platform: Platform, vm: VM, workload: Workload, epoch: int
) -> list[TranslationSegment]:
    """Classify one epoch's accesses into TLB-model segments.

    Walks the workload's access phases, classifies each touched 2 MiB
    region against both page tables (through the VM's translation index),
    and spreads the epoch's accesses over the resulting translation kinds.
    """
    segments: list[TranslationSegment] = []
    guest_table = vm.guest.table(PROCESS)
    ept = platform.ept(vm.id)
    vm_index = platform.index_of(vm.id)
    total_accesses = workload.accesses_per_epoch
    for phase in workload.access_phases(epoch):
        if phase.vma not in vm.address_space:
            continue
        vma = vm.address_space.vma(phase.vma)
        hot_pages = max(1, int(vma.npages * phase.hot_fraction))
        first_region = vma.start // PAGES_PER_HUGE
        last_region = (vma.start + hot_pages - 1) // PAGES_PER_HUGE
        entries: dict = {}
        pages: dict = {}
        walk: dict = {}
        for vregion in range(first_region, last_region + 1):
            # A valid cached classification implies every guest-physical
            # page the region depends on is still EPT-translated (any
            # removal invalidates the cache), so backfill_host would be
            # a pure no-op — skip both on a hit.
            classes = vm_index.cached_classes(vregion)
            if classes is None:
                backfill_host(platform, vm, vregion)
                classes = classify_region(guest_table, ept, vregion)
                vm_index.store_classes(vregion, classes)
            for cls in classes:
                entries[cls.kind] = entries.get(cls.kind, 0) + cls.entries
                pages[cls.kind] = pages.get(cls.kind, 0) + cls.pages
                walk[cls.kind] = cls.walk_cycles
        total_pages = sum(pages.values())
        if total_pages == 0:
            continue
        phase_accesses = total_accesses * phase.weight
        for kind, kind_entries in entries.items():
            segments.append(
                TranslationSegment(
                    entries=kind_entries,
                    accesses=phase_accesses * pages[kind] / total_pages,
                    walk_cycles=walk[kind],
                    label=f"{vma.name}:{kind.value}",
                )
            )
    return segments


def backfill_host(platform: Platform, vm: VM, vregion: int) -> None:
    """Fault any host backing that accesses to *vregion* would demand.

    After a guest-side migration the data lives at new guest-physical
    addresses that the EPT has not backed yet; real accesses would
    EPT-fault, so the engine faults them before evaluating the epoch.
    """
    guest_table = vm.guest.table(PROCESS)
    ept = platform.ept(vm.id)
    if guest_table.is_huge(vregion):
        gpregion = guest_table.huge_target(vregion)
        if ept.is_huge(gpregion):
            return
        # Contiguous ascending range, no fault hook on this path: the
        # batched walk makes the identical per-page decisions.
        platform.host.fault_range(
            vm.id, gpregion * PAGES_PER_HUGE, PAGES_PER_HUGE
        )
        return
    for _, gpn in guest_table.region_items(vregion):
        if ept.translate(gpn) is None:
            platform.host.fault(vm.id, gpn, full_region=True)


def charge_dedup_cow(vm: VM, workload: Workload) -> None:
    """HawkEye's zero-page deduplication backfires on workloads that
    write their deduplicated pages (Section 6.2, Specjbb)."""
    policy = vm.guest.policy
    if not getattr(policy, "deduplicates_zero_pages", False):
        return
    if workload.zero_page_dedup_rate <= 0.0:
        return
    faults = workload.zero_page_dedup_rate * workload.ops_per_epoch
    vm.guest.ledger.charge(
        "cow_fault", costs.COW_FAULT_CYCLES * faults, count=int(faults)
    )


def resident_runs(vm: VM) -> list[tuple[int, int]]:
    """The VM's resident set as sorted ``(start_gpn, count)`` runs.

    Resident means guest-mapped: pages the guest considers in use.  Stale
    EPT backing under guest-freed pages (the Section 6.3 leftovers) holds
    no data — live migration does not copy it, which makes migration one
    of the few events that sheds it.
    """
    table = vm.guest.table(PROCESS)
    # Huge mappings are already aligned 512-page runs and their
    # guest-physical blocks never overlap base-mapped frames (both come
    # from disjoint gpa-space allocations), so the sorted union of pages
    # equals the sorted merge of the two run lists.
    runs = [
        (gpregion * PAGES_PER_HUGE, PAGES_PER_HUGE)
        for _, gpregion in table.huge_mappings()
    ]
    start = count = 0
    for gpn in sorted({gpn for _, gpn in table.base_mappings()}):
        if count and gpn == start + count:
            count += 1
            continue
        if count:
            runs.append((start, count))
        start, count = gpn, 1
    if count:
        runs.append((start, count))
    runs.sort()
    merged: list[tuple[int, int]] = []
    for rstart, rcount in runs:
        if merged and rstart == merged[-1][0] + merged[-1][1]:
            merged[-1] = (merged[-1][0], merged[-1][1] + rcount)
        else:
            merged.append((rstart, rcount))
    return merged


def resident_pages(vm: VM) -> int:
    return sum(count for _, count in resident_runs(vm))


@dataclass(frozen=True)
class HostView:
    """Snapshot of the scheduler-relevant state of one host.

    The cluster controller makes every placement and consolidation
    decision from these views — never from live host objects — so the
    decisions are identical whether the hosts live in-process or on
    pool workers (where only views travel, not hosts).
    """

    index: int
    total_pages: int
    free_pages: int
    #: Placement capacity left (commitment-based, headroom included).
    available_pages: int
    #: Free pages sitting in huge-aligned buddy blocks.
    aligned_free_pages: int
    #: Size of the largest free physical region.
    largest_free_region: int
    #: Huge pages the host's translation indices report as misaligned.
    misaligned_huge: int
    #: ``(ordinal, resident_pages)`` per tenant, ordinal-sorted.
    residents: tuple[tuple[int, int], ...]
    #: Normalised memory pressure in [0, 1] (0 above the low watermark,
    #: 1 at/below critical; always 0 with the subsystem disabled).
    #: Appended with a default so existing view constructions stay valid.
    pressure: float = 0.0
    #: Pages currently on the host's swap device.
    swapped_pages: int = 0

    @property
    def vms(self) -> int:
        return len(self.residents)

    @property
    def utilization(self) -> float:
        return 1.0 - self.free_pages / self.total_pages


#: Fields a view delta may carry (``index`` identifies, never changes).
#: Deltas address them by position — a bitmask and a value tuple — so no
#: field-name strings ever cross the pipe.
_VIEW_FIELDS = tuple(
    f.name for f in fields(HostView) if f.name != "index"
)


def apply_view_delta(base: HostView, mask: int, values: tuple) -> HostView:
    """Rebuild a full view from *base* plus a changed-fields delta.

    Bit *i* of *mask* says field ``_VIEW_FIELDS[i]`` changed; *values*
    holds the new values of exactly the set bits, in field order.
    """
    changed = {}
    position = 0
    for bit, name in enumerate(_VIEW_FIELDS):
        if mask >> bit & 1:
            changed[name] = values[position]
            position += 1
    return replace(base, **changed)


@dataclass
class Tenant:
    """One VM and everything that travels with it across hosts."""

    ordinal: int
    vm: VM
    workload: Workload
    ctx: WorkloadContext
    balloon: BalloonDriver
    arrived_epoch: int
    epochs_run: int = 0
    guest_snapshot: object = None
    #: Guest-physical fragmenter pins (kept referenced so the pinned
    #: pages stay allocated for the VM's lifetime).
    fragmenter: Fragmenter | None = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.vm.name


class Host:
    """A host: platform + tenants + per-host daemons.

    *noise_seed* and *nodes* are per-host inputs the engine that builds
    the host computes (the fleet gives every host its own noise stream;
    the single-host driver passes its config's seed and NUMA nodes).
    """

    def __init__(
        self,
        index: int,
        config: "ClusterConfig",
        noise_seed: int,
        nodes: int = 1,
    ) -> None:
        self.index = index
        self.config = config
        self.spec = system_spec(config.system)
        self.platform = Platform.with_mib(
            config.host_mib, self.spec.make_host(), nodes=nodes
        )
        self.tlb_model = TLBModel(config.tlb)
        self.noise = NoiseAgent(
            self.platform,
            rate=config.noise_rate,
            free_fraction=config.noise_free_fraction,
            seed=noise_seed,
        )
        self.noise.install()
        self.runtime: GeminiRuntime | None = None
        if self.spec.uses_gemini_runtime:
            self.runtime = GeminiRuntime(self.platform, config.gemini)
        #: Memory-pressure controller (None unless configured).  The swap
        #: device RNG is salted by host index so hosts draw independent
        #: latency streams from the same config seed.
        self.pressure: PressureController | None = None
        if config.pressure.enabled:
            self.pressure = PressureController(
                self.platform, config.pressure, salt=index
            )

        self.tenants: dict[int, Tenant] = {}
        self._fragmenters: list[Fragmenter] = []
        if config.fragment_host > 0.0:
            # Fragmentation gradient: host 0 is the oldest (most
            # fragmented) machine, the last host is freshly racked.  The
            # gradient is what makes placement interesting — a fleet of
            # identically-fragmented hosts gives every policy the same
            # aligned capacity everywhere.
            target = config.fragment_host * (config.hosts - index) / config.hosts
            if target > 0.0:
                fragmenter = Fragmenter(
                    self.platform.memory, seed=config.seed + index
                )
                fragmenter.fragment(target)
                self._fragmenters.append(fragmenter)

        #: Pages pinned before any tenant existed (the fragmentation
        #: pins): capacity the scheduler can never promise to a VM.
        self._pinned_pages = (
            self.platform.memory.total_pages - self.platform.memory.free_pages
        )
        # Each epoch's host cost delta is taken against this snapshot, and
        # it advances at delta time, so work done by the between-epoch
        # daemons is charged to the *next* epoch.
        self._host_snapshot = self.platform.host.ledger.snapshot()
        # Records accumulate here (also while stepping inside a worker
        # process) and are drained by the engine every ``SPOOL_EPOCHS``.
        self._tenant_records: list[TenantEpochRecord] = []
        self._host_records: list[HostEpochRecord] = []
        #: The last view shipped to the controller — the shared baseline
        #: view deltas are encoded against.  Lives on the host so it
        #: travels with it to and from worker processes.
        self._view_baseline: HostView | None = None
        #: Called with each tenant right after its epoch record is made,
        #: before the daemons run.  The single-host driver samples the
        #: mapping counts its records carry here; fleets leave it unset.
        self.on_tenant_record: Callable[[Tenant], None] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return self.platform.memory.free_pages

    @property
    def utilization(self) -> float:
        memory = self.platform.memory
        return 1.0 - memory.free_pages / memory.total_pages

    @property
    def committed_pages(self) -> int:
        """Host pages promised to tenants (their full guest sizes).

        Guests fault their memory lazily, so physical ``free_pages`` says
        nothing about what is already spoken for — the scheduler places
        against commitments, the way real clouds reserve a flavour's RAM
        at boot rather than overcommitting."""
        return sum(tenant.vm.guest_pages for tenant in self.tenants.values())

    @property
    def available_pages(self) -> int:
        """Placement capacity left: total minus pre-pinned pages minus
        committed (with the configured per-VM headroom for noise and
        page-table bloat).  ``overcommit_ratio`` scales the advertised
        total above physical capacity; the pressure subsystem absorbs the
        difference when commitments are actually touched."""
        total = int(
            (self.platform.memory.total_pages - self._pinned_pages)
            * self.config.overcommit_ratio
        )
        return total - int(self.committed_pages * self.config.placement_headroom)

    def summary(self) -> HostView:
        """The scheduler-facing snapshot of this host."""
        memory = self.platform.memory
        largest = memory.max_free_region()
        misaligned = 0
        for index in self.platform.indices.values():
            report = index.report()
            misaligned += report.guest_huge - report.aligned_guest
            misaligned += report.host_huge - report.aligned_host
        return HostView(
            index=self.index,
            total_pages=memory.total_pages,
            free_pages=memory.free_pages,
            available_pages=self.available_pages,
            aligned_free_pages=memory.free_pages_at_or_above(HUGE_ORDER),
            largest_free_region=largest[1] if largest is not None else 0,
            misaligned_huge=misaligned,
            residents=tuple(
                (ordinal, resident_pages(self.tenants[ordinal].vm))
                for ordinal in sorted(self.tenants)
            ),
            pressure=(
                self.pressure.pressure_signal()
                if self.pressure is not None
                else 0.0
            ),
            swapped_pages=(
                self.pressure.device.total_swapped
                if self.pressure is not None
                else 0
            ),
        )

    def publish_view(self) -> HostView:
        """A full view for the controller, recorded as the new baseline.

        Every view that crosses to the controller goes through here or
        :meth:`publish_view_payload`, so the host-side baseline always
        matches the last view the controller decoded — the invariant the
        delta encoding rests on.
        """
        view = self.summary()
        self._view_baseline = view
        return view

    def publish_view_payload(self) -> tuple:
        """Encode the current view for the wire.

        ``("full", view)`` on the first publish,
        ``("d", index, mask, values)`` afterwards — only fields that
        changed since the last published view travel, addressed by a
        position bitmask rather than name strings, and the controller
        rebuilds the full view with :func:`apply_view_delta`.
        """
        base = self._view_baseline
        view = self.publish_view()
        if base is None:
            return ("full", view)
        mask = 0
        values = []
        for bit, name in enumerate(_VIEW_FIELDS):
            value = getattr(view, name)
            if value != getattr(base, name):
                mask |= 1 << bit
                values.append(value)
        return ("d", view.index, mask, tuple(values))

    def drain_records(self) -> tuple[list[HostEpochRecord], list[TenantEpochRecord]]:
        host_records, self._host_records = self._host_records, []
        tenant_records, self._tenant_records = self._tenant_records, []
        return host_records, tenant_records

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    def add_tenant(
        self, ordinal: int, guest_mib: int, workload: Workload, epoch: int
    ) -> Tenant:
        """Place a new VM (the arrival half of the churn generator)."""
        config = self.config
        vm = VM.with_mib(
            ordinal, guest_mib, self.spec.make_guest(), name=f"vm{ordinal}"
        )
        self.platform.attach_vm(vm)
        if self.runtime is not None:
            self.runtime.register_vm(vm)
        fragmenter = None
        if config.fragment_guest > 0.0:
            fragmenter = Fragmenter(vm.gpa_space, seed=config.seed + ordinal)
            fragmenter.fragment(config.fragment_guest)
        # Same per-workload stream derivation as the single-host engine.
        name_salt = zlib.crc32(workload.name.encode()) % 997
        tenant = Tenant(
            ordinal=ordinal,
            vm=vm,
            workload=workload,
            ctx=WorkloadContext(
                self.platform, vm, seed=config.seed + ordinal + name_salt
            ),
            balloon=BalloonDriver(self.platform, vm, alignment_aware=True),
            arrived_epoch=epoch,
            guest_snapshot=vm.guest.ledger.snapshot(),
            fragmenter=fragmenter,
        )
        self.tenants[ordinal] = tenant
        return tenant

    def detach_tenant(self, ordinal: int) -> tuple[Tenant, object]:
        """Remove a tenant keeping its guest-side state (migration source).

        Returns the tenant and its cross-layer runtime state (None for
        non-Gemini systems); host frames are freed, EPT and index torn
        down, noise bookkeeping dropped.
        """
        tenant = self.tenants.pop(ordinal)
        state = None
        if self.pressure is not None:
            # While the VM is still attached: deflates the controller's
            # balloon and discards swap slots (swapped state does not
            # travel; the destination re-faults the resident set).
            self.pressure.forget_vm(tenant.vm.id)
        if self.runtime is not None:
            state = self.runtime.unregister_vm(tenant.vm.id)
        self.platform.detach_vm(tenant.vm)
        self.noise.forget_vm(tenant.vm.id)
        return tenant, state

    def adopt_tenant(self, tenant: Tenant, state: object = None) -> None:
        """Attach a migrated-in tenant (migration destination)."""
        self.platform.attach_vm(tenant.vm)
        if self.runtime is not None:
            self.runtime.adopt_vm(tenant.vm, state)
        tenant.ctx.platform = self.platform
        tenant.balloon.platform = self.platform
        self.tenants[tenant.ordinal] = tenant

    def destroy_tenant(self, ordinal: int) -> int:
        """Departure: free everything, drop the VM.  Returns host pages
        freed — what the departure does *not* free (noise allocations made
        while the tenant ran, neighbours' pages) is the fragmentation the
        churn leaves behind."""
        tenant, _ = self.detach_tenant(ordinal)
        del tenant  # guest-side state (gpa space, tables) dies with it
        return 0

    def resize_tenant(self, ordinal: int, grow: bool, fraction: float) -> int:
        """Balloon the tenant: shrink inflates (releasing host backing,
        demoting huge EPT entries per the balloon's alignment policy),
        grow deflates a previous inflation.  Returns pages moved."""
        tenant = self.tenants[ordinal]
        if grow:
            return tenant.balloon.deflate()
        return tenant.balloon.inflate(int(tenant.vm.guest_pages * fraction))

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step_epoch(self, epoch: int) -> None:
        """Run one epoch on this host: the simulator's one epoch kernel."""
        obs.set_context(host=self.index, epoch=epoch)
        with obs.span("host.step"):
            self._step_epoch(epoch)

    def translation_stats(
        self, tenant: Tenant, workload_epoch: int
    ) -> TranslationStats:
        """Classify *tenant*'s accesses of *workload_epoch* against the
        current page tables and evaluate them on this host's TLB model."""
        segments = build_segments(
            self.platform, tenant.vm, tenant.workload, workload_epoch
        )
        return self.tlb_model.evaluate(segments)

    def run_daemons(self, epoch: int, tlb_misses: float = 0.0) -> None:
        """The between-epoch daemons: policy scans, the Gemini runtime and
        the pressure ladder.  Negative epochs (a reused VM's primer)
        skip the pressure ladder."""
        for ordinal in sorted(self.tenants):
            self.tenants[ordinal].vm.guest.policy.scan(None)
        self.platform.host.policy.scan(None)
        if self.runtime is not None:
            self.runtime.epoch(now=float(epoch), tlb_misses=tlb_misses)
        if self.pressure is not None and epoch >= 0:
            self.pressure.run(epoch)

    def reset_ledgers(self) -> None:
        """Restart every cost delta from now: work done so far (a primer
        run) is charged to no epoch."""
        self._host_snapshot = self.platform.host.ledger.snapshot()
        for tenant in self.tenants.values():
            tenant.guest_snapshot = tenant.vm.guest.ledger.snapshot()

    def _step_epoch(self, epoch: int) -> None:
        tenants = [self.tenants[ordinal] for ordinal in sorted(self.tenants)]
        with obs.span("host.workloads"):
            for tenant in tenants:
                if tenant.epochs_run == 0:
                    tenant.workload.setup(tenant.ctx)
                tenant.workload.run_epoch(tenant.ctx, tenant.epochs_run)

        epoch_misses = 0.0
        ledger = self.platform.host.ledger
        host_delta = ledger.delta_since(self._host_snapshot)
        self._host_snapshot = ledger.snapshot()
        host_share = 1.0 / len(tenants) if tenants else 0.0
        host_fmfi = fmfi(self.platform.memory)

        with obs.span("host.classify"):
            for tenant in tenants:
                vm, workload = tenant.vm, tenant.workload
                charge_dedup_cow(vm, workload)
                if self.pressure is not None:
                    # Dirty sets follow the tenant's own epoch count (its
                    # access phases), heat decays in host-epoch time.
                    self.pressure.log_dirty(
                        vm, workload, epoch, workload_epoch=tenant.epochs_run
                    )
                stats = self.translation_stats(tenant, tenant.epochs_run)
                epoch_misses += stats.misses

                guest_delta = vm.guest.ledger.delta_since(tenant.guest_snapshot)
                tenant.guest_snapshot = vm.guest.ledger.snapshot()
                performance = epoch_performance(
                    tlb_sensitivity=workload.tlb_sensitivity,
                    ops=workload.ops_per_epoch,
                    stats=stats,
                    sync_mm_cycles=guest_delta.sync_cycles
                    + host_delta.sync_cycles * host_share,
                    background_cycles=guest_delta.background_cycles
                    + host_delta.background_cycles * host_share,
                )
                report = self.platform.index_of(vm.id).report()
                guest_fmfi = fmfi(vm.gpa_space)
                self._tenant_records.append(
                    TenantEpochRecord(
                        epoch=epoch,
                        ordinal=tenant.ordinal,
                        host=self.index,
                        workload=workload.name,
                        tenant_epoch=tenant.epochs_run,
                        performance=performance,
                        alignment=report,
                        fmfi_guest=guest_fmfi,
                    )
                )
                if self.on_tenant_record is not None:
                    self.on_tenant_record(tenant)
                obs.emit(
                    "tenant.epoch",
                    ordinal=tenant.ordinal,
                    workload=workload.name,
                    tenant_epoch=tenant.epochs_run,
                    tlb_misses=round(stats.misses, 3),
                    well_aligned_rate=round(report.well_aligned_rate, 6),
                    fmfi_guest=round(guest_fmfi, 6),
                )
                vm.guest.policy.on_epoch(
                    EpochTelemetry(tenant.epochs_run, stats.misses, guest_fmfi)
                )
                tenant.epochs_run += 1

        self.platform.host.policy.on_epoch(
            EpochTelemetry(epoch, epoch_misses, host_fmfi)
        )
        # Daemons run *between* epochs: promotions and bookings made now
        # take effect for the next epoch's accesses, so repair mechanisms
        # carry a one-epoch lag while fault-time mechanisms (huge faults
        # from booked/bucketed regions) act immediately.
        with obs.span("host.daemons"):
            self.run_daemons(epoch, epoch_misses)

        memory = self.platform.memory
        aligned_free = memory.free_pages_at_or_above(HUGE_ORDER)
        controller = self.pressure
        self._host_records.append(
            HostEpochRecord(
                epoch=epoch,
                host=self.index,
                fmfi=host_fmfi,
                free_pages=memory.free_pages,
                aligned_free_pages=aligned_free,
                total_pages=memory.total_pages,
                vms=len(tenants),
                pressure=(
                    controller.pressure_signal() if controller else 0.0
                ),
                swapped_pages=(
                    controller.device.total_swapped if controller else 0
                ),
                swap_out_pages=(
                    controller.device.pages_out if controller else 0
                ),
                swap_in_pages=(
                    controller.device.pages_in if controller else 0
                ),
                pressure_demotions=(
                    controller.demoted_huge_pages if controller else 0
                ),
                pressure_aligned_demotions=(
                    controller.demoted_aligned_huge_pages if controller else 0
                ),
            )
        )
        obs.emit(
            "host.epoch",
            fmfi=round(host_fmfi, 6),
            free_pages=memory.free_pages,
            aligned_free_pages=aligned_free,
            vms=len(tenants),
        )
