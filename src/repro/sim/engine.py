"""The single-host simulation engine: runs workloads on one virtualized
host under a chosen huge-page system and produces
:class:`~repro.sim.results.RunResult` records.

One :class:`Simulation` is a driver over one
:class:`~repro.cluster.host.Host` with one tenant (VM) per workload — the
paper runs one workload per VM, and the collocation study of Section 6.5
puts several VMs on the server.  The epoch itself is the host's kernel,
:meth:`~repro.cluster.host.Host.step_epoch`, the same one every fleet host
runs: the workloads fault, each touched region is classified against both
page tables and evaluated by the TLB capacity model, costs are folded into
each workload's performance record, and the daemons run between epochs.
This module adds what only a single-host run has: the reused-VM primer
and the per-workload :class:`~repro.sim.results.EpochRecord` fields.
"""

from __future__ import annotations

from dataclasses import fields

from repro import obs
from repro.cluster.host import Host, Tenant, build_segments
from repro.sim.config import SimulationConfig
from repro.sim.results import EpochRecord, RunResult
from repro.workloads.base import Workload, WorkloadContext

__all__ = ["Simulation", "build_segments", "run_workload"]


def _host_config(config: SimulationConfig, system: str):
    """The one-host fleet configuration equivalent to *config*."""
    # Deferred: repro.cluster.config imports repro.sim while loading.
    from repro.cluster.config import ClusterConfig

    shared = {field.name for field in fields(ClusterConfig)}
    return ClusterConfig(
        hosts=1,
        system=system,
        **{
            field.name: getattr(config, field.name)
            for field in fields(config)
            if field.name in shared
        },
    )


class Simulation:
    """One simulation: one host, one VM per workload, one system."""

    def __init__(
        self,
        workloads: Workload | list[Workload],
        system: str = "Gemini",
        config: SimulationConfig | None = None,
        primer: Workload | None = None,
    ) -> None:
        """*primer* is a workload executed to completion (and unmapped)
        inside the first VM before the main workload starts — the reused-VM
        setting of Section 6.3."""
        self.config = config or SimulationConfig()
        self.system = system
        self.workloads = [workloads] if isinstance(workloads, Workload) else list(workloads)
        if not self.workloads:
            raise ValueError("at least one workload required")
        self.primer = primer
        self.host = Host(
            0,
            _host_config(self.config, system),
            noise_seed=self.config.seed,
            nodes=self.config.nodes,
        )
        for ordinal, workload in enumerate(self.workloads):
            self.host.add_tenant(ordinal, self.config.guest_mib, workload, epoch=0)
        self.platform = self.host.platform
        #: ``(guest huge, host huge, bloat)`` pages per tenant, sampled by
        #: the kernel at classify time (before the daemons run).
        self._mappings: list[tuple[int, int, int]] = []
        self.host.on_tenant_record = self._sample_mappings

    def run(self) -> list[RunResult]:
        """Run the configured number of epochs; one result per workload."""
        if self.primer is not None:
            self._run_primer()
        results = [
            RunResult(system=self.system, workload=w.name) for w in self.workloads
        ]
        with obs.note_context():
            for epoch in range(self.config.epochs):
                self.step(epoch, results)
        if self.host.runtime is not None:
            stats = self.host.runtime.stats()
            for result in results:
                result.gemini_stats = stats
        return results

    def run_single(self) -> RunResult:
        """Run and return the (single) workload's result."""
        results = self.run()
        if len(results) != 1:
            raise ValueError("run_single requires exactly one workload")
        return results[0]

    def step(self, epoch: int, results: list[RunResult]) -> None:
        """Step the host one epoch and append each workload's record to
        its entry of *results*."""
        obs.set_context(host=None, epoch=epoch)
        with obs.span("sim.epoch"):
            self.host.step_epoch(epoch)
        (host_record,), tenant_records = self.host.drain_records()
        for record, (guest_huge, host_huge, bloat) in zip(
            tenant_records, self._mappings
        ):
            results[record.ordinal].epochs.append(
                EpochRecord(
                    epoch=record.epoch,
                    performance=record.performance,
                    alignment=record.alignment,
                    fmfi_guest=record.fmfi_guest,
                    fmfi_host=host_record.fmfi,
                    guest_huge_pages=guest_huge,
                    host_huge_pages=host_huge,
                    bloat_pages=bloat,
                )
            )
        self._mappings.clear()

    def _sample_mappings(self, tenant: Tenant) -> None:
        vm = tenant.vm
        self._mappings.append(
            (
                vm.guest.huge_mapping_count(),
                self.platform.ept(vm.id).huge_count,
                vm.guest.bloat_pages,
            )
        )

    def _run_primer(self) -> None:
        """Execute the primer workload to completion in VM 0, then unmap
        everything it allocated (guest frames freed, EPT state retained)."""
        vm = self.host.tenants[0].vm
        ctx = WorkloadContext(self.platform, vm, seed=self.config.seed + 1000)
        primer = self.primer
        assert primer is not None
        primer.setup(ctx)
        for epoch in range(primer.default_epochs):
            primer.run_epoch(ctx, epoch)
            self.host.run_daemons(epoch - primer.default_epochs)
        for name in list(ctx.vma_names()):
            ctx.munmap(name)
        # The primer's costs belong to the previous tenant, not to the
        # measured workload's first epoch.
        self.host.reset_ledgers()


def run_workload(
    workload: Workload,
    system: str,
    config: SimulationConfig | None = None,
    primer: Workload | None = None,
) -> RunResult:
    """Convenience wrapper: simulate one workload under one system."""
    return Simulation(workload, system=system, config=config, primer=primer).run_single()
