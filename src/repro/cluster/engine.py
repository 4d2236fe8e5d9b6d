"""The fleet engine: churn, placement, consolidation, per-host stepping.

One :class:`ClusterSimulation` drives N hosts epoch by epoch:

1. the epoch's trace events are applied — arrivals go through the
   configured placement policy, departures free their VM (leaving the
   host-side holes behind), resizes balloon;
2. every ``consolidation.every`` epochs the controller runs a Neat-style
   consolidation pass (overload shedding, underload draining) whose moves
   are live migrations through :func:`repro.cluster.migration.migrate_out`
   / :func:`~repro.cluster.migration.migrate_in`;
3. every host steps one epoch, in host order, and its records are
   appended to the result right after its step.

As in OpenStack Neat's split, hosts run their daemons and pressure
ladders locally while the controller places and consolidates from
compact :class:`~repro.cluster.host.HostView` summaries only, never from
live host state.  Everything runs in one process: Gemini's mechanisms
are per-host, and a controller deciding from views needs nothing more
(Neat itself was evaluated in the in-process CloudSim).

``run_cluster`` wraps a run with the content-keyed result cache, exactly
like ``run_cells`` does for single-host experiment cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro import obs
from repro.cluster.config import ClusterConfig
from repro.cluster.host import Host, HostView
from repro.cluster.migration import build_record, migrate_in, migrate_out
from repro.cluster.placement import make_placement
from repro.cluster.results import FleetResult
from repro.cluster.trace import TraceEvent, build_trace
from repro.exec.cache import ResultCache, code_version
from repro.mem.layout import MIB, PAGE_SIZE
from repro.obs.health import watch_health
from repro.workloads import make_workload

__all__ = ["ClusterSimulation", "fleet_key", "run_cluster"]


class ClusterSimulation:
    """One fleet simulation: N hosts, a churn trace, a placement policy."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        if self.config.hosts <= 0:
            raise ValueError("at least one host required")
        # Distinct noise stream per host: a large odd stride keeps the
        # per-host seeds disjoint from the per-tenant workload seeds.
        self.hosts = [
            Host(i, self.config, noise_seed=self.config.seed + 7919 * i + 13)
            for i in range(self.config.hosts)
        ]
        self.placement = make_placement(self.config.placement)
        self.trace = build_trace(self.config)
        self._events: dict[int, list[TraceEvent]] = {}
        for event in self.trace:
            self._events.setdefault(event.epoch, []).append(event)
        #: The controller's picture of each host; all placement and
        #: consolidation decisions read this.  Refreshed from
        #: ``Host.summary()`` after every step, arrival and migration, and
        #: after departures and resizes before anything reads it.
        self._views: list[HostView] = [host.summary() for host in self.hosts]
        #: ordinal -> index of the host currently running the VM.
        self._vm_host: dict[int, int] = {}
        #: ordinal -> guest size in pages (the commitment a migration
        #: must find room for).
        self._guest_pages: dict[int, int] = {}
        #: Per-host consolidation scores (overloaded?, underloaded?,
        #: cheapest tenant), None = dirty.  Every view update goes through
        #: :meth:`_set_view`, which invalidates the score only when the
        #: view actually changed — so between consolidation passes only
        #: hosts touched by arrivals, departures, resizes, migrations or
        #: state-changing steps are re-scored.
        self._scores: list[tuple | None] = [None] * self.config.hosts
        self.result = FleetResult(
            system=self.config.system,
            placement=self.config.placement,
            hosts=self.config.hosts,
            epochs=self.config.epochs,
            seed=self.config.seed,
        )

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, workers: int | None = None) -> FleetResult:
        """Run all epochs in this process.

        *workers* is accepted as ``None`` or ``1`` only, so existing
        ``run(workers=1)`` callers keep working; hosts never step in
        another process.
        """
        if workers not in (None, 1):
            raise ValueError(
                f"fleets step in-process; workers must be None or 1, "
                f"got {workers!r}"
            )
        with watch_health(self.config):
            for epoch in range(self.config.epochs):
                obs.set_context(host=None, epoch=epoch)
                with obs.span("fleet.epoch"):
                    self._epoch(epoch)
        return self.result

    def _epoch(self, epoch: int) -> None:
        consolidation = self.config.consolidation
        consolidating = (
            consolidation.every > 0
            and epoch > 0
            and epoch % consolidation.every == 0
        )
        arrivals: list[TraceEvent] = []
        touched: set[int] = set()
        # Trace order within an epoch is departures, resizes, then
        # arrivals — so arrivals (the only events whose *decision* reads
        # views) always come after the churn applied here.
        for event in self._events.get(epoch, ()):
            if event.kind == "arrive":
                arrivals.append(event)
                continue
            if event.ordinal not in self._vm_host:
                continue
            index = self._vm_host[event.ordinal]
            host = self.hosts[index]
            touched.add(index)
            if event.kind == "depart":
                # ``on`` rather than ``host``: the envelope's host slot
                # is the *emitting* side (the controller, None here).
                obs.emit_at(
                    "fleet.depart", None, epoch, ordinal=event.ordinal, on=index
                )
                host.destroy_tenant(event.ordinal)
                del self._guest_pages[event.ordinal]
                del self._vm_host[event.ordinal]
            else:
                obs.emit_at(
                    "fleet.resize",
                    None,
                    epoch,
                    ordinal=event.ordinal,
                    on=index,
                    grow=event.grow,
                )
                host.resize_tenant(
                    event.ordinal, event.grow, event.delta_fraction
                )
        if arrivals or consolidating:
            # Departures and resizes change host state in ways only the
            # hosts know (freed frames, buddy contiguity), so the views
            # placement and consolidation are about to read are
            # refreshed; otherwise the steps below refresh them.
            for index in sorted(touched):
                self._refresh(index)
        for event in arrivals:
            self._arrive(event, epoch)
        if consolidating:
            self._consolidate(epoch)
        for host in self.hosts:
            host.step_epoch(epoch)
            host_records, tenant_records = host.drain_records()
            self.result.host_epochs.extend(host_records)
            self.result.tenant_epochs.extend(tenant_records)
            self._refresh(host.index)

    def _arrive(self, event: TraceEvent, epoch: int) -> None:
        # Reserve the full guest size, not the workload footprint: guest
        # munmap never returns host frames (Section 6.3), so a VM's host
        # usage grows toward its guest size over its lifetime.  RAM is
        # not overcommitted, as on real clouds.
        guest_pages = event.guest_mib * MIB // PAGE_SIZE
        needed = int(guest_pages * self.config.placement_headroom)
        index = self.placement.select(self._views, needed)
        if index is None:
            self.result.placement_failures += 1
            obs.emit_at(
                "fleet.place_fail",
                None,
                epoch,
                ordinal=event.ordinal,
                needed=needed,
            )
            return
        obs.emit_at(
            "fleet.place",
            None,
            epoch,
            ordinal=event.ordinal,
            workload=event.workload,
            guest_mib=event.guest_mib,
            on=index,
        )
        self.hosts[index].add_tenant(
            event.ordinal, event.guest_mib, make_workload(event.workload), epoch
        )
        self._vm_host[event.ordinal] = index
        self._guest_pages[event.ordinal] = guest_pages
        self._refresh(index)

    def _refresh(self, index: int) -> None:
        self._set_view(self.hosts[index].summary())

    def _set_view(self, view: HostView) -> None:
        """Install a host view, invalidating its cached consolidation
        score only if the view actually changed."""
        index = view.index
        if self._scores[index] is not None and view != self._views[index]:
            self._scores[index] = None
        self._views[index] = view

    # ------------------------------------------------------------------
    # Consolidation (OpenStack-Neat-style: overload shedding, then
    # underload draining; every decision deterministic — hosts in index
    # order, tenants in ordinal order, budget-capped)
    # ------------------------------------------------------------------

    def _consolidate(self, epoch: int) -> None:
        with obs.span("fleet.consolidate"):
            self._consolidate_body(epoch)

    def _host_score(self, index: int) -> tuple:
        """(overloaded, underloaded, cheapest ordinal) of the host's
        current view; cached per host and recomputed only when
        :meth:`_set_view` saw the view change."""
        score = self._scores[index]
        if score is not None:
            return score
        view = self._views[index]
        consolidation = self.config.consolidation
        # The cheapest VM to move: the smallest resident set.
        cheapest = (
            min(view.residents, key=lambda r: (r[1], r[0]))[0]
            if view.residents
            else None
        )
        score = (
            bool(view.residents)
            and (
                view.utilization > consolidation.overload
                # A host at critical memory pressure sheds load even if
                # raw utilization looks fine (free pages say nothing
                # about swap churn on an overcommitted host).
                or view.pressure >= 1.0
            ),
            bool(view.residents) and view.utilization < consolidation.underload,
            cheapest,
        )
        self._scores[index] = score
        return score

    def _consolidate_body(self, epoch: int) -> None:
        consolidation = self.config.consolidation
        budget = consolidation.max_migrations
        for index in range(len(self._views)):
            while budget > 0:
                with obs.span("consolidate.score"):
                    overloaded, _, cheapest = self._host_score(index)
                if not overloaded:
                    break
                with obs.span("consolidate.evict"):
                    moved = self._migrate(cheapest, index, epoch, "overload")
                if not moved:
                    break
                budget -= 1
        for index in range(len(self._views)):
            if budget <= 0:
                break
            with obs.span("consolidate.score"):
                _, underloaded, _ = self._host_score(index)
            if not underloaded:
                continue
            view = self._views[index]
            for ordinal, _ in view.residents:
                if budget <= 0:
                    break
                with obs.span("consolidate.evict"):
                    moved = self._migrate(ordinal, index, epoch, "underload")
                if not moved:
                    break
                budget -= 1

    def _migrate(
        self, ordinal: int, source: int, epoch: int, reason: str
    ) -> bool:
        needed = int(
            self._guest_pages[ordinal] * self.config.placement_headroom
        )
        destination = self.placement.select(
            self._views, needed, exclude=frozenset({source})
        )
        if destination is None:
            return False
        migration = self.config.migration
        tenant, state, runs, schedule, src_view = migrate_out(
            self.hosts[source], ordinal, migration
        )
        dst_view = migrate_in(
            self.hosts[destination], tenant, state, runs, migration
        )
        self._set_view(src_view)
        self._set_view(dst_view)
        record = build_record(
            epoch=epoch,
            ordinal=ordinal,
            source=source,
            destination=destination,
            reason=reason,
            schedule=schedule,
            runs=runs,
        )
        self.result.migrations.append(record)
        obs.emit_at(
            "fleet.migrate",
            None,
            epoch,
            ordinal=ordinal,
            source=source,
            destination=destination,
            reason=reason,
            resident=record.resident_pages,
            rounds=record.rounds,
            copied=record.copied_pages,
        )
        self._vm_host[ordinal] = destination
        return True


# ----------------------------------------------------------------------
# Cached entry point
# ----------------------------------------------------------------------

def fleet_key(config: ClusterConfig) -> str:
    """Content key of one fleet run: same key == same result.

    Like :func:`repro.exec.cache.cell_key`, every config field is
    hashed, and the code version is folded in so editing the simulator
    invalidates stale results.
    """
    raw = json.dumps(
        {"cluster": asdict(config), "code": code_version()},
        sort_keys=True,
        default=repr,
    ).encode()
    return hashlib.sha256(raw).hexdigest()


def run_cluster(
    config: ClusterConfig | None = None,
    cache: ResultCache | None = None,
) -> FleetResult:
    """Run (or load) one fleet simulation.

    When *cache* is None, ``REPRO_CACHE_DIR`` (if set) provides one.
    """
    config = config or ClusterConfig()
    if cache is None:
        cache = ResultCache.from_env(expected=FleetResult)
    key = fleet_key(config) if cache is not None else None
    if cache is not None:
        cached = cache.get(key)
        if cached is not None:
            return cached
    result = ClusterSimulation(config).run()
    if cache is not None:
        cache.put(key, result)
    return result
