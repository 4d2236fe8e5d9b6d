"""Seeded VM lifecycle (churn) trace generation.

The entire fleet's tenancy dynamics are decided up front: ``build_trace``
expands a :class:`~repro.cluster.config.ChurnConfig` into a flat list of
:class:`TraceEvent`, using one private ``random.Random(seed)`` stream with
a fixed draw order.  Because the trace is data — not decisions made while
hosts step — the same seed yields the same arrivals, departures and
resizes whatever the hosts later do with them.

VM ordinals are fleet-unique arrival indices and double as the VM ids on
whichever host a tenant currently lives (hosts never mint ids of their
own), so a VM keeps its identity across live migrations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cluster.config import ClusterConfig
from repro.workloads import make_workload

__all__ = ["TraceEvent", "build_trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One lifecycle event, applied before the epoch it names.

    ``kind`` is ``"arrive"`` (place a new VM: ``guest_mib``/``workload``
    are set), ``"depart"`` (destroy the VM, leaving its host-side holes
    behind) or ``"resize"`` (balloon: ``grow`` deflates a previous
    inflate, otherwise inflate by ``delta_fraction`` of the guest size).
    """

    epoch: int
    kind: str
    ordinal: int
    guest_mib: int = 0
    workload: str = ""
    grow: bool = False
    delta_fraction: float = 0.0


def build_trace(config: ClusterConfig) -> list[TraceEvent]:
    """Expand the churn spec into a deterministic event list.

    Draw order per epoch is fixed: departures over live VMs in ordinal
    order, then resizes over the survivors in ordinal order, then
    arrivals.  VMs get one grace epoch before they may depart, so every
    tenant runs at least once.
    """
    churn = config.churn
    rng = random.Random(config.seed ^ 0xC10C)
    events: list[TraceEvent] = []
    live: dict[int, int] = {}  # ordinal -> arrival epoch
    next_ordinal = 0

    def arrive(epoch: int) -> None:
        nonlocal next_ordinal
        ordinal = next_ordinal
        next_ordinal += 1
        live[ordinal] = epoch
        workload = rng.choice(churn.workload_pool)
        # Clouds size VMs to their tenant: the drawn flavour is a floor,
        # raised to 2x the workload footprint so churn transients, guest
        # noise and page-table bloat cannot OOM the guest.
        guest_mib = max(
            rng.choice(churn.guest_mib_choices),
            2 * int(make_workload(workload).footprint_mib),
        )
        events.append(
            TraceEvent(
                epoch=epoch,
                kind="arrive",
                ordinal=ordinal,
                guest_mib=guest_mib,
                workload=workload,
            )
        )

    for _ in range(min(churn.initial_vms, churn.max_vms)):
        arrive(0)

    for epoch in range(1, config.epochs):
        for ordinal in sorted(live):
            if live[ordinal] >= epoch:  # grace epoch for fresh arrivals
                continue
            if rng.random() < churn.departure_rate:
                del live[ordinal]
                events.append(TraceEvent(epoch=epoch, kind="depart", ordinal=ordinal))
        for ordinal in sorted(live):
            if rng.random() < churn.resize_rate:
                events.append(
                    TraceEvent(
                        epoch=epoch,
                        kind="resize",
                        ordinal=ordinal,
                        grow=rng.random() < 0.5,
                        delta_fraction=churn.resize_fraction,
                    )
                )
        arrivals = int(churn.arrivals_per_epoch)
        if rng.random() < churn.arrivals_per_epoch - arrivals:
            arrivals += 1
        for _ in range(arrivals):
            if len(live) >= churn.max_vms:
                break
            arrive(epoch)

    return events
