"""Fleet simulation: a cluster of hosts under VM churn, placement,
consolidation and live migration.

The paper studies one host at a time; this package asks the cloud-scale
question its Section 6.3 setup implies: when VMs keep arriving, resizing,
migrating and departing across a fleet, which hosts stay capable of
well-aligned huge-page backing, and what do placement and migration
policy do to that capability?

Entry points:

* :class:`~repro.cluster.config.ClusterConfig` — all knobs of one run;
* :func:`~repro.cluster.engine.run_cluster` /
  :class:`~repro.cluster.engine.ClusterSimulation` — the engine
  (in-process per-host stepping, cached);
* :mod:`~repro.cluster.placement` — pluggable placement policies;
* :class:`~repro.cluster.migration.MigrationEngine` — pre-copy live
  migration with cost charging and invariant checking;
* :class:`~repro.cluster.results.FleetResult` — fleet-level metrics.
"""

from repro.cluster.config import (
    ChurnConfig,
    ClusterConfig,
    ConsolidationConfig,
    MigrationConfig,
)
from repro.cluster.engine import ClusterSimulation, fleet_key, run_cluster
from repro.cluster.host import Host, HostView, Tenant
from repro.cluster.migration import (
    MigrationEngine,
    MigrationInvariantError,
    resident_pages,
    resident_runs,
)
from repro.cluster.placement import (
    PLACEMENTS,
    PlacementPolicy,
    make_placement,
    placement_names,
)
from repro.cluster.results import (
    FleetResult,
    HostEpochRecord,
    MigrationRecord,
    TenantEpochRecord,
)
from repro.cluster.trace import TraceEvent, build_trace

__all__ = [
    "ChurnConfig",
    "ClusterConfig",
    "ClusterSimulation",
    "ConsolidationConfig",
    "FleetResult",
    "Host",
    "HostEpochRecord",
    "HostView",
    "MigrationConfig",
    "MigrationEngine",
    "MigrationInvariantError",
    "MigrationRecord",
    "PLACEMENTS",
    "PlacementPolicy",
    "Tenant",
    "TenantEpochRecord",
    "TraceEvent",
    "build_trace",
    "fleet_key",
    "make_placement",
    "placement_names",
    "resident_pages",
    "resident_runs",
    "run_cluster",
]
