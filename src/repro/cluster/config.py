"""Cluster (fleet) simulation configuration.

A fleet run is parameterised by one frozen :class:`ClusterConfig`, which
nests the churn, migration and consolidation knobs.  Everything the fleet
result depends on lives here (plus the code version), so a config doubles
as the content key for the on-disk result cache — mirroring how
:mod:`repro.exec.cache` keys single-host cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runtime import GeminiConfig
from repro.pressure.config import PressureConfig
from repro.sim.config import DEFAULT_TLB
from repro.tlb.model import TLBConfig

__all__ = [
    "ChurnConfig",
    "ClusterConfig",
    "ConsolidationConfig",
    "MigrationConfig",
]


@dataclass(frozen=True)
class ChurnConfig:
    """VM lifecycle generator knobs (arrivals / departures / resizes).

    The generator produces the tenancy dynamics of Section 6.3's reused
    scenario at fleet scale: VMs keep arriving, running and leaving, and
    every departure leaves allocation holes (noise objects, neighbours'
    pages) behind — the host-side fragmentation the paper measures via
    FMFI.
    """

    #: VMs placed before the first epoch.
    initial_vms: int = 8
    #: Expected arrivals per epoch (fractional part drawn per epoch).
    arrivals_per_epoch: float = 1.0
    #: Per-VM per-epoch probability of departing (after a grace epoch).
    departure_rate: float = 0.08
    #: Per-VM per-epoch probability of a balloon resize.
    resize_rate: float = 0.05
    #: Balloon delta as a fraction of the VM's guest-physical size.
    resize_fraction: float = 0.2
    #: Hard cap on concurrently live VMs.
    max_vms: int = 32
    #: Guest-physical sizes (MiB) arrivals draw from.
    guest_mib_choices: tuple[int, ...] = (128, 192, 256)
    #: Workload models arrivals draw from (see ``repro list``).
    workload_pool: tuple[str, ...] = (
        "Redis", "Memcached", "Masstree", "Xapian", "SVM", "CG.D",
    )


@dataclass(frozen=True)
class MigrationConfig:
    """Pre-copy live-migration model knobs."""

    #: Maximum pre-copy rounds before forcing stop-and-copy.
    max_rounds: int = 8
    #: Dirty-set size (pages) below which stop-and-copy is acceptable.
    downtime_pages: int = 64
    #: Verify the page-conservation invariant after every migration
    #: (source frames freed, destination covers the resident set, no
    #: duplicated frames).  Debug aid; raises MigrationInvariantError.
    check_invariants: bool = False


@dataclass(frozen=True)
class ConsolidationConfig:
    """Dynamic consolidation controller knobs.

    The controller follows OpenStack Neat's decomposition of dynamic
    consolidation into four subproblems — underload detection, overload
    detection, VM selection, and placement — applied between epochs.
    """

    #: Run a consolidation pass every N epochs (0 disables).
    every: int = 4
    #: Hosts below this utilisation are drained (all VMs migrated away).
    underload: float = 0.25
    #: Hosts above this utilisation shed VMs until they drop below it.
    overload: float = 0.9
    #: Migration budget per consolidation pass.
    max_migrations: int = 4


@dataclass(frozen=True)
class ClusterConfig:
    """All knobs of one fleet simulation."""

    #: Number of hosts in the fleet.
    hosts: int = 8
    #: Host physical memory (MiB) per host.
    host_mib: int = 768
    #: Fleet epochs (every host steps once per epoch).
    epochs: int = 16
    #: Random seed — fixes the churn trace, placement decisions, noise
    #: streams and migration schedule.
    seed: int = 42
    #: Coalescing system every host runs (see ``repro list``).
    system: str = "Gemini"
    #: Placement policy name (see ``repro.cluster.placement``).
    placement: str = "first-fit"
    #: Initial FMFI per host before any VM is placed (0 = clean hosts;
    #: churn alone fragments the fleet over time).
    fragment_host: float = 0.0
    #: Initial FMFI inside each arriving VM's guest-physical space.
    fragment_guest: float = 0.0
    #: OS allocation noise (same model as single-host runs).
    noise_rate: float = 0.03
    noise_free_fraction: float = 0.5
    #: TLB capacity model used for every tenant.
    tlb: TLBConfig = field(default_factory=lambda: DEFAULT_TLB)
    #: Multiple of a VM's guest size a host must have free for the VM to
    #: be placeable there (headroom for noise and page-table bloat; RAM
    #: is never overcommitted unless ``overcommit_ratio`` says so).
    placement_headroom: float = 1.25
    #: Commitment-based admission multiplier: hosts advertise
    #: ``total * overcommit_ratio`` placeable pages, so ratios above 1.0
    #: admit more guest-physical memory than physically exists and rely
    #: on the pressure subsystem (ballooning, KSM, swap) to absorb the
    #: difference when tenants actually touch their pages.
    overcommit_ratio: float = 1.0
    #: Nested knob groups.
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    consolidation: ConsolidationConfig = field(default_factory=ConsolidationConfig)
    gemini: GeminiConfig = field(default_factory=GeminiConfig)
    #: Per-host memory-pressure subsystem (disabled by default; an
    #: overcommitted fleet without it will hard-OOM under load).
    pressure: PressureConfig = field(default_factory=PressureConfig)

    def __post_init__(self) -> None:
        if self.overcommit_ratio < 1.0:
            raise ValueError(
                f"overcommit_ratio below 1.0: {self.overcommit_ratio}"
            )
