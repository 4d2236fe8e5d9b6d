"""Reference results pinning the fault path, the translation index and
the hot-path kernels.

The simulator once shipped a per-page fault path, an enumerate-everything
rescan path and per-frame reference loops next to the batched, indexed and
kernel paths it runs now.  Every digest below was recorded from those
reference paths (all three at once, and each alone — they agreed with the
current path on every case), so a production result equal to its digest
equals what the reference paths produced.

The three equivalence suites pin overlapping cases; :func:`run_case`
memoises each run so a session simulates every case once.
"""

from dataclasses import replace
from functools import cache

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.cluster.config import MigrationConfig
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_workload
from repro.workloads.suite import make_workload

BASE = SimulationConfig(
    epochs=4,
    guest_mib=128,
    host_mib=384,
    fragment_guest=0.7,
    fragment_host=0.7,
)

#: One system per policy family: no coalescing, huge faults, utilization
#: gating, contiguity-aware placement, and the full cross-layer runtime.
SYSTEMS = ["Host-B-VM-B", "THP", "Ingens", "CA-paging", "Gemini"]

SMALL_FLEET = ClusterConfig(
    hosts=3,
    host_mib=512,
    epochs=6,
    seed=7,
    migration=MigrationConfig(check_invariants=True),
)

#: case -> digest of the reference-path result.
REFERENCE = {
    "Host-B-VM-B": "7f810c582e4c7b79",
    "THP": "2b76c40c26ff89c5",
    "Ingens": "f045cdf4d6d10f36",
    "CA-paging": "8537393383403760",
    "Gemini": "6fd6fe30feb0d882",
    # A high noise rate forces short act horizons, interleaving per-page
    # noise delivery with the batched windows and the touch skips.
    "heavy-noise": "733c1663b8e6b2e5",
    # The reused-VM path: primer, unmap, EPT retention, full turnover.
    "primer": "bffcd18fcf4bab23",
    "gemini-3-epochs": "91e1d8d1d694219f",
    "small-fleet": "88d9c8b652a91a88",
}


@cache
def run_case(case: str):
    """The production result of *case* (simulated once per session)."""
    if case in SYSTEMS:
        return run_workload(make_workload("Redis"), case, config=BASE)
    if case == "heavy-noise":
        config = replace(BASE, noise_rate=0.25, epochs=3)
        return run_workload(make_workload("Masstree"), "Gemini", config=config)
    if case == "primer":
        return run_workload(
            make_workload("Redis"), "Gemini",
            config=replace(BASE, epochs=3),
            primer=make_workload("SVM"),
        )
    if case == "gemini-3-epochs":
        return run_workload(
            make_workload("Redis"), "Gemini", config=replace(BASE, epochs=3)
        )
    if case == "small-fleet":
        return ClusterSimulation(SMALL_FLEET).run()
    raise KeyError(case)
