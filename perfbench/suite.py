"""The benchmark's four workloads and the results they are judged by.

A workload turns a seed into a fixed list of operations.  An operation is
one single-host cell (a fresh :class:`~repro.sim.engine.Simulation`) or
one fleet run (a fresh :class:`~repro.cluster.engine.ClusterSimulation`,
stepped serially in this process).  Building an operation is set-up;
running it is the measured work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.cluster.config import ChurnConfig
from repro.cluster.results import FleetResult
from repro.pressure import PressureConfig
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation
from repro.workloads.suite import make_workload

__all__ = ["Op", "WORKLOADS", "ops_for", "sim_metrics", "vm_epochs"]

BASELINE = "Host-B-VM-B"
GEMINI = "Gemini"

#: The paper's clean-slate comparison set (Figs 8-11, Table 3).
MATRIX_SYSTEMS = (BASELINE, "THP", "Ingens", "HawkEye", GEMINI)
#: One Table 2 model per allocation family: K/V churn, static arrays,
#: pointer chasing, zero-page-heavy heap.
MATRIX_WORKLOADS = ("Redis", "SVM", "Canneal", "Specjbb")


@dataclass(frozen=True)
class Op:
    """One operation: *build* makes the simulation, *run* runs it."""

    key: str
    build: Callable[[], object]
    run: Callable[[object], object]


def _cell(workload: str, system: str, config: SimulationConfig) -> Op:
    return Op(
        key=f"{workload}/{system}",
        build=lambda: Simulation(make_workload(workload), system=system, config=config),
        run=lambda sim: sim.run_single(),
    )


def _fleet(key: str, config: ClusterConfig) -> Op:
    return Op(
        key=key,
        build=lambda: ClusterSimulation(config),
        run=lambda sim: sim.run(workers=1),
    )


def _matrix(seed: int) -> list[Op]:
    config = SimulationConfig(
        epochs=8, fragment_guest=0.8, fragment_host=0.8, seed=seed
    )
    return [
        _cell(workload, system, config)
        for workload in MATRIX_WORKLOADS
        for system in MATRIX_SYSTEMS
    ]


def _steady(seed: int) -> list[Op]:
    config = SimulationConfig(
        epochs=144, fragment_guest=0.8, fragment_host=0.8, seed=seed
    )
    return [_cell("SVM", GEMINI, config)]


def _fleet_ops(seed: int) -> list[Op]:
    # The churn keeps the fleet at its 16-VM cap (arrivals refill every
    # departure) and draws tenants from the K/V churn family only, so the
    # amount of simulated work is nearly the same for every seed.
    config = ClusterConfig(
        hosts=8,
        host_mib=768,
        epochs=6,
        seed=seed,
        churn=ChurnConfig(
            initial_vms=16,
            max_vms=16,
            arrivals_per_epoch=3.0,
            workload_pool=("Redis", "RocksDB", "Memcached"),
        ),
    )
    return [_fleet("fleet", config)]


def _overcommit(seed: int) -> list[Op]:
    # Eight 80 MiB hosts admitting 3x their memory, kept full (24 VMs, as
    # many as they admit): every host drives its ladder down to swap, and
    # eight of them average out how much any one seed swaps.  The tenants
    # are two TLB-sensitive latency servers of equal footprint, so the
    # modelled throughput reflects the ladder rather than the churn's draw.
    config = ClusterConfig(
        hosts=8,
        host_mib=80,
        epochs=6,
        seed=seed,
        system=GEMINI,
        overcommit_ratio=3.0,
        placement_headroom=1.0,
        churn=ChurnConfig(
            initial_vms=24,
            max_vms=24,
            arrivals_per_epoch=3.0,
            departure_rate=0.03,
            guest_mib_choices=(48, 64),
            workload_pool=("Sphinx", "Moses"),
        ),
        pressure=PressureConfig(enabled=True, victim_policy="alignment-aware", seed=seed),
    )
    return [_fleet("overcommit", config)]


#: name -> the workload's operations for a seed
WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "matrix": _matrix,
    "steady": _steady,
    "fleet": _fleet_ops,
    "overcommit": _overcommit,
}


def ops_for(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)


# ----------------------------------------------------------------------
# Result summaries
# ----------------------------------------------------------------------


def _records(result):
    if isinstance(result, FleetResult):
        return result.tenant_epochs
    return result.epochs


def vm_epochs(results: list) -> int:
    """Simulated VM-epochs completed, counted from the result records."""
    return sum(len(_records(result)) for result in results)


def sim_metrics(results: list) -> dict[str, float]:
    """Modelled (simulated-time) figures of one set of results.

    ``well_aligned_rate`` and ``sim_ops_per_kcycle`` average the Gemini
    results: a cell's steady-state figures, or a fleet's final-epoch
    well-aligned rate and mean tenant throughput.  ``gemini_speedup`` is
    the mean over workloads of Gemini's throughput over Host-B-VM-B's
    (paper Fig. 8), 0 where a set has no such pair.
    """
    aligned, throughput = [], []
    by_system: dict[str, dict[str, float]] = {}
    totals = dict.fromkeys(
        ("sim.tlb_misses", "sim.translation_cycles", "sim.sync_mm_cycles",
         "sim.background_cycles", "cluster.migration_cycles",
         "pressure.swap_out_pages"),
        0.0,
    )
    for result in results:
        for record in _records(result):
            performance = record.performance
            totals["sim.tlb_misses"] += performance.tlb_misses
            totals["sim.translation_cycles"] += performance.translation_cycles
            totals["sim.sync_mm_cycles"] += performance.sync_mm_cycles
            totals["sim.background_cycles"] += performance.background_cycles
        if isinstance(result, FleetResult):
            totals["cluster.migration_cycles"] += result.migration_cycles
            totals["pressure.swap_out_pages"] += result.fleet_swap_out_pages
            if result.system == GEMINI:
                aligned.append(result.fleet_well_aligned_rate)
                throughput.append(result.mean_throughput)
        else:
            by_system.setdefault(result.workload, {})[result.system] = result.throughput
            if result.system == GEMINI:
                aligned.append(result.well_aligned_rate)
                throughput.append(result.throughput)
    ratios = [
        row[GEMINI] / row[BASELINE]
        for row in by_system.values()
        if GEMINI in row and row.get(BASELINE, 0.0) > 0.0
    ]
    return {
        "well_aligned_rate": sum(aligned) / len(aligned) if aligned else 0.0,
        "sim_ops_per_kcycle": 1000.0 * sum(throughput) / len(throughput) if throughput else 0.0,
        "gemini_speedup": sum(ratios) / len(ratios) if ratios else 0.0,
        **totals,
    }
