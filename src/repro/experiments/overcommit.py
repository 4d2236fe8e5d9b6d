"""Overcommit interplay: alignment retained under memory pressure.

The paper's Section 8 states the pressure rule — only misaligned and
infrequently-used huge pages may be demoted under memory pressure — but
measures nothing overcommitted.  This experiment builds the scenario the
rule exists for: a small Gemini fleet admits ~2.5x its physical memory in
commitments, tenants fault their working sets, and the hosts spend most
epochs below the free-memory watermark, reclaiming through the full
ladder (balloon, KSM, swap-out).

The contrast is the swap victim policy under an identical pressure trace:

* ``lru-cold`` evicts purely by working-set coldness — it happily demotes
  a well-aligned huge page whose tenant went quiet, destroying alignment
  Gemini spent faults building;
* ``alignment-aware`` is the paper's rule — base pages and misaligned
  huge pages first, well-aligned-but-cold last, well-aligned-and-hot only
  below the critical watermark.

Both run on clean hosts and on aged hosts (a Section 6.3-style
fragmentation gradient), since pressure on an aged fleet is where
alignment is scarcest.  Expected shape: alignment-aware retains strictly
more well-aligned huge pages (and destroys strictly fewer) at similar
swap traffic, on both host populations.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster import ClusterConfig, FleetResult, run_cluster
from repro.cluster.config import ChurnConfig
from repro.experiments.common import format_table
from repro.pressure import PressureConfig

__all__ = [
    "OVERCOMMIT_CONFIG",
    "VICTIM_POLICIES",
    "format_overcommit",
    "overcommit_table",
    "run_overcommit",
]

#: Victim policies compared, paper rule last.
VICTIM_POLICIES = ["lru-cold", "alignment-aware"]

#: Three small Gemini hosts admitting 2.5x physical memory.  Headroom is
#: 1.0 (commitments count at face value) and the workload pool is the
#: small-footprint slice of the suite, so hosts really reach ~5 tenants
#: and spend the run's second half under the watermark, swapping.
OVERCOMMIT_CONFIG = ClusterConfig(
    hosts=3,
    host_mib=128,
    epochs=10,
    seed=7,
    system="Gemini",
    overcommit_ratio=2.5,
    placement_headroom=1.0,
    churn=ChurnConfig(
        initial_vms=12,
        arrivals_per_epoch=0.5,
        departure_rate=0.03,
        max_vms=24,
        guest_mib_choices=(48, 64),
        workload_pool=("Shore", "SP.D", "Sphinx", "Moses"),
    ),
    pressure=PressureConfig(enabled=True),
)


def run_overcommit(
    policies: list[str] | None = None,
    config: ClusterConfig = OVERCOMMIT_CONFIG,
    epochs: int | None = None,
    aged_fragment: float = 0.4,
) -> dict[str, FleetResult]:
    """Run the same overcommitted churn trace per victim policy, on
    clean and on aged (fragmentation-gradient) hosts."""
    policies = policies or VICTIM_POLICIES
    if epochs is not None:
        config = replace(config, epochs=epochs)
    results: dict[str, FleetResult] = {}
    for label, fragment in (("clean", 0.0), ("aged", aged_fragment)):
        for policy in policies:
            cell = replace(
                config,
                fragment_host=fragment,
                pressure=replace(config.pressure, victim_policy=policy),
            )
            results[f"{policy} ({label})"] = run_cluster(cell)
    return results


def overcommit_table(
    results: dict[str, FleetResult],
) -> dict[str, dict[str, float]]:
    """Pressure metrics (rows) per victim policy x host age (columns)."""
    metrics: dict[str, dict[str, float]] = {
        "aligned huge retained": {},
        "aligned demotions": {},
        "huge demotions": {},
        "well-aligned rate": {},
        "swap-out Kpages": {},
        "swap-in Kpages": {},
        "throughput (ops/Gcycle)": {},
    }
    for column, result in results.items():
        metrics["aligned huge retained"][column] = result.fleet_aligned_huge
        metrics["aligned demotions"][column] = (
            result.fleet_pressure_aligned_demotions
        )
        metrics["huge demotions"][column] = result.fleet_pressure_demotions
        metrics["well-aligned rate"][column] = result.fleet_well_aligned_rate
        metrics["swap-out Kpages"][column] = result.fleet_swap_out_pages / 1e3
        metrics["swap-in Kpages"][column] = result.fleet_swap_in_pages / 1e3
        metrics["throughput (ops/Gcycle)"][column] = (
            result.mean_throughput * 1e9
        )
    return metrics


def format_overcommit(results: dict[str, FleetResult]) -> str:
    lines = [
        "Overcommit interplay: swap victim policy vs alignment retained",
        "(2.5x committed, Gemini hosts; identical churn and pressure trace)",
        "",
        format_table(overcommit_table(results)),
    ]
    return "\n".join(lines)
