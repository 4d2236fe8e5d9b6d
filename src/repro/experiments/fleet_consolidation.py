"""Fleet consolidation study: placement policy vs fleet-wide alignment.

The paper measures one host; this experiment asks the question its
Section 6.3 lifecycle model raises at cloud scale.  A fleet of hosts with
a fragmentation gradient (host 0 has aged the longest, the highest-index
hosts are freshly racked) runs the same seeded churn trace — VMs arrive,
resize, migrate under consolidation pressure and depart — once per
placement policy.  Because guest ``munmap`` never returns host frames,
every decision about *where* a VM lands decides which host's contiguity
it consumes; landing tenants on fragmented hosts yields huge pages that
can never be well-aligned, no matter what the coalescing policy does
afterwards.

Expected shape: ``alignment-aware`` placement (which reads each host's
aligned-free buddy summary and translation-index misalignment reports)
holds a higher fleet well-aligned rate than ``first-fit`` (which packs
the oldest, most fragmented hosts first), with ``contiguity-fit``
in between.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster import ClusterConfig, FleetResult, run_cluster
from repro.experiments.common import format_table
from repro.metrics.report import fleet_to_markdown

__all__ = [
    "DEFAULT_PLACEMENTS",
    "FLEET_CONFIG",
    "run_fleet_consolidation",
    "placement_table",
    "format_fleet_consolidation",
]

#: Placement policies compared, packing baseline first.
DEFAULT_PLACEMENTS = ["first-fit", "best-fit", "contiguity-fit", "alignment-aware"]

#: Eight THP hosts with a fragmentation gradient: host 0 carries
#: ``fragment_host`` worth of aged free-list damage, the last host is
#: clean.  THP is the system where placement matters most — its per-host
#: fault/scan budgets make collocated tenants starve for huge backing —
#: so it is the default here; rerun with ``system="Gemini"`` to watch
#: fast coalescing shrink the placement gap.
FLEET_CONFIG = ClusterConfig(
    hosts=8,
    host_mib=768,
    epochs=16,
    seed=42,
    system="THP",
    fragment_host=0.9,
)


def run_fleet_consolidation(
    placements: list[str] | None = None,
    config: ClusterConfig = FLEET_CONFIG,
    epochs: int | None = None,
    hosts: int | None = None,
) -> dict[str, FleetResult]:
    """Run the same churned fleet once per placement policy."""
    placements = placements or DEFAULT_PLACEMENTS
    if epochs is not None:
        config = replace(config, epochs=epochs)
    if hosts is not None:
        config = replace(config, hosts=hosts)
    return {
        placement: run_cluster(replace(config, placement=placement))
        for placement in placements
    }


def placement_table(
    results: dict[str, FleetResult],
) -> dict[str, dict[str, float]]:
    """Fleet metrics (rows) per placement policy (columns)."""
    metrics: dict[str, dict[str, float]] = {
        "well-aligned rate": {},
        "fleet FMFI": {},
        "throughput (ops/Gcycle)": {},
        "migrations": {},
        "migration Mpages": {},
        "placement failures": {},
    }
    for placement, result in results.items():
        metrics["well-aligned rate"][placement] = result.fleet_well_aligned_rate
        metrics["fleet FMFI"][placement] = result.fleet_fmfi
        metrics["throughput (ops/Gcycle)"][placement] = (
            result.mean_throughput * 1e9
        )
        metrics["migrations"][placement] = float(result.migration_count)
        metrics["migration Mpages"][placement] = result.migration_pages / 1e6
        metrics["placement failures"][placement] = float(
            result.placement_failures
        )
    return metrics


def format_fleet_consolidation(results: dict[str, FleetResult]) -> str:
    """The comparison table plus each policy's per-host breakdown."""
    sections = [
        format_table(
            placement_table(results),
            "Fleet consolidation: placement policy comparison "
            "(final epoch, fragmentation gradient)",
            fmt="{:.3f}",
        )
    ]
    for placement, result in results.items():
        sections.append("")
        sections.append(fleet_to_markdown(result, f"placement: {placement}"))
    return "\n".join(sections)
