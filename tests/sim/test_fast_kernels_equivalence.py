"""Profile-guided fast kernels vs reference paths: bit-identical.

With ``fast_kernels=True`` the hot paths run batch kernels — span
fault/unmap operations over the buddy batch allocator, rmap bitset
scans in the promoter, quiescent-epoch replay skipping, memoized TLB
segment evaluation and incremental consolidation scoring.  With
``False`` every one of those is the original per-frame loop.  Both must
produce deep-equal results on full simulations across every policy
family, with noise, with the reused-VM primer, composed with the other
fast-path flags, and on whole-fleet cluster runs.
"""

from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, fleet_key
from repro.cluster.config import MigrationConfig
from repro.exec.cells import Cell
from repro.exec.cache import cell_key
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


@pytest.mark.parametrize("system", SYSTEMS)
def test_fast_kernels_equal_reference(system):
    fast = run_workload(
        make_workload("Redis"), system, config=replace(BASE, fast_kernels=True)
    )
    reference = run_workload(
        make_workload("Redis"), system, config=replace(BASE, fast_kernels=False)
    )
    assert fast == reference


def test_fast_kernels_equal_reference_with_heavy_noise():
    """Noise interleaves foreign allocations with the touch stream and
    forces the per-page fault windows, so the quiescent cache must stay
    invisible under it."""
    config = replace(BASE, noise_rate=0.25, epochs=3)
    fast = run_workload(make_workload("Masstree"), "Gemini", config=config)
    reference = run_workload(
        make_workload("Masstree"), "Gemini",
        config=replace(config, fast_kernels=False),
    )
    assert fast == reference


def test_fast_kernels_equal_reference_with_primer():
    """The reused-VM path (primer + unmap + EPT retention) exercises the
    release-client teardown kernel and fingerprint invalidation across a
    full tenant turnover."""
    config = replace(BASE, epochs=3)
    fast = run_workload(
        make_workload("Redis"), "Gemini", config=config,
        primer=make_workload("SVM"),
    )
    reference = run_workload(
        make_workload("Redis"), "Gemini",
        config=replace(config, fast_kernels=False),
        primer=make_workload("SVM"),
    )
    assert fast == reference


@pytest.mark.parametrize(
    "other",
    [{"batch_faults": False}, {"incremental_index": False}],
    ids=["per-page-faults", "no-index"],
)
def test_fast_kernels_orthogonal_to_other_flags(other):
    """The three selectable fast paths compose: kernels on/off must also
    agree when a sibling fast path is switched to its reference loop."""
    config = replace(BASE, epochs=3, **other)
    fast = run_workload(make_workload("Redis"), "Gemini", config=config)
    reference = run_workload(
        make_workload("Redis"), "Gemini",
        config=replace(config, fast_kernels=False),
    )
    assert fast == reference


def test_fleet_fast_kernels_equal_reference():
    fast = ClusterSimulation(SMALL_FLEET).run(workers=1)
    reference = ClusterSimulation(
        replace(SMALL_FLEET, fast_kernels=False)
    ).run(workers=1)
    assert fast == reference


def test_fleet_fast_kernels_parallel_identical(force_pool):
    serial = ClusterSimulation(SMALL_FLEET).run(workers=1)
    sim = ClusterSimulation(SMALL_FLEET)
    parallel = sim.run(workers=2)
    if sim.ipc_bytes_per_epoch == 0:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert serial == parallel


def test_fast_kernels_excluded_from_cache_keys():
    """Both result-cache keys treat the flag as a pure execution strategy."""
    assert fleet_key(SMALL_FLEET) == fleet_key(
        replace(SMALL_FLEET, fast_kernels=False)
    )
    fast = Cell("Redis", "Gemini", replace(BASE, fast_kernels=True))
    reference = Cell("Redis", "Gemini", replace(BASE, fast_kernels=False))
    assert cell_key(fast) == cell_key(reference)
