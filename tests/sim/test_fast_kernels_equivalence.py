"""Profile-guided hot-path kernels: bit-identical to per-frame loops.

The hot paths run batch kernels — span fault/unmap operations over the
buddy batch allocator, rmap bitset scans in the promoter, quiescent-epoch
replay skipping, memoized TLB segment evaluation and incremental
consolidation scoring.  Full simulations across every policy family, with
noise, with the reused-VM primer, and whole-fleet cluster runs must
reproduce the digest the per-frame reference loops recorded (see
:mod:`tests.sim.reference_runs`); ``tests/oracle`` checks the kernels
operation by operation.
"""

import pytest

from repro.cluster import ClusterSimulation
from tests.digests import digest
from tests.sim.reference_runs import REFERENCE, SMALL_FLEET, SYSTEMS, run_case


@pytest.mark.parametrize("system", SYSTEMS)
def test_fast_kernels_equal_reference(system):
    assert digest(run_case(system)) == REFERENCE[system]


def test_fast_kernels_equal_reference_with_heavy_noise():
    """Noise interleaves foreign allocations with the touch stream and
    forces the per-page fault windows, so the quiescent cache must stay
    invisible under it."""
    assert digest(run_case("heavy-noise")) == REFERENCE["heavy-noise"]


def test_fast_kernels_equal_reference_with_primer():
    """The reused-VM path (primer + unmap + EPT retention) exercises the
    release-client teardown kernel and fingerprint invalidation across a
    full tenant turnover."""
    assert digest(run_case("primer")) == REFERENCE["primer"]


@pytest.mark.parametrize("reference", ["per-page-faults", "no-index"])
def test_fast_kernels_orthogonal_to_other_flags(reference):
    """The reference digest was recorded with the per-frame loops composed
    with the per-page fault path and, separately, with the rescan path —
    both gave the same result, which the production run must reproduce."""
    assert digest(run_case("gemini-3-epochs")) == REFERENCE["gemini-3-epochs"]


def test_fleet_fast_kernels_equal_reference():
    assert digest(run_case("small-fleet")) == REFERENCE["small-fleet"]


def test_fleet_fast_kernels_parallel_identical(force_pool):
    serial = ClusterSimulation(SMALL_FLEET).run(workers=1)
    sim = ClusterSimulation(SMALL_FLEET)
    parallel = sim.run(workers=2)
    if sim.ipc_bytes_per_epoch == 0:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert serial == parallel
