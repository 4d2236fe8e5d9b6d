"""Incremental translation-state index: bit-identical to full rescans.

The per-epoch pipeline reads event-maintained summaries — O(1)
``promotable``, counter-backed alignment reports, the MHPS live set,
cached region classifications, owner-count promoter steering and the
fully-translated touch skip.  Full simulations — noise on, fragmentation
on, every policy family, plus the heavy-noise and reused-VM variants —
must reproduce the digest the enumerate-everything rescan path recorded
(see :mod:`tests.sim.reference_runs`).  ``tests/oracle`` checks each
summary against a recount after every operation.
"""

import pytest

from tests.digests import digest
from tests.sim.reference_runs import REFERENCE, SYSTEMS, run_case


@pytest.mark.parametrize("system", SYSTEMS)
def test_index_equals_reference(system):
    assert digest(run_case(system)) == REFERENCE[system]


def test_index_equals_reference_with_heavy_noise():
    """A high noise rate interleaves noise allocations with the touch
    stream, exercising the translated-region skip against per-page noise
    delivery windows."""
    assert digest(run_case("heavy-noise")) == REFERENCE["heavy-noise"]


def test_index_equals_reference_with_primer():
    """The reused-VM path (primer + unmap + EPT retention) exercises index
    invalidation across a full tenant turnover."""
    assert digest(run_case("primer")) == REFERENCE["primer"]


def test_index_orthogonal_to_batching():
    """The reference digest was recorded with the per-page fault path and
    the rescans together; the batched, indexed run must match it."""
    assert digest(run_case("gemini-3-epochs")) == REFERENCE["gemini-3-epochs"]
