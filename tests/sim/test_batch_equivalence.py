"""Batched fault path: bit-identical to per-page faulting.

The batched hot path (``Platform.touch_range`` -> ``MemoryLayer.fault_range``
-> buddy-backed batch placement) must make exactly the allocation
decisions, ledger charges and RNG draws of per-page faulting.  Full
simulations — noise on, fragmentation on, every policy family — must
reproduce the digest the per-page path recorded (see
:mod:`tests.sim.reference_runs`); the platform-level check compares
``touch_range`` with a ``touch`` loop directly.
"""

from dataclasses import replace

import pytest

from repro.mem.layout import PAGES_PER_HUGE
from repro.sim.engine import Simulation
from repro.workloads.suite import make_workload
from tests.digests import digest
from tests.sim.reference_runs import BASE, REFERENCE, SYSTEMS, run_case


@pytest.mark.parametrize("system", SYSTEMS)
def test_batched_equals_per_page(system):
    assert digest(run_case(system)) == REFERENCE[system]


def test_batched_equals_per_page_with_heavy_noise():
    """A high noise rate forces short act horizons, exercising the window
    split between batched runs and per-page noise delivery."""
    assert digest(run_case("heavy-noise")) == REFERENCE["heavy-noise"]


def test_batched_equals_per_page_with_primer():
    """The reused-VM path (primer + unmap + EPT retention) batches too."""
    assert digest(run_case("primer")) == REFERENCE["primer"]


def test_touch_range_matches_touch_loop():
    """Platform-level check: touch_range over a fresh VMA leaves the exact
    mapping and allocator state of per-page touch, huge faults included."""

    def build(batch):
        sim = Simulation(
            make_workload("Redis"), system="THP",
            config=replace(BASE, epochs=1, noise_rate=0.0),
        )
        vm = sim.host.tenants[0].vm
        vma = vm.mmap(3 * PAGES_PER_HUGE + 17, "probe")
        if batch:
            sim.platform.touch_range(vm, vma.start, vma.npages)
        else:
            for vpn in range(vma.start, vma.end):
                sim.platform.touch(vm, vpn)
        guest = {
            vpn: vm.guest.translate(0, vpn) for vpn in range(vma.start, vma.end)
        }
        host_free = sim.platform.memory.free_regions()
        guest_free = vm.gpa_space.free_regions()
        return guest, host_free, guest_free

    assert build(True) == build(False)
