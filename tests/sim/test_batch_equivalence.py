"""Batched fault path vs per-page reference path: bit-identical results.

The batched hot path (``Platform.touch_range`` -> ``MemoryLayer.fault_range``
-> buddy-backed batch placement) must make exactly the allocation decisions,
ledger charges and RNG draws of per-page faulting.  These tests run full
simulations both ways — noise on, fragmentation on, every policy family —
and require deep equality of the complete per-epoch records.
"""

from dataclasses import replace

import pytest

from repro.mem.layout import PAGES_PER_HUGE
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


@pytest.mark.parametrize("system", SYSTEMS)
def test_batched_equals_per_page(system):
    batched = run_workload(
        make_workload("Redis"), system, config=replace(BASE, batch_faults=True)
    )
    per_page = run_workload(
        make_workload("Redis"), system, config=replace(BASE, batch_faults=False)
    )
    assert batched == per_page


def test_batched_equals_per_page_with_heavy_noise():
    """A high noise rate forces short act horizons, exercising the window
    split between batched runs and per-page noise delivery."""
    config = replace(BASE, noise_rate=0.25, epochs=3)
    batched = run_workload(make_workload("Masstree"), "Gemini", config=config)
    per_page = run_workload(
        make_workload("Masstree"), "Gemini",
        config=replace(config, batch_faults=False),
    )
    assert batched == per_page


def test_batched_equals_per_page_with_primer():
    """The reused-VM path (primer + unmap + EPT retention) batches too."""
    config = replace(BASE, epochs=3)
    batched = run_workload(
        make_workload("Redis"), "Gemini", config=config,
        primer=make_workload("SVM"),
    )
    per_page = run_workload(
        make_workload("Redis"), "Gemini",
        config=replace(config, batch_faults=False),
        primer=make_workload("SVM"),
    )
    assert batched == per_page


def test_touch_range_matches_touch_loop():
    """Platform-level check: touch_range over a fresh VMA leaves the exact
    mapping and allocator state of per-page touch, huge faults included."""
    from repro.sim.engine import Simulation

    def build(batch):
        sim = Simulation(
            make_workload("Redis"), system="THP",
            config=replace(BASE, batch_faults=batch, epochs=1, noise_rate=0.0),
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
