"""Frame-by-frame oracles for the smaller fast paths.

Each production shortcut here replaced an obviously-correct loop; the
loop lives on in this file only, and random inputs must give both the
same answer:

* :func:`~repro.cluster.host.resident_runs` merges huge and base run lists
  instead of sorting the set of every resident page;
* ``GeminiRuntime._guest_region_alignable`` compares two counters instead
  of probing 512 frames;
* ``GeminiRuntime._free_host_region`` scans the large-region listing
  instead of every free region;
* ``ClusterSimulation._host_score`` caches scores between view changes.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.cluster.host import resident_runs
from repro.core.policy import GeminiGuestPolicy, GeminiHostPolicy
from repro.core.runtime import GeminiRuntime
from repro.hypervisor.platform import Platform
from repro.hypervisor.vm import PROCESS
from repro.mem.buddy import AllocationError
from repro.mem.layout import PAGES_PER_HUGE, huge_align_up
from repro.policies.registry import system_spec

GUEST_REGIONS = 8


# ----------------------------------------------------------------------
# The loops the fast paths replaced
# ----------------------------------------------------------------------


def resident_runs_by_pages(vm) -> list[tuple[int, int]]:
    """Sorted runs of the set of every guest-mapped guest-physical page."""
    table = vm.guest.table(PROCESS)
    gpns: set[int] = set()
    for _, gpregion in table.huge_mappings():
        base = gpregion * PAGES_PER_HUGE
        gpns.update(range(base, base + PAGES_PER_HUGE))
    for _, gpn in table.base_mappings():
        gpns.add(gpn)
    runs: list[tuple[int, int]] = []
    for gpn in sorted(gpns):
        if runs and gpn == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((gpn, 1))
    return runs


def alignable_by_frames(runtime: GeminiRuntime, vm_id: int, gpregion: int) -> bool:
    """Every allocated frame of *gpregion* is base-owned, or a huge owner,
    booking or bucket entry covers the region."""
    state = runtime.guest_state(vm_id)
    vm = state.vm
    start = gpregion * PAGES_PER_HUGE
    for frame in range(start, start + PAGES_PER_HUGE):
        if vm.gpa_space.is_free(frame):
            continue
        if vm.guest.owner_of_frame(frame) is not None:
            continue
        if vm.guest.owner_of_region(gpregion) is not None:
            continue
        if gpregion in state.booking or gpregion in state.bucket:
            continue
        return False
    return True


def first_free_huge_region(memory) -> int | None:
    """First-fit over every free region: the lowest huge-aligned region
    that lies entirely inside one."""
    for start, npages in memory.free_regions():
        aligned = huge_align_up(start)
        if aligned + PAGES_PER_HUGE <= start + npages:
            return aligned // PAGES_PER_HUGE
    return None


def score_of(view, consolidation) -> tuple:
    """(overloaded, underloaded, cheapest ordinal) computed afresh."""
    cheapest = (
        min(view.residents, key=lambda r: (r[1], r[0]))[0]
        if view.residents
        else None
    )
    overloaded = bool(view.residents) and (
        view.utilization > consolidation.overload or view.pressure >= 1.0
    )
    underloaded = bool(view.residents) and view.utilization < consolidation.underload
    return overloaded, underloaded, cheapest


# ----------------------------------------------------------------------
# Random guest states
# ----------------------------------------------------------------------

GUEST_OPS = st.lists(
    st.tuples(
        st.sampled_from(["touch", "touch", "munmap", "pin", "book", "demote"]),
        st.integers(min_value=0, max_value=GUEST_REGIONS - 1),
        st.sampled_from([PAGES_PER_HUGE, 2 * PAGES_PER_HUGE])
        | st.integers(min_value=1, max_value=2 * PAGES_PER_HUGE),
    ),
    min_size=1,
    max_size=20,
)


def gemini_guest(ops):
    """A Gemini platform and runtime with one VM driven through *ops*."""
    platform = Platform((GUEST_REGIONS + 4) * PAGES_PER_HUGE, GeminiHostPolicy())
    vm = platform.create_vm(GUEST_REGIONS * PAGES_PER_HUGE, GeminiGuestPolicy())
    runtime = GeminiRuntime(platform)
    runtime.register_vm(vm)
    state = runtime.guest_state(vm.id)
    vmas: list[str] = []
    mapped = 0
    for serial, (op, pick, size) in enumerate(ops):
        if op == "touch" and mapped + size <= (GUEST_REGIONS - 3) * PAGES_PER_HUGE:
            vma = vm.mmap(size, f"vma{serial}")
            platform.touch_range(vm, vma.start, vma.npages)
            vmas.append(vma.name)
            mapped += size
        elif op == "munmap" and vmas:
            mapped -= vm.munmap(vmas.pop(pick % len(vmas))).npages
        elif op == "pin":
            # An unmovable kernel object: allocated, never mapped.
            try:
                vm.gpa_space.alloc(0)
            except AllocationError:
                pass
        elif op == "book":
            state.booking.book(pick, now=0.0)
        elif op == "demote":
            huge = sorted(vm.table().huge_mappings())
            if huge:
                vm.guest.demote(PROCESS, huge[pick % len(huge)][0])
    return platform, vm, runtime


@settings(max_examples=40, deadline=None)
@given(ops=GUEST_OPS)
def test_guest_region_alignable_matches_frame_loop(ops):
    _, vm, runtime = gemini_guest(ops)
    for gpregion in range(GUEST_REGIONS):
        assert runtime._guest_region_alignable(
            vm.id, gpregion
        ) == alignable_by_frames(runtime, vm.id, gpregion)
    # An unregistered VM never blocks host promotion.
    assert runtime._guest_region_alignable(vm.id + 1, 0)


@settings(max_examples=40, deadline=None)
@given(ops=GUEST_OPS, system=st.sampled_from(["Host-B-VM-B", "THP"]))
def test_resident_runs_match_page_set(ops, system):
    _, vm, _ = gemini_guest(ops)
    assert resident_runs(vm) == resident_runs_by_pages(vm)
    spec = system_spec(system)
    platform = Platform((GUEST_REGIONS + 4) * PAGES_PER_HUGE, spec.make_host())
    other = platform.create_vm(GUEST_REGIONS * PAGES_PER_HUGE, spec.make_guest())
    for serial, (op, _, size) in enumerate(ops):
        if op == "touch":
            vma = other.mmap(size // 2 + 1, f"vma{serial}")
            platform.touch_range(other, vma.start, vma.npages)
    assert resident_runs(other) == resident_runs_by_pages(other)


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=16 * PAGES_PER_HUGE - 1),
            st.integers(min_value=0, max_value=10),
        ),
        max_size=40,
    )
)
def test_free_host_region_matches_first_fit_scan(blocks):
    platform = Platform(16 * PAGES_PER_HUGE, GeminiHostPolicy())
    runtime = GeminiRuntime(platform)
    for frame, order in blocks:
        start = frame >> order << order
        if platform.memory.range_is_free(start, 1 << order):
            platform.memory.alloc_at(start, order)
        assert runtime._free_host_region() == first_free_huge_region(platform.memory)


@settings(max_examples=40, deadline=None)
@given(
    changes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=100),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=5),
                    st.integers(min_value=0, max_value=50),
                ),
                max_size=3,
            ),
            st.sampled_from([0.0, 0.5, 1.0]),
        ),
        max_size=30,
    )
)
def test_cached_host_score_matches_fresh_score(changes):
    sim = ClusterSimulation(ClusterConfig(hosts=3, host_mib=16, epochs=1))
    consolidation = sim.config.consolidation
    for index, free_percent, residents, pressure in changes:
        view = sim._views[index]
        sim._set_view(
            replace(
                view,
                free_pages=view.total_pages * free_percent // 100,
                residents=tuple(sorted(dict(residents).items())),
                pressure=pressure,
            )
        )
        for host in range(3):
            assert sim._host_score(host) == score_of(sim._views[host], consolidation)
