"""Lockstep oracle for the platform's touch path and translation index.

Twin platforms run the same random operation stream.  One serves every
touch through ``touch_range`` — batched faults, the index's
translated-region skip and the quiescent-range cache; the other touches
page by page through ``touch``, which uses none of them.  After every
operation both must hold identical guest tables, EPTs, free regions at
both layers and ledgers, and the batched twin's index must equal a
recount: ``report()`` against ``alignment_report``, ``live_set()``
against the enumerated live set, every cached classification against
``classify_region`` and every fully-translated region against a page walk.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.host import backfill_host
from repro.hypervisor.platform import Platform
from repro.hypervisor.vm import PROCESS
from repro.mem.layout import PAGES_PER_HUGE
from repro.metrics.alignment import alignment_report, classify_region
from repro.policies.registry import system_spec
from repro.sim.noise import NoiseAgent
from tests.oracle.checks import check_layer

GUEST_REGIONS = 10
HOST_REGIONS = GUEST_REGIONS + 2
#: Live mappings never exceed the guest size, so no fault runs out of
#: memory at either layer (noise allocations fit in the slack).
VMA_BUDGET = (GUEST_REGIONS - 2) * PAGES_PER_HUGE

#: Base pages only, huge faults at both layers, guest-only huge faults,
#: and contiguity-aware batch placement (``choose_base_frames``).
SYSTEMS = ["Host-B-VM-B", "THP", "Host-B-VM-H", "CA-paging"]


class Twin:
    """One platform with one VM, touched either batched or page by page."""

    def __init__(self, system: str, batched: bool, noise_seed: int | None) -> None:
        spec = system_spec(system)
        self.batched = batched
        self.platform = Platform(HOST_REGIONS * PAGES_PER_HUGE, spec.make_host())
        self.vm = self.platform.create_vm(
            GUEST_REGIONS * PAGES_PER_HUGE, spec.make_guest()
        )
        if noise_seed is not None:
            NoiseAgent(self.platform, rate=0.05, seed=noise_seed).install()

    def touch(self, start: int, npages: int) -> None:
        if self.batched:
            self.platform.touch_range(self.vm, start, npages)
        else:
            for vpn in range(start, start + npages):
                self.platform.touch(self.vm, vpn)

    def classify(self, vregion: int):
        """What ``build_segments`` reads for *vregion*: the batched twin
        goes through the index's cache and the batched backfill, the
        other backfills page by page and classifies afresh."""
        platform, vm = self.platform, self.vm
        guest, ept = vm.guest.table(PROCESS), platform.ept(vm)
        if self.batched:
            index = platform.index_of(vm)
            classes = index.cached_classes(vregion)
            if classes is not None:
                assert classes == classify_region(guest, ept, vregion)
                return classes
            backfill_host(platform, vm, vregion)
            classes = classify_region(guest, ept, vregion)
            index.store_classes(vregion, classes)
            return classes
        if guest.is_huge(vregion):
            base = guest.huge_target(vregion) * PAGES_PER_HUGE
            gpns = range(base, base + PAGES_PER_HUGE)
        else:
            gpns = [gpn for _, gpn in guest.region_items(vregion)]
        for gpn in gpns:
            if ept.translate(gpn) is None:
                platform.host.fault(vm.id, gpn, full_region=True)
        return classify_region(guest, ept, vregion)

    def state(self):
        platform, vm = self.platform, self.vm
        guest, ept = vm.guest.table(PROCESS), platform.ept(vm)
        return (
            sorted(guest.base_mappings()),
            sorted(guest.huge_mappings()),
            sorted(ept.base_mappings()),
            sorted(ept.huge_mappings()),
            platform.memory.free_regions(),
            vm.gpa_space.free_regions(),
            ledger_state(vm.guest.ledger),
            ledger_state(platform.host.ledger),
        )


def ledger_state(ledger):
    return {
        (bucket, event): (charge.count, charge.cycles)
        for bucket in ("sync", "background")
        for event, charge in getattr(ledger, bucket).items()
        if charge.count or charge.cycles
    }


def check_index(twin: Twin) -> None:
    """Every summary the index serves equals a recount, and every cached
    positive (translated region, quiescent range) survives a page walk."""
    platform, vm = twin.platform, twin.vm
    guest, ept = vm.guest.table(PROCESS), platform.ept(vm)
    index = platform.index_of(vm)
    assert index.report() == alignment_report(guest, ept)
    live = {gpregion for _, gpregion in guest.huge_mappings()}
    live.update(gpn // PAGES_PER_HUGE for _, gpn in guest.base_mappings())
    assert index.live_set() == live
    for vregion, classes in index._classes.items():
        assert classes == classify_region(guest, ept, vregion)

    def translated(start: int, npages: int) -> bool:
        for vpn in range(start, start + npages):
            gpn = vm.translate(vpn)
            if gpn is None or ept.translate(gpn) is None:
                return False
        return True

    for vregion in index._translated:
        assert translated(vregion * PAGES_PER_HUGE, PAGES_PER_HUGE)
    for (start, npages), generation in platform._quiescent.get(vm.id, {}).items():
        if generation == index.invalidation_gen:
            assert translated(start, npages)


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "mmap",
                "mmap",
                "touch",
                "touch",
                "touch",
                "retouch",
                "retouch",
                "munmap",
                "guest_unmap",
                "host_unmap",
                "guest_promote",
                "host_promote",
                "host_demote",
                "guest_demote",
                "migrate",
                "classify",
            ]
        ),
        st.integers(min_value=0, max_value=7),
        # Whole-region offsets and sizes let touched regions become fully
        # translated, which is what the skip and the cache act on.
        st.one_of(
            st.just(0),
            st.just(0),
            st.integers(min_value=0, max_value=3 * PAGES_PER_HUGE),
        ),
        st.sampled_from([PAGES_PER_HUGE, 2 * PAGES_PER_HUGE, 3 * PAGES_PER_HUGE])
        | st.integers(min_value=1, max_value=3 * PAGES_PER_HUGE),
    ),
    min_size=5,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(
    system=st.sampled_from(SYSTEMS),
    noise_seed=st.none() | st.integers(min_value=0, max_value=3),
    ops=OPS,
)
def test_touch_range_matches_per_page_touch(system, noise_seed, ops):
    twins = [Twin(system, batched, noise_seed) for batched in (True, False)]
    space = twins[0].vm.address_space
    for twin in twins:
        twin.vm.mmap(2 * PAGES_PER_HUGE, "heap")
    vmas = ["heap"]
    last_touch = None  # (vma name, start, npages)
    # OS noise holds frames outside any mapping, so only a noise-free
    # run can check frame conservation exactly.
    held = 0 if noise_seed is None else None
    for serial, (op, pick, offset, size) in enumerate(ops):
        if op == "mmap":
            live = sum(space.vma(name).npages for name in vmas)
            if live + size > VMA_BUDGET:
                continue
            for twin in twins:
                twin.vm.mmap(size, f"vma{serial}")
            vmas.append(f"vma{serial}")
        elif op == "touch" and vmas:
            name = vmas[pick % len(vmas)]
            vma = space.vma(name)
            offset %= vma.npages
            last_touch = (name, vma.start + offset, min(size, vma.npages - offset))
            # Workloads replay their access ranges every epoch: the replay
            # of a fully translated range records a quiescent fingerprint.
            for twin in twins:
                twin.touch(*last_touch[1:])
                twin.touch(*last_touch[1:])
        elif op == "retouch" and last_touch is not None:
            for twin in twins:
                twin.touch(*last_touch[1:])
        elif op == "munmap" and vmas:
            name = vmas.pop(pick % len(vmas))
            for twin in twins:
                twin.vm.munmap(name)
            if last_touch is not None and last_touch[0] == name:
                last_touch = None
        elif op in ("guest_unmap", "host_unmap") and last_touch is not None:
            # Remove translations inside the last touched range (a
            # madvise(DONTNEED) in the guest, a reclaimed EPT page); the
            # next epoch's replay must fault them back, whatever the
            # quiescent cache recorded.
            _, start, npages = last_touch
            vpn = start + offset % npages
            count = min(size % 64 + 1, start + npages - vpn)
            for twin in twins:
                if op == "guest_unmap":
                    twin.vm.guest.unmap_range(PROCESS, vpn, count)
                elif (gpn := twin.vm.translate(vpn)) is not None:
                    twin.platform.host.unmap_range(twin.vm.id, gpn, count)
                twin.touch(start, npages)
        elif op in ("guest_promote", "host_promote", "guest_demote", "host_demote"):
            # Promotion is a khugepaged-style copy: guest pages move to new
            # guest-physical frames, or EPT pages to new host frames.
            layers = [
                (twin.platform.host, twin.vm.id)
                if op.startswith("host")
                else (twin.vm.guest, PROCESS)
                for twin in twins
            ]
            table = layers[0][0].table(layers[0][1])
            promote = op.endswith("promote")
            if promote:
                mapped = table.base_mappings()
                regions = sorted({vpn // PAGES_PER_HUGE for vpn, _ in mapped})
            else:
                regions = sorted(vregion for vregion, _ in table.huge_mappings())
            if regions:
                region = regions[pick % len(regions)]
                for layer, client in layers:
                    if promote:
                        layer.promote_with_migration(client, region)
                    else:
                        layer.demote(client, region)
        elif op == "migrate":
            for twin in twins:
                twin.platform.detach_vm(twin.vm)
                twin.platform.attach_vm(twin.vm)
        elif op == "classify" and vmas:
            vma = space.vma(vmas[pick % len(vmas)])
            first = vma.start // PAGES_PER_HUGE
            for vregion in range(first, (vma.end - 1) // PAGES_PER_HUGE + 1):
                assert twins[0].classify(vregion) == twins[1].classify(vregion)
        assert twins[0].state() == twins[1].state()
        check_index(twins[0])
        for twin in twins:
            check_layer(twin.vm.guest, held=held)
            check_layer(twin.platform.host, held=held)
