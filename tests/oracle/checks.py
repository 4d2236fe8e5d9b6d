"""Conservation invariants a memory layer holds after every operation.

Each check recomputes a summary the simulator maintains incrementally
from the ground truth it summarises (page tables, the reverse map, the
buddy free lists) and compares the two.  None of them trusts a fast
path: they enumerate frames and mappings one by one.
"""

from repro.mem.layout import PAGES_PER_HUGE
from repro.os.mm import MemoryLayer


def check_free_space(memory) -> set[int]:
    """Buddy free regions are sorted, disjoint and sum to ``free_pages``;
    they cover exactly the free blocks' frames, and the large listing is
    the at-least-one-huge-page subset.  Returns the free frame set."""
    regions = memory.free_regions()
    free: set[int] = set()
    previous_end = None
    for start, npages in regions:
        assert npages > 0
        assert previous_end is None or start >= previous_end
        previous_end = start + npages
        free.update(range(start, start + npages))
    assert len(free) == memory.free_pages
    blocks: set[int] = set()
    for start, order in memory.free_blocks():
        blocks.update(range(start, start + (1 << order)))
    assert blocks == free
    assert memory.large_free_regions() == [
        region for region in regions if region[1] >= PAGES_PER_HUGE
    ]
    return free


def check_layer(layer: MemoryLayer, held: int | None = 0) -> None:
    """Reverse map <-> page tables is a bijection, the owner index equals
    a recount of the reverse map, and frames are conserved:
    free + distinct base-mapped + 512 * huge + *held* = total, where
    *held* counts frames allocated outside any mapping (None when an
    outside allocator, such as OS noise, holds an unknown number)."""
    rmap_base: dict[int, tuple[int, int]] = {}
    rmap_huge: dict[int, tuple[int, int]] = {}
    mappings = 0
    for client in layer.clients():
        table = layer.table(client)
        for vpn, pfn in table.base_mappings():
            rmap_base[pfn] = (client, vpn)
            mappings += 1
        for vregion, pregion in table.huge_mappings():
            rmap_huge[pregion] = (client, vregion)
    # No two base mappings share a frame (no page sharing in these
    # suites), so the expected reverse map has one entry per mapping.
    assert len(rmap_base) == mappings
    assert layer._rmap_base == rmap_base
    assert layer._rmap_huge == rmap_huge

    if layer._owner_counts is not None:
        counts: dict[int, dict[tuple[int, int], int]] = {}
        bits: dict[int, int] = {}
        for pfn, (client, vpn) in rmap_base.items():
            pregion = pfn // PAGES_PER_HUGE
            bucket = counts.setdefault(pregion, {})
            key = (client, vpn // PAGES_PER_HUGE)
            bucket[key] = bucket.get(key, 0) + 1
            bits[pregion] = bits.get(pregion, 0) | 1 << pfn % PAGES_PER_HUGE
        assert layer._owner_counts == counts
        assert layer._rmap_bits == bits
        for pregion in counts:
            assert layer.region_owner_counts(pregion) == counts[pregion]
            assert layer.rmap_bits(pregion) == bits[pregion]
            assert layer.base_owned_in_region(pregion) == sum(
                counts[pregion].values()
            )

    free = check_free_space(layer.memory)
    huge_frames = {
        frame
        for pregion in rmap_huge
        for frame in range(
            pregion * PAGES_PER_HUGE, (pregion + 1) * PAGES_PER_HUGE
        )
    }
    assert not free & rmap_base.keys()
    assert not free & huge_frames
    assert not huge_frames & rmap_base.keys()
    if held is not None:
        assert (
            len(free) + len(rmap_base) + len(huge_frames) + held
            == layer.memory.total_pages
        )
