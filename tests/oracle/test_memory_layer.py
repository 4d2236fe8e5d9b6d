"""Lockstep oracle for :class:`~repro.os.mm.MemoryLayer`.

Random operation streams drive a real layer — span faults, batch frees,
run-level reverse-map updates, the teardown kernel — and a page-by-page
dict model of what each operation means.  The model picks nothing the
layer's allocator decides (which free frame a fault gets); it checks that
the layer's pick was free, and predicts everything else: which pages end
up mapped, which regions huge, which frames freed.  After every operation
the layer's tables must equal the model and the layer must pass the
conservation checks of :mod:`tests.oracle.checks`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.promoter import _iter_set_bits
from repro.mem.layout import PAGES_PER_HUGE
from repro.mem.physmem import PhysicalMemory
from repro.os.mm import MemoryLayer
from repro.policies.base import HugePagePolicy
from tests.oracle.checks import check_layer

#: Virtual regions the operations address, and physical regions backing
#: them: twice the virtual span, so no operation can run out of memory.
VREGIONS = 6
PREGIONS = 2 * VREGIONS + 2
CLIENTS = (0, 1)


class EvenRegionsHuge(HugePagePolicy):
    """Huge faults on even virtual regions, base faults elsewhere."""

    name = "even-huge"

    def wants_huge_fault(self, client, vregion):
        return vregion % 2 == 0


def frames(pregion: int) -> range:
    return range(pregion * PAGES_PER_HUGE, (pregion + 1) * PAGES_PER_HUGE)


class LayerModel:
    """What a layer's mappings must be, page by page."""

    def __init__(self, total: int, huge_faults: bool) -> None:
        self.total = total
        #: Does the policy take huge faults on even virtual regions?
        self.huge_faults = huge_faults
        self.base = {client: {} for client in CLIENTS}  # vpn -> pfn
        self.huge = {client: {} for client in CLIENTS}  # vregion -> pregion
        self.refs: dict[int, int] = {}
        #: Frames kept allocated after their last mapping went away
        #: (a shared frame's extra reference outlived it).
        self.held: set[int] = set()

    def used(self) -> set[int]:
        used = set(self.held)
        for client in CLIENTS:
            used.update(self.base[client].values())
            for pregion in self.huge[client].values():
                used.update(frames(pregion))
        return used

    def free_huge_region_exists(self) -> bool:
        used = self.used()
        return any(
            used.isdisjoint(frames(pregion))
            for pregion in range(self.total // PAGES_PER_HUGE)
        )

    def region_base(self, client: int, vregion: int) -> dict[int, int]:
        vbase = vregion * PAGES_PER_HUGE
        return {
            vpn: pfn
            for vpn, pfn in self.base[client].items()
            if vbase <= vpn < vbase + PAGES_PER_HUGE
        }

    def release(self, pfn: int) -> None:
        refs = self.refs.get(pfn)
        if refs is None:
            return
        if refs <= 1:
            del self.refs[pfn]
        else:
            self.refs[pfn] = refs - 1
        self.held.add(pfn)

    def mapped(self, client: int, vpn: int) -> bool:
        return (
            vpn in self.base[client]
            or vpn // PAGES_PER_HUGE in self.huge[client]
        )

    def demote(self, client: int, vregion: int) -> None:
        pregion = self.huge[client].pop(vregion, None)
        if pregion is None:
            return
        vbase = vregion * PAGES_PER_HUGE
        for offset, pfn in enumerate(frames(pregion)):
            self.base[client][vbase + offset] = pfn

    def unmap(self, client: int, start: int, npages: int) -> None:
        """Whole huge regions inside the range are freed, partly covered
        ones demoted first; base pages in the range are released."""
        end = start + npages
        for vregion in range(start // PAGES_PER_HUGE, (end - 1) // PAGES_PER_HUGE + 1):
            vbase = vregion * PAGES_PER_HUGE
            if start <= vbase and vbase + PAGES_PER_HUGE <= end:
                self.huge[client].pop(vregion, None)
            self.demote(client, vregion)
            for vpn in range(max(start, vbase), min(end, vbase + PAGES_PER_HUGE)):
                pfn = self.base[client].pop(vpn, None)
                if pfn is not None:
                    self.release(pfn)


def fault(layer: MemoryLayer, model: LayerModel, client: int, vpn: int) -> str:
    """Model one demand fault after the layer served it; returns the kind
    of fault the page triggered (the ``fault_range`` span kind)."""
    if model.mapped(client, vpn):
        return "mapped"
    vregion = vpn // PAGES_PER_HUGE
    table = layer.table(client)
    if (
        model.huge_faults
        and vregion % 2 == 0
        and not model.region_base(client, vregion)
        and model.free_huge_region_exists()
    ):
        pregion = table.huge_target(vregion)
        assert pregion is not None, "huge fault expected"
        assert model.used().isdisjoint(frames(pregion))
        model.huge[client][vregion] = pregion
        return "huge"
    pfn = table.translate(vpn)
    assert pfn is not None and not table.is_huge(vregion)
    assert pfn not in model.used(), "fault took an allocated frame"
    model.base[client][vpn] = pfn
    return "base"


def apply(layer: MemoryLayer, model: LayerModel, op, client, region, offset, span):
    vbase = region * PAGES_PER_HUGE
    vpn = vbase + offset
    if op == "fault":
        layer.fault(client, vpn)
        fault(layer, model, client, vpn)
    elif op == "fault_range":
        spans = layer.fault_range(client, vpn, span)
        kinds = [fault(layer, model, client, page) for page in range(vpn, vpn + span)]
        # Spans ascend, cover the range, and carry each page's trigger kind
        # (a huge span's tail pages were mapped by its first page).
        expected = []
        table = layer.table(client)
        for span_vpn, span_pfn, count, kind in spans:
            assert span_vpn == vpn + len(expected)
            for i in range(count):
                assert table.translate(span_vpn + i) == span_pfn + i
            tail = "mapped" if kind == "huge" else kind
            expected.extend([kind] + [tail] * (count - 1))
        assert expected == kinds
    elif op == "promote_mig":
        mappings = model.region_base(client, region)
        expect = (
            region not in model.huge[client]
            and bool(mappings)
            and model.free_huge_region_exists()
        )
        assert layer.promote_with_migration(client, region) == expect
        if expect:
            pregion = layer.table(client).huge_target(region)
            assert model.used().isdisjoint(frames(pregion))
            for page, pfn in mappings.items():
                del model.base[client][page]
                model.release(pfn)
            model.huge[client][region] = pregion
    elif op == "promote_inplace":
        mappings = model.region_base(client, region)
        pbase = mappings.get(vbase, -1)
        expect = (
            len(mappings) == PAGES_PER_HUGE
            and pbase % PAGES_PER_HUGE == 0
            and all(mappings[vbase + i] == pbase + i for i in range(PAGES_PER_HUGE))
        )
        assert layer.try_promote_in_place(client, region) == expect
        if expect:
            for page in mappings:
                del model.base[client][page]
            model.huge[client][region] = pbase // PAGES_PER_HUGE
    elif op == "demote":
        layer.demote(client, region)
        model.demote(client, region)
    elif op == "unmap_region":
        layer.unmap_range(client, vbase, PAGES_PER_HUGE)
        model.unmap(client, vbase, PAGES_PER_HUGE)
    elif op == "unmap_partial":
        layer.unmap_range(client, vpn, span)
        model.unmap(client, vpn, span)
    elif op == "share":
        # The lowest mapped frame of physical region *region* gains an
        # extra reference (a KSM merge without the second mapping).
        owned = sorted(
            pfn
            for pages in model.base.values()
            for pfn in pages.values()
            if pfn // PAGES_PER_HUGE == region
        )
        if owned:
            layer.add_frame_ref(owned[0])
            model.refs[owned[0]] = model.refs.get(owned[0], 0) + 1
    elif op == "release_client":
        layer.release_client(client)
        model.huge[client].clear()
        for pfn in model.base[client].values():
            model.release(pfn)
        model.base[client].clear()


def check(layer: MemoryLayer, model: LayerModel) -> None:
    for client in CLIENTS:
        base = huge = {}
        if layer.has_client(client):
            table = layer.table(client)
            base = dict(table.base_mappings())
            huge = dict(table.huge_mappings())
        assert base == model.base[client]
        assert huge == model.huge[client]
    assert dict(layer._frame_refs) == model.refs
    assert layer.memory.free_pages == model.total - len(model.used())
    check_layer(layer, held=len(model.held))
    # The promoter's snapshot walk visits exactly the reverse-mapped
    # frames of a region, in ascending order.
    for pregion in range(PREGIONS):
        start = pregion * PAGES_PER_HUGE
        assert list(_iter_set_bits(start, layer.rmap_bits(pregion))) == [
            frame
            for frame in range(start, start + PAGES_PER_HUGE)
            if layer.owner_of_frame(frame) is not None
        ]


#: Faults are weighted up so streams build populated regions for the
#: promotions, unmaps and teardowns to act on.
OP_NAMES = [
    "fault",
    "fault_range",
    "fault_range",
    "fault_range",
    "promote_mig",
    "promote_inplace",
    "demote",
    "unmap_region",
    "unmap_partial",
    "share",
    "release_client",
]

OPS = st.lists(
    st.tuples(
        st.sampled_from(OP_NAMES),
        st.sampled_from(CLIENTS),
        st.integers(min_value=0, max_value=VREGIONS - 3),
        st.sampled_from([0, 1, PAGES_PER_HUGE // 2, PAGES_PER_HUGE - 1])
        | st.integers(min_value=0, max_value=PAGES_PER_HUGE - 1),
        st.sampled_from([PAGES_PER_HUGE, 2 * PAGES_PER_HUGE])
        | st.integers(min_value=1, max_value=2 * PAGES_PER_HUGE),
    ),
    min_size=5,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS, huge=st.booleans(), indexed=st.booleans())
def test_layer_matches_page_model(ops, huge, indexed):
    policy = EvenRegionsHuge() if huge else HugePagePolicy()
    layer = MemoryLayer("oracle", PhysicalMemory(PREGIONS * PAGES_PER_HUGE), policy)
    layer.enable_owner_index()
    if indexed:
        for client in CLIENTS:
            layer.table(client).enable_index()
    model = LayerModel(layer.memory.total_pages, huge_faults=huge)
    for op in ops:
        apply(layer, model, *op)
        check(layer, model)
