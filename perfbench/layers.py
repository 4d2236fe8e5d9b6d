"""Which simulator entry points the traced run wraps, and under what name.

Each metric is named ``<layer>.<entry>``, where ``<layer>`` is the
``repro`` package the wrapped code lives in.  Gemini's policy scans live
in ``repro.core`` even when the method body is inherited from
``repro.policies``, so a scan is attributed by the class of the instance
it runs on.  ``build_segments`` and the migration halves are free
functions, wrapped in every module namespace that looks them up.

``PageTable.translate`` runs once per page (1.68M calls on the fleet
workload), so it is counted, not timed.
"""

from __future__ import annotations

import repro.cluster.engine as cluster_engine
import repro.cluster.host as cluster_host
import repro.sim.engine as sim_engine
from repro.cluster.host import Host
from repro.cluster.placement import PlacementPolicy
from repro.core.promoter import HostPromoter
from repro.core.runtime import GeminiRuntime
from repro.hypervisor.balloon import BalloonDriver
from repro.hypervisor.ksm import KsmDaemon
from repro.hypervisor.platform import Platform
from repro.mem.buddy import BuddyAllocator
from repro.mem.fragmentation import Fragmenter
from repro.mem.swap import SwapDevice
from repro.os.mm import MemoryLayer
from repro.paging.pagetable import PageTable
from repro.policies.base import HugePagePolicy
from repro.pressure.controller import PressureController
from repro.tlb.model import TLBModel
from repro.workloads.base import Workload

from tracer import Tracer, arg

__all__ = ["LAYERS", "SPANS", "COUNTED", "install", "layer_of"]

#: The simulator's layers, by package name.
LAYERS = (
    "hypervisor", "os", "mem", "paging", "tlb", "core",
    "policies", "pressure", "cluster", "sim", "workloads",
)


def _pages(name: str):
    def extra(counts, args, kwargs, result):
        counts[name] += arg(args, kwargs, 3, "npages")
    return extra


def _successes(name: str):
    def extra(counts, args, kwargs, result):
        counts[name] += bool(result)
    return extra


def _policy_layer(args: tuple) -> str:
    module = type(args[0]).__module__
    return "core.policy_scan" if module.startswith("repro.core") else "policies.scan"


def _count_frames(counts, args, kwargs, result):
    counts["mem.alloc_frames.frames"] += arg(args, kwargs, 1, "count")


def _count_promoted(counts, args, kwargs, result):
    counts["core.host_promoter.promoted"] += result


def _count_place_failures(counts, args, kwargs, result):
    counts["cluster.place.failed"] += result is None


#: Timed spans: (owner, attribute, name, extra counts, whole subclass tree?)
_SPAN_TABLE = (
    (Platform, "touch_range", "hypervisor.touch_range",
     _pages("hypervisor.touch_range.pages"), False),
    (BalloonDriver, "inflate", "hypervisor.balloon_inflate", None, False),
    (KsmDaemon, "scan", "hypervisor.ksm_scan", None, False),
    (MemoryLayer, "fault_range", "os.fault_range",
     _pages("os.fault_range.pages"), False),
    (MemoryLayer, "compact_region", "os.compact_region",
     _successes("os.compact_region.succeeded"), False),
    (MemoryLayer, "promote_with_migration", "os.promote_with_migration",
     _successes("os.promote_with_migration.succeeded"), False),
    (MemoryLayer, "release_client", "os.release_client", None, False),
    (PageTable, "map_base_run", "paging.map_base_run", None, False),
    (BuddyAllocator, "alloc_frames", "mem.alloc_frames", _count_frames, False),
    (BuddyAllocator, "free", "mem.free", None, False),
    (BuddyAllocator, "free_frames", "mem.free_frames", None, False),
    (Fragmenter, "fragment", "mem.fragment", None, False),
    (GeminiRuntime, "epoch", "core.runtime_epoch", None, False),
    (HugePagePolicy, "scan", _policy_layer, None, True),
    (PressureController, "run", "pressure.run", None, False),
    (cluster_engine, "migrate_out", "cluster.migrate", None, False),
    (cluster_engine, "migrate_in", "cluster.migrate", None, False),
    (Host, "step_epoch", "cluster.step_epoch", None, False),
    (sim_engine, "build_segments", "sim.build_segments", None, False),
    (cluster_host, "build_segments", "sim.build_segments", None, False),
    (TLBModel, "evaluate", "tlb.evaluate", None, False),
    (Workload, "run_epoch", "workloads.run_epoch", None, True),
)

#: Counted, untimed calls: (owner, attribute, name, extra counts).
_COUNTER_TABLE = (
    (PageTable, "translate", "paging.translate", None),
    (BuddyAllocator, "alloc", "mem.alloc", None),
    (SwapDevice, "swap_out", "mem.swap_out", None),
    (SwapDevice, "swap_in", "mem.swap_in", None),
    (HostPromoter, "run", "core.host_promoter", _count_promoted),
    (PlacementPolicy, "select", "cluster.place", _count_place_failures),
)

#: Every span name, in table order (each appears once).
SPANS = tuple(dict.fromkeys(
    name
    for _, _, names, _, _ in _SPAN_TABLE
    for name in ((names,) if isinstance(names, str) else ("core.policy_scan", "policies.scan"))
))

#: Every counter name -> the metric its call count is reported as.
COUNTED = {
    name: f"{name}.pages" if name.startswith("mem.swap") else f"{name}.calls"
    for _, _, name, _ in _COUNTER_TABLE
}


def layer_of(name: str) -> str:
    """The layer a span or counter name belongs to."""
    return name.split(".", 1)[0]


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point in the tables on *tracer*; undo with
    ``tracer.restore()``."""
    for owner, attr, name, extra, tree in _SPAN_TABLE:
        make = lambda fn, _n=name, _e=extra: tracer.span(fn, _n, _e)  # noqa: E731
        if tree:
            tracer.patch_tree(owner, attr, make)
        else:
            tracer.patch(owner, attr, make)
    for owner, attr, name, extra in _COUNTER_TABLE:
        tracer.patch(
            owner, attr, lambda fn, _n=name, _e=extra: tracer.counter(fn, _n, _e)
        )
    return tracer
