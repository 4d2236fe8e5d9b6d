"""Pluggable VM placement policies.

Placement decides which host receives an arriving (or migrating) VM.  On
long-lived clouds this decision feeds directly into the paper's problem:
hosts accumulate fragmentation as tenants churn, and a VM landed on a
host with no aligned free contiguity can never be backed by well-aligned
huge pages, no matter how hard the coalescing policy works afterwards.

Policies are registered by name in :data:`PLACEMENTS` — the same
string-keyed registry idiom as :mod:`repro.policies.registry` — and are
instantiated via :func:`make_placement`.  Every policy is deterministic
(ties break toward the lowest host index) and decides from
:class:`~repro.cluster.host.HostView` snapshots, never from live host
objects.

Feasibility is commitment-based: guests fault their memory lazily, so a
host that *looks* empty (high ``free_pages``) may be fully spoken for;
``available_pages`` is what the scheduler can still promise.

The interesting entry is :class:`AlignmentAwarePlacement`, which consults
each host's buddy allocator summary (free pages sitting in huge-aligned
blocks) and its per-VM :class:`~repro.paging.index.VMTranslationIndex`
reports (how many already-mapped huge pages are misaligned) to land the
VM where well-aligned backing is most available.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.host import HostView

__all__ = [
    "PLACEMENTS",
    "AlignmentAwarePlacement",
    "BestFitPlacement",
    "ContiguityFitPlacement",
    "FirstFitPlacement",
    "PlacementPolicy",
    "WorstFitPlacement",
    "make_placement",
    "placement_names",
]


class PlacementPolicy:
    """Base class: filter feasible hosts, then ``choose`` among them."""

    name = "base"

    def select(
        self,
        views: Sequence["HostView"],
        pages_needed: int,
        exclude: frozenset[int] = frozenset(),
    ) -> int | None:
        """Index of the chosen host, or None when no host fits."""
        # Hosts at critical memory pressure (signal saturated at 1.0) are
        # infeasible regardless of their commitment-based capacity: their
        # physical memory is exhausted and they are actively swapping.
        candidates = [
            view
            for view in views
            if view.index not in exclude
            and view.available_pages >= pages_needed
            and view.pressure < 1.0
        ]
        if not candidates:
            obs.emit_at(
                "placement.select",
                None,
                None,
                policy=self.name,
                candidates=0,
                pages_needed=pages_needed,
                chosen=None,
            )
            return None
        chosen = self.choose(candidates, pages_needed).index
        # Placement always runs on the controller; explicit attribution
        # keeps it off whichever host stepped last.
        obs.emit_at(
            "placement.select",
            None,
            None,
            policy=self.name,
            candidates=len(candidates),
            pages_needed=pages_needed,
            chosen=chosen,
        )
        return chosen

    def choose(
        self, candidates: list["HostView"], pages_needed: int
    ) -> "HostView":
        raise NotImplementedError


class FirstFitPlacement(PlacementPolicy):
    """Lowest-indexed host with room — the packing baseline."""

    name = "first-fit"

    def choose(
        self, candidates: list["HostView"], pages_needed: int
    ) -> "HostView":
        return min(candidates, key=lambda view: view.index)


class BestFitPlacement(PlacementPolicy):
    """Tightest fit: the feasible host with the least capacity left."""

    name = "best-fit"

    def choose(
        self, candidates: list["HostView"], pages_needed: int
    ) -> "HostView":
        return min(candidates, key=lambda view: (view.available_pages, view.index))


class WorstFitPlacement(PlacementPolicy):
    """Spread load: the host with the most capacity left."""

    name = "worst-fit"

    def choose(
        self, candidates: list["HostView"], pages_needed: int
    ) -> "HostView":
        return min(candidates, key=lambda view: (-view.available_pages, view.index))


class ContiguityFitPlacement(PlacementPolicy):
    """Best free contiguity: the host with the largest free region.

    A crude alignment proxy — one giant hole beats the same page count
    shredded into 4 KiB islands — but blind to alignment within the hole
    and to how fragmented the rest of the host already is.
    """

    name = "contiguity-fit"

    def choose(
        self, candidates: list["HostView"], pages_needed: int
    ) -> "HostView":
        return min(
            candidates, key=lambda view: (-view.largest_free_region, view.index)
        )


class AlignmentAwarePlacement(PlacementPolicy):
    """Place where well-aligned huge-page backing is most attainable.

    Three signals, all from the host views:

    * free pages in huge-aligned buddy blocks (the host allocator's
      region summary) — capacity for *new* aligned backing;
    * the resident VM count — the host coalescing policy's fault and
      scan budgets are per *host*, so every collocated tenant dilutes
      how fast any one VM's regions get huge backing (the khugepaged
      starvation the paper motivates with);
    * huge pages the host's translation indices already report as
      misaligned — standing misalignment marks a fragmented host whose
      coalescing is fighting uphill, and new tenants will inherit that.

    Contention dominates capacity (a starved coalescer never uses the
    contiguity it has), so the policy is lexicographic: fewest resident
    VMs first, then the largest alignment score — aligned free capacity
    minus the misalignment penalty.
    """

    name = "alignment-aware"

    #: Weight of one misaligned huge page against one free aligned page.
    misaligned_penalty_pages = 64
    #: Full-scale memory-pressure penalty (in free-aligned-page units): a
    #: pressured host is about to balloon/swap its way through the very
    #: contiguity the score is counting.  Zero on unpressured fleets.
    pressure_penalty_pages = 4096

    def score(self, view: "HostView") -> int:
        return (
            view.aligned_free_pages
            - self.misaligned_penalty_pages * view.misaligned_huge
            - int(self.pressure_penalty_pages * view.pressure)
        )

    def choose(
        self, candidates: list["HostView"], pages_needed: int
    ) -> "HostView":
        return min(
            candidates,
            key=lambda view: (view.vms, -self.score(view), view.index),
        )


PLACEMENTS: dict[str, type[PlacementPolicy]] = {
    policy.name: policy
    for policy in (
        FirstFitPlacement,
        BestFitPlacement,
        WorstFitPlacement,
        ContiguityFitPlacement,
        AlignmentAwarePlacement,
    )
}


def placement_names() -> list[str]:
    return list(PLACEMENTS)


def make_placement(name: str) -> PlacementPolicy:
    try:
        return PLACEMENTS[name]()
    except KeyError:
        raise ValueError(
            f"unknown placement {name!r}; choose from {', '.join(PLACEMENTS)}"
        ) from None
