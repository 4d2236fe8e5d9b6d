"""OS allocation noise.

Real systems never give a workload a pristine allocation stream: kernel
slabs, page cache, and other processes interleave small allocations with
the workload's demand faults, shifting its physical placement off huge
boundaries.  This entropy is one of the reasons uncoordinated page
coalescing aligns huge pages "largely by chance" (Section 2.3); without it
a clean simulator would make every baseline look artificially well-aligned.

The :class:`NoiseAgent` hooks the platform's fault path: after roughly one
in ``1/rate`` demand faults it allocates one small object at the faulting
layer (guest-physical for guest faults, host-physical always) and
randomly frees previously-held objects, producing the scattered-hole
pattern of mixed allocation streams.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING

from repro.mem.buddy import AllocationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.platform import Platform
    from repro.hypervisor.vm import VM

__all__ = ["NoiseAgent"]


class NoiseAgent:
    """Small kernel-style allocations interleaved with workload faults."""

    def __init__(
        self,
        platform: "Platform",
        rate: float = 0.03,
        free_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"noise rate out of [0, 1]: {rate}")
        if not 0.0 <= free_fraction <= 1.0:
            raise ValueError(f"free fraction out of [0, 1]: {free_fraction}")
        self.platform = platform
        self.rate = rate
        self.free_fraction = free_fraction
        self._rng = random.Random(seed)
        self._guest_held: dict[int, list[int]] = {}
        self._host_held: list[int] = []
        #: Current "unmovable pageblock" per arena, keyed by a stable arena
        #: tag (``("host",)`` or ``("guest", vm_id)`` — NOT ``id(memory)``,
        #: which changes across pickling and from run to run): like Linux's
        #: migrate-type grouping, kernel-style allocations are clustered
        #: into dedicated 2 MiB blocks instead of splintering movable
        #: regions, so noise destroys few huge regions.
        self._blocks: dict[tuple, list[int]] = {}
        #: Transient allocations: short-lived objects (stack pages, network
        #: buffers, slab churn) that briefly claim the next free frame and
        #: release it a few faults later.  They do not occupy memory for
        #: long, but they shift the phase of the workload's sequential
        #: allocation stream — the entropy that makes naive policies'
        #: physical layouts mis-aligned "largely by chance" (Section 2.3).
        self._transient: dict[tuple, list[int]] = {}
        self.transient_hold = 24
        #: Pre-drawn per-fault gate bits (True = this fault triggers noise),
        #: in fault order.  :meth:`act_horizon` fills the queue so batched
        #: fault delivery can prove a noise-free window without perturbing
        #: the RNG stream; :meth:`on_fault` drains it before drawing fresh.
        self._pending: deque[bool] = deque()
        self.allocations = 0

    def install(self) -> None:
        # The agent itself is the hook (not the bound method) so the
        # platform can discover ``act_horizon`` on the hook object.
        self.platform.fault_hook = self

    def __call__(self, vm: "VM") -> None:
        self.on_fault(vm)

    def act_horizon(self, limit: int) -> int:
        """How many upcoming fault notifications, up to *limit*, are
        guaranteed not to trigger noise.

        Gate bits are drawn in fault order and queued; drawing stops at the
        first acting fault so the noise body's own RNG consumption stays in
        its per-fault position.  The result is that delivering the next
        ``act_horizon(n)`` faults as a batch consumes the exact random
        stream per-fault delivery would.
        """
        horizon = 0
        for acts in self._pending:
            if acts:
                return horizon
            horizon += 1
            if horizon >= limit:
                return horizon
        while horizon < limit:
            acts = self._rng.random() < self.rate
            self._pending.append(acts)
            if acts:
                return horizon
            horizon += 1
        return horizon

    def on_fault(self, vm: "VM") -> None:
        if self._pending:
            acts = self._pending.popleft()
        else:
            acts = self._rng.random() < self.rate
        if not acts:
            return
        self.allocations += 1
        guest_key = ("guest", vm.id)
        self._noise_alloc(
            vm.gpa_space, guest_key, self._guest_held.setdefault(vm.id, [])
        )
        self._noise_alloc(self.platform.memory, ("host",), self._host_held)
        self._transient_alloc(vm.gpa_space, guest_key)
        self._transient_alloc(self.platform.memory, ("host",))

    def forget_vm(self, vm_id: int) -> None:
        """Drop per-VM noise state when the VM leaves this platform.

        The held guest frames live inside the VM's own guest-physical
        space, which travels with it, so they are simply forgotten (not
        freed) here.
        """
        self._guest_held.pop(vm_id, None)
        self._blocks.pop(("guest", vm_id), None)
        self._transient.pop(("guest", vm_id), None)

    def _transient_alloc(self, memory, key: tuple) -> None:
        fifo = self._transient.setdefault(key, [])
        try:
            fifo.append(memory.alloc(0))
        except AllocationError:
            return
        while len(fifo) > self.transient_hold:
            memory.free(fifo.pop(0), 0)

    def _noise_alloc(self, memory, key: tuple, held: list[int]) -> None:
        frame = self._alloc_clustered(memory, key)
        if frame is not None:
            held.append(frame)
        # Free a random earlier object with probability free_fraction:
        # noise memory churns rather than monotonically growing.
        if held and self._rng.random() < self.free_fraction:
            index = self._rng.randrange(len(held))
            memory.free(held.pop(index), 0)

    def _alloc_clustered(self, memory, key: tuple) -> int | None:
        """Allocate one frame from the arena's current unmovable block."""
        block = self._blocks.get(key, [])
        if not block:
            # Claim a fresh pageblock for unmovable allocations; fall back
            # to single-frame allocation when no whole block is free.
            from repro.mem.layout import HUGE_ORDER, PAGES_PER_HUGE

            try:
                start = memory.alloc(HUGE_ORDER)
            except AllocationError:
                try:
                    return memory.alloc(0)
                except AllocationError:
                    return None
            block = list(range(start, start + PAGES_PER_HUGE))
        frame = block.pop(0)
        self._blocks[key] = block
        return frame

    @property
    def held_pages(self) -> int:
        guest = sum(len(frames) for frames in self._guest_held.values())
        return guest + len(self._host_held)
