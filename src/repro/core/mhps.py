"""Misaligned huge page scanner (MHPS, Section 4).

MHPS runs at the host layer.  It periodically scans the page tables of the
guest processes (for huge pages formed in the guest) and the VM page tables
(for huge pages formed in the host), labels each huge page with its layer,
guest-physical address and VM, and derives the two mis-alignment lists that
drive the rest of Gemini:

* *mis-aligned guest huge pages* — guest huge mappings whose guest-physical
  region is not backed by one huge EPT entry; the **host** should form a
  huge page there;
* *mis-aligned host huge pages* — huge EPT entries whose guest-physical
  region no guest huge page maps onto; the **guest** should form a huge
  page there.

The scanner shares results keyed by VM so each guest only sees its own
guest-physical addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.os.mm import PROCESS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.platform import Platform

__all__ = ["ScanResult", "MisalignedScanner"]


@dataclass
class ScanResult:
    """Mis-aligned huge pages found in one scan, keyed by VM id."""

    #: guest huge pages lacking huge host backing: vm -> [gpa region]
    misaligned_guest: dict[int, list[int]] = field(default_factory=dict)
    #: host huge pages lacking a guest huge page: vm -> [gpa region]
    misaligned_host: dict[int, list[int]] = field(default_factory=dict)
    #: guest-physical regions referenced by *current* guest mappings:
    #: vm -> {gpa region}.  EPT state persists after the guest frees
    #: memory, so the host cannot tell live regions from stale ones on its
    #: own; MHPS, which scans the guest page tables anyway, can.
    live_regions: dict[int, set[int]] = field(default_factory=dict)
    #: total huge mappings examined (scan-cost accounting)
    scanned: int = 0

    def guest_regions(self, vm_id: int) -> list[int]:
        return self.misaligned_guest.get(vm_id, [])

    def host_regions(self, vm_id: int) -> list[int]:
        return self.misaligned_host.get(vm_id, [])


class MisalignedScanner:
    """Periodic cross-layer page-table scanner."""

    def __init__(self, platform: "Platform") -> None:
        self.platform = platform
        self.scans = 0

    def scan(self) -> ScanResult:
        """One full pass over all guest page tables and EPTs."""
        result = ScanResult()
        for vm in self.platform.iter_vms():
            guest_table = vm.guest.table(PROCESS)
            ept = self.platform.ept(vm.id)
            guest_targets: set[int] = set()
            misaligned_guest: list[int] = []
            # The mis-aligned lists stay enumeration-based: their *order*
            # feeds the promoter queues (and thus the results), and
            # huge-mapping counts are small.  The lists also feed the
            # scanned total, which the cost model charges.
            for _, gpregion in guest_table.huge_mappings():
                guest_targets.add(gpregion)
                result.scanned += 1
                if not ept.is_huge(gpregion):
                    misaligned_guest.append(gpregion)
            misaligned_host: list[int] = []
            for gpregion, _ in ept.huge_mappings():
                result.scanned += 1
                if gpregion not in guest_targets:
                    misaligned_host.append(gpregion)
            if misaligned_guest:
                result.misaligned_guest[vm.id] = misaligned_guest
            if misaligned_host:
                result.misaligned_host[vm.id] = misaligned_host
            # Only membership in the live set matters downstream, so the
            # index's counter-maintained set replaces an O(base-mappings)
            # walk.
            result.live_regions[vm.id] = self.platform.index_of(vm).live_set()
        self.platform.host.charge_scan(result.scanned)
        self.scans += 1
        return result
