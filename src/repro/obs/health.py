"""Fleet-health watchdogs: an offline pass over the event stream.

:func:`findings` replays a run's events — live from a registry or read
back from an exported ``events.jsonl`` — through five deterministic
rules.  Events are grouped by host and replayed in ``seq`` order with
fresh rule state per host, so a finding on one host never depends on
what the other hosts emitted.  Each finding is a ``health.<rule>``
:class:`Event` carrying the host and epoch it fired in and its own
per-host sequence number (1, 2, …), so same-seed runs yield identical
findings.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.obs.events import Event

__all__ = ["DEFAULT_RULES", "findings", "summarize_health"]


class _EpochWindow:
    """Per-epoch sums over the last ``window`` epochs, with a guard that
    lets a rule fire at most once per epoch."""

    def __init__(self, window: int) -> None:
        self.window = window
        self._sums: deque[tuple[int, list[int]]] = deque()
        self._fired_epoch: int | None = None

    def add(self, epoch: int, *values: int) -> list[int]:
        """Add *values* to *epoch*'s sums; return the window totals."""
        if self._sums and self._sums[-1][0] == epoch:
            sums = self._sums[-1][1]
        else:
            sums = [0] * len(values)
            self._sums.append((epoch, sums))
        for index, value in enumerate(values):
            sums[index] += value
        while self._sums[0][0] <= epoch - self.window:
            self._sums.popleft()
        return [sum(column) for column in zip(*(s for _, s in self._sums))]

    def fire(self, epoch: int, breached: bool) -> bool:
        """True when *breached* and the rule has not fired this epoch."""
        if not breached or self._fired_epoch == epoch:
            return False
        self._fired_epoch = epoch
        return True


class WatermarkOscillationRule:
    """Pressure watermark flapping: the ladder repeatedly engages and
    disengages instead of settling.  Counts pressured/ok transitions
    within a sliding epoch window."""

    name = "watermark_oscillation"
    kinds = frozenset({"pressure.watermark"})

    def __init__(self, window: int = 8, flips: int = 3) -> None:
        self.window = window
        self.flips = flips
        self._pressured: bool | None = None
        self._edges: deque[int] = deque()

    def observe(self, event: Event) -> dict | None:
        level = dict(event.fields).get("level", "ok")
        pressured = level != "ok"
        flipped = self._pressured is not None and pressured != self._pressured
        self._pressured = pressured
        if not flipped or event.epoch is None:
            return None
        self._edges.append(event.epoch)
        while self._edges and self._edges[0] < event.epoch - self.window:
            self._edges.popleft()
        if len(self._edges) < self.flips:
            return None
        flips = len(self._edges)
        self._edges.clear()
        return {"flips": flips, "window_epochs": self.window}


class MigrationStormRule:
    """Too many fleet migrations in a short epoch window — the
    consolidator is thrashing VMs between hosts."""

    name = "migration_storm"
    kinds = frozenset({"fleet.migrate"})

    def __init__(self, window: int = 4, threshold: int = 6) -> None:
        self._window = _EpochWindow(window)
        self.threshold = threshold

    def observe(self, event: Event) -> dict | None:
        epoch = event.epoch
        if epoch is None:
            return None
        (total,) = self._window.add(epoch, 1)
        if not self._window.fire(epoch, total >= self.threshold):
            return None
        return {"migrations": total, "window_epochs": self._window.window}


class PromotionChurnRule:
    """Huge pages promoted and demoted back in the same epoch window —
    the coalescer and the pressure ladder are fighting each other."""

    name = "promotion_churn"
    kinds = frozenset({"promote.host", "pressure.demote"})

    def __init__(self, window: int = 4, threshold: int = 8) -> None:
        self._window = _EpochWindow(window)
        self.threshold = threshold

    def observe(self, event: Event) -> dict | None:
        epoch = event.epoch
        if epoch is None:
            return None
        fields = dict(event.fields)
        promos, demos = self._window.add(
            epoch, int(fields.get("promoted", 0)), int(fields.get("aligned", 0))
        )
        if not self._window.fire(epoch, min(promos, demos) >= self.threshold):
            return None
        return {
            "promoted": promos,
            "demoted": demos,
            "window_epochs": self._window.window,
        }


class SwapThrashRule:
    """Pages swapped out and faulted straight back in — the victim
    policy is evicting the working set."""

    name = "swap_thrash"
    kinds = frozenset({"swap.out", "swap.in"})

    def __init__(self, window: int = 4, min_pages: int = 256) -> None:
        self._window = _EpochWindow(window)
        self.min_pages = min_pages

    def observe(self, event: Event) -> dict | None:
        epoch = event.epoch
        if epoch is None:
            return None
        pages = int(dict(event.fields).get("pages", 0))
        swapped_out = event.kind == "swap.out"
        out_pages, in_pages = self._window.add(
            epoch, pages if swapped_out else 0, 0 if swapped_out else pages
        )
        breached = min(out_pages, in_pages) >= self.min_pages
        if not self._window.fire(epoch, breached):
            return None
        return {
            "out_pages": out_pages,
            "in_pages": in_pages,
            "window_epochs": self._window.window,
        }


class PlacementFailureBurstRule:
    """Repeated placement failures — the fleet has no headroom left and
    arrivals are bouncing."""

    name = "placement_failures"
    kinds = frozenset({"fleet.place_fail"})

    def __init__(self, window: int = 4, threshold: int = 3) -> None:
        self._window = _EpochWindow(window)
        self.threshold = threshold

    def observe(self, event: Event) -> dict | None:
        epoch = event.epoch
        if epoch is None:
            return None
        (failures,) = self._window.add(epoch, 1)
        if not self._window.fire(epoch, failures >= self.threshold):
            return None
        return {"failures": failures, "window_epochs": self._window.window}


#: The watchdogs, in the order they see each event.  Their ``kinds`` are
#: disjoint, so at most one rule reads any one event.
DEFAULT_RULES = (
    WatermarkOscillationRule,
    MigrationStormRule,
    PromotionChurnRule,
    SwapThrashRule,
    PlacementFailureBurstRule,
)


def findings(events: Iterable[Event]) -> list[Event]:
    """Replay the watchdogs over *events*; return their findings.

    Findings come host by host (the controller, ``host=None``, last),
    each host's in the order its events fired them.  A finding's
    ``wall`` is that of the event that fired it.
    """
    streams: dict[int | None, list[Event]] = {}
    for event in events:
        streams.setdefault(event.host, []).append(event)
    out: list[Event] = []
    for host in sorted(streams, key=lambda h: (h is None, h)):
        rules = [rule() for rule in DEFAULT_RULES]
        seq = 0
        for event in sorted(streams[host], key=lambda e: e.seq):
            for rule in rules:
                if event.kind not in rule.kinds:
                    continue
                fields = rule.observe(event)
                if fields is None:
                    continue
                seq += 1
                out.append(Event(
                    kind="health." + rule.name,
                    host=host,
                    epoch=event.epoch,
                    seq=seq,
                    wall=event.wall,
                    fields=tuple(sorted(fields.items())),
                ))
    return out


def summarize_health(events) -> dict[str, dict]:
    """Roll ``health.*`` events up per kind: count and affected hosts."""
    out: dict[str, dict] = {}
    for event in events:
        if not event.kind.startswith("health."):
            continue
        entry = out.setdefault(event.kind, {"count": 0, "hosts": set()})
        entry["count"] += 1
        entry["hosts"].add(event.host)
    for entry in out.values():
        entry["hosts"] = sorted(
            entry["hosts"], key=lambda h: (h is None, h)
        )
    return out
