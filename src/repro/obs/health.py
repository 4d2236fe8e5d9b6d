"""Online fleet-health watchdogs and the postmortem flight recorder.

The :class:`HealthMonitor` consumes the deterministic event stream as it
is buffered and runs a set of pluggable :class:`WatchdogRule`\\ s over
it.  Rule state is kept strictly per host stream, and findings are
stamped with the monitor's *own* per-host sequence counters, so the
resulting ``health.*`` events are bit-identical (by
:meth:`Event.identity`) across same-seed runs, and health emission never
perturbs the underlying streams' sequence numbers.

The :class:`FlightRecorder` turns a watchdog breach or an exception
escaping the run into a postmortem bundle on disk: the last-N buffered
events, the open-span stack with the ``(host, epoch)`` context, the run
configuration and the volume counters — enough to reconstruct what the
fleet was doing when things went wrong without re-running the
simulation.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from collections import deque
from contextlib import contextmanager

from repro import obs
from repro.obs.events import Event

__all__ = [
    "WatchdogRule",
    "WatermarkOscillationRule",
    "MigrationStormRule",
    "PromotionChurnRule",
    "SwapThrashRule",
    "PlacementFailureBurstRule",
    "DEFAULT_RULES",
    "HealthMonitor",
    "FlightRecorder",
    "summarize_health",
    "watch_health",
]


class WatchdogRule:
    """One health heuristic over a single host's event stream.

    Subclasses declare the event ``kinds`` they consume and implement
    :meth:`observe`, returning a fields dict to raise a finding or None
    to stay quiet.  The monitor instantiates one rule object per host
    stream, so instance state never mixes hosts — a finding on one host
    never depends on what the other hosts emitted.
    """

    #: ``health.<name>`` is the kind of the emitted finding.
    name = "generic"
    #: Event kinds routed to this rule.
    kinds: frozenset = frozenset()

    def observe(self, event: Event) -> dict | None:
        raise NotImplementedError


class WatermarkOscillationRule(WatchdogRule):
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


class MigrationStormRule(WatchdogRule):
    """Too many fleet migrations in a short epoch window — the
    consolidator is thrashing VMs between hosts."""

    name = "migration_storm"
    kinds = frozenset({"fleet.migrate"})

    def __init__(self, window: int = 4, threshold: int = 6) -> None:
        self.window = window
        self.threshold = threshold
        self._counts: deque[tuple[int, int]] = deque()
        self._fired_epoch: int | None = None

    def observe(self, event: Event) -> dict | None:
        epoch = event.epoch
        if epoch is None:
            return None
        if self._counts and self._counts[-1][0] == epoch:
            self._counts[-1] = (epoch, self._counts[-1][1] + 1)
        else:
            self._counts.append((epoch, 1))
        while self._counts and self._counts[0][0] <= epoch - self.window:
            self._counts.popleft()
        total = sum(count for _, count in self._counts)
        if total < self.threshold or self._fired_epoch == epoch:
            return None
        self._fired_epoch = epoch
        return {"migrations": total, "window_epochs": self.window}


class PromotionChurnRule(WatchdogRule):
    """Huge pages promoted and demoted back in the same epoch window —
    the coalescer and the pressure ladder are fighting each other."""

    name = "promotion_churn"
    kinds = frozenset({"promote.host", "pressure.demote"})

    def __init__(self, window: int = 4, threshold: int = 8) -> None:
        self.window = window
        self.threshold = threshold
        #: epoch -> [promoted, demoted]
        self._sums: deque[tuple[int, list]] = deque()
        self._fired_epoch: int | None = None

    def observe(self, event: Event) -> dict | None:
        epoch = event.epoch
        if epoch is None:
            return None
        fields = dict(event.fields)
        promoted = int(fields.get("promoted", 0))
        demoted = int(fields.get("aligned", 0))
        if self._sums and self._sums[-1][0] == epoch:
            sums = self._sums[-1][1]
        else:
            sums = [0, 0]
            self._sums.append((epoch, sums))
        sums[0] += promoted
        sums[1] += demoted
        while self._sums and self._sums[0][0] <= epoch - self.window:
            self._sums.popleft()
        promos = sum(entry[1][0] for entry in self._sums)
        demos = sum(entry[1][1] for entry in self._sums)
        if min(promos, demos) < self.threshold or self._fired_epoch == epoch:
            return None
        self._fired_epoch = epoch
        return {
            "promoted": promos,
            "demoted": demos,
            "window_epochs": self.window,
        }


class SwapThrashRule(WatchdogRule):
    """Pages swapped out and faulted straight back in — the victim
    policy is evicting the working set."""

    name = "swap_thrash"
    kinds = frozenset({"swap.out", "swap.in"})

    def __init__(self, window: int = 4, min_pages: int = 256) -> None:
        self.window = window
        self.min_pages = min_pages
        #: epoch -> [out_pages, in_pages]
        self._sums: deque[tuple[int, list]] = deque()
        self._fired_epoch: int | None = None

    def observe(self, event: Event) -> dict | None:
        epoch = event.epoch
        if epoch is None:
            return None
        pages = int(dict(event.fields).get("pages", 0))
        if self._sums and self._sums[-1][0] == epoch:
            sums = self._sums[-1][1]
        else:
            sums = [0, 0]
            self._sums.append((epoch, sums))
        sums[0 if event.kind == "swap.out" else 1] += pages
        while self._sums and self._sums[0][0] <= epoch - self.window:
            self._sums.popleft()
        out_pages = sum(entry[1][0] for entry in self._sums)
        in_pages = sum(entry[1][1] for entry in self._sums)
        if (min(out_pages, in_pages) < self.min_pages
                or self._fired_epoch == epoch):
            return None
        self._fired_epoch = epoch
        return {
            "out_pages": out_pages,
            "in_pages": in_pages,
            "window_epochs": self.window,
        }


class PlacementFailureBurstRule(WatchdogRule):
    """Repeated placement failures — the fleet has no headroom left and
    arrivals are bouncing."""

    name = "placement_failures"
    kinds = frozenset({"fleet.place_fail"})

    def __init__(self, window: int = 4, threshold: int = 3) -> None:
        self.window = window
        self.threshold = threshold
        self._epochs: deque[int] = deque()
        self._fired_epoch: int | None = None

    def observe(self, event: Event) -> dict | None:
        epoch = event.epoch
        if epoch is None:
            return None
        self._epochs.append(epoch)
        while self._epochs and self._epochs[0] <= epoch - self.window:
            self._epochs.popleft()
        if len(self._epochs) < self.threshold or self._fired_epoch == epoch:
            return None
        self._fired_epoch = epoch
        return {"failures": len(self._epochs), "window_epochs": self.window}


DEFAULT_RULES = (
    WatermarkOscillationRule,
    MigrationStormRule,
    PromotionChurnRule,
    SwapThrashRule,
    PlacementFailureBurstRule,
)


class HealthMonitor:
    """Routes the buffered event stream through per-host watchdog rules.

    Attach one to ``Telemetry.monitor`` (the engines do this when
    tracing is enabled).  Findings are emitted as ``health.<rule>``
    events appended to the same ring, with a *separate* per-host
    sequence space so the underlying streams keep their deterministic
    numbering.
    """

    def __init__(self, rules: tuple | None = None) -> None:
        self._factories = tuple(rules) if rules is not None else DEFAULT_RULES
        self._streams: dict[int | None, list[WatchdogRule]] = {}
        self._seqs: dict[int | None, int] = {}
        self.findings: list[Event] = []
        #: Optional callback invoked with each finding (flight recorder).
        self.on_breach = None

    def feed(self, telemetry, event: Event) -> None:
        """Observe one buffered event; may append ``health.*`` events."""
        if event.kind.startswith("health."):
            return
        rules = self._streams.get(event.host)
        if rules is None:
            rules = self._streams[event.host] = [
                factory() for factory in self._factories
            ]
        for rule in rules:
            if event.kind not in rule.kinds:
                continue
            fields = rule.observe(event)
            if fields is None:
                continue
            seq = self._seqs.get(event.host, 0) + 1
            self._seqs[event.host] = seq
            finding = Event(
                kind="health." + rule.name,
                host=event.host,
                epoch=event.epoch,
                seq=seq,
                wall=telemetry.clock.now(),
                fields=tuple(sorted(fields.items())),
            )
            telemetry.ring.emitted += 1
            telemetry.ring.append(finding)
            telemetry.count("health." + rule.name)
            self.findings.append(finding)
            if self.on_breach is not None:
                self.on_breach(finding)


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


class FlightRecorder:
    """Dumps a postmortem bundle when a watchdog fires or a run fails.

    Each bundle is a directory under *out_dir*::

        postmortem-00-<reason>/
            events.jsonl     last-N buffered events, oldest first
            open_spans.json  span stack + (host, epoch) context at dump
            report.json      reason, error, volume stats, counters
            config.json      the run configuration, when provided

    Dumps are bounded (``limit``) and deduplicated: one bundle per
    distinct health kind, one per distinct exception object.
    """

    def __init__(self, telemetry, out_dir, last_n: int = 512,
                 limit: int = 4) -> None:
        self.telemetry = telemetry
        self.out_dir = pathlib.Path(out_dir)
        self.last_n = last_n
        self.limit = limit
        self.bundles: list[pathlib.Path] = []
        self._reasons: set[str] = set()
        self._last_error: BaseException | None = None

    def breach(self, finding: Event, config=None) -> pathlib.Path | None:
        """Dump for a watchdog finding; one bundle per health kind."""
        if finding.kind in self._reasons:
            return None
        self._reasons.add(finding.kind)
        return self.dump(finding.kind.replace(".", "-"), config=config)

    def dump(self, reason: str, config=None,
             error: BaseException | None = None) -> pathlib.Path | None:
        if error is not None:
            if error is self._last_error:
                return None
            self._last_error = error
        if len(self.bundles) >= self.limit:
            return None
        telemetry = self.telemetry
        bundle = self.out_dir / f"postmortem-{len(self.bundles):02d}-{reason}"
        bundle.mkdir(parents=True, exist_ok=True)
        events = telemetry.events()[-self.last_n:]
        with open(bundle / "events.jsonl", "w", encoding="utf-8") as stream:
            for event in events:
                stream.write(event.to_json() + "\n")
        from repro.obs.telemetry import current_context

        host, epoch = current_context()
        _write_json(bundle / "open_spans.json", {
            "stack": [handle.name for handle in telemetry._span_stack],
            "context": {"host": host, "epoch": epoch},
        })
        _write_json(bundle / "report.json", {
            "reason": reason,
            "error": repr(error) if error is not None else None,
            "stats": telemetry.stats(),
            "counters": dict(telemetry.counters),
            "gauges": dict(telemetry.gauges),
        })
        if config is not None:
            payload = (
                dataclasses.asdict(config)
                if dataclasses.is_dataclass(config)
                and not isinstance(config, type)
                else config
            )
            _write_json(bundle / "config.json", payload)
        self.bundles.append(bundle)
        return bundle


@contextmanager
def watch_health(config):
    """Watch one engine run with the health monitor, when telemetry is on.

    Installs a :class:`HealthMonitor` unless one is already attached, and
    removes it again when the run ends.  With a trace directory
    configured, a :class:`FlightRecorder` dumps a bundle on watchdog
    breaches and on an exception escaping the run; the bundle's
    ``open_spans.json`` carries the ``(host, epoch)`` context the failure
    happened in.
    """
    telemetry = obs.get()
    if telemetry is None:
        yield
        return
    installed = telemetry.monitor is None
    if installed:
        telemetry.monitor = HealthMonitor()
    recorder = None
    out_dir = obs.trace_out_dir()
    if out_dir is not None:
        recorder = FlightRecorder(telemetry, out_dir)
        telemetry.monitor.on_breach = (
            lambda finding: recorder.breach(finding, config=config)
        )
    try:
        yield
    except BaseException as error:
        if recorder is not None:
            recorder.dump("exception", config=config, error=error)
        raise
    finally:
        if installed:
            telemetry.monitor = None


def _write_json(path: pathlib.Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True, default=str)
        stream.write("\n")
