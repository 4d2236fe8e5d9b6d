"""Process-local telemetry registry: counters, spans and the event ring.

One :class:`Telemetry` instance lives per process (the ``repro.obs``
facade owns the singleton).  It collects four kinds of data:

* **counters / gauges / histograms** — named scalar metrics,
* **spans** — nested timed sections with self-time attribution,
* **events** — the structured decision stream (:mod:`repro.obs.events`),
* **context** — the ``(host, epoch)`` pair the emitting code is working
  on, tracked at module level whether or not a registry is collecting
  (postmortem bundles read it for attribution).
"""

from __future__ import annotations

import math

from repro.obs.clock import Clock
from repro.obs.events import DEFAULT_CAPACITY, Event, EventRing

__all__ = [
    "Telemetry",
    "set_context",
    "current_context",
    "clear_context",
]

#: Sentinel for "leave this context component unchanged".
_KEEP = object()

# The (host, epoch) the current process is working on.  Module-level —
# not per-Telemetry — so it outlives any one registry.
_context: list[int | None] = [None, None]


def set_context(host: object = _KEEP, epoch: object = _KEEP) -> None:
    """Update the process-local ``(host, epoch)`` attribution context.

    Omitted components keep their previous value; pass ``None``
    explicitly to clear one.
    """
    if host is not _KEEP:
        _context[0] = host  # type: ignore[assignment]
    if epoch is not _KEEP:
        _context[1] = epoch  # type: ignore[assignment]


def current_context() -> tuple[int | None, int | None]:
    """The process-local ``(host, epoch)`` pair."""
    return (_context[0], _context[1])


def clear_context() -> None:
    set_context(host=None, epoch=None)


class _SpanHandle:
    """Context manager for one timed section.

    Tracks accumulated child time so the owning :class:`Telemetry` can
    attribute *self* time (total minus children) per span name.
    """

    __slots__ = ("_telemetry", "name", "_start", "_child", "_depth")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self.name = name

    def __enter__(self) -> "_SpanHandle":
        telemetry = self._telemetry
        self._child = 0.0
        self._depth = len(telemetry._span_stack)
        telemetry._span_stack.append(self)
        self._start = telemetry.clock.now()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        telemetry = self._telemetry
        elapsed = telemetry.clock.now() - self._start
        telemetry._span_stack.pop()
        stat = telemetry._span_stats.get(self.name)
        if stat is None:
            stat = telemetry._span_stats[self.name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += self._child
        if telemetry._span_stack:
            telemetry._span_stack[-1]._child += elapsed
        if len(telemetry._span_trace) < telemetry.span_capacity:
            telemetry._span_trace.append(
                (self.name, _context[0], self._start, elapsed, self._depth)
            )
        else:
            telemetry.spans_dropped += 1
        return False


class Telemetry:
    """The per-process telemetry registry.

    Not thread-safe by design: the simulator is single-threaded.
    """

    #: Bound on per-histogram quantile samples.  When a reservoir fills
    #: up, every other sample is discarded and the keep-stride doubles —
    #: a deterministic decimation, so same-seed runs agree.
    RESERVOIR_CAP = 256

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sample: float = 1.0,
        clock: Clock | None = None,
        span_capacity: int = 20000,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.span_capacity = span_capacity
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: name -> [count, total, min, max, reservoir, stride]
        self._histograms: dict[str, list] = {}
        self._span_stack: list[_SpanHandle] = []
        #: name -> [count, total_s, child_s]
        self._span_stats: dict[str, list] = {}
        self._span_trace: list[tuple] = []
        self.spans_dropped = 0
        self.ring = EventRing(capacity, sample)
        #: Per-host event sequence counters.
        self._seqs: dict[int | None, int] = {}
        #: Optional online consumer of the event stream (a
        #: :class:`repro.obs.health.HealthMonitor`).  Fed every buffered
        #: event.
        self.monitor = None

    # -- scalar metrics ------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        stat = self._histograms.get(name)
        if stat is None:
            self._histograms[name] = [1, value, value, value, [value], 1]
            return
        stat[0] += 1
        stat[1] += value
        if value < stat[2]:
            stat[2] = value
        if value > stat[3]:
            stat[3] = value
        if (stat[0] - 1) % stat[5] == 0:
            stat[4].append(value)
            if len(stat[4]) > self.RESERVOIR_CAP:
                del stat[4][1::2]
                stat[5] *= 2

    def histogram(self, name: str) -> tuple[int, float, float, float] | None:
        """``(count, total, min, max)`` for *name*, or None."""
        stat = self._histograms.get(name)
        return tuple(stat[:4]) if stat is not None else None

    def quantiles(
        self, name: str, qs: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[float, float] | None:
        """Approximate quantiles from the bounded reservoir, or None.

        Nearest-rank over the kept samples; exact while fewer than
        ``RESERVOIR_CAP`` values have been observed.
        """
        stat = self._histograms.get(name)
        if stat is None or not stat[4]:
            return None
        samples = sorted(stat[4])
        top = len(samples) - 1
        return {
            q: samples[min(top, max(0, math.ceil(q * len(samples)) - 1))]
            for q in qs
        }

    def histogram_summary(self) -> dict[str, dict[str, float]]:
        """Per-name histogram roll-up including p50/p95/p99."""
        out: dict[str, dict[str, float]] = {}
        for name, stat in self._histograms.items():
            quantiles = self.quantiles(name) or {}
            out[name] = {
                "count": stat[0],
                "mean": stat[1] / stat[0] if stat[0] else 0.0,
                "min": stat[2],
                "max": stat[3],
                "p50": quantiles.get(0.5, stat[3]),
                "p95": quantiles.get(0.95, stat[3]),
                "p99": quantiles.get(0.99, stat[3]),
            }
        return out

    # -- spans ---------------------------------------------------------

    def span(self, name: str) -> _SpanHandle:
        return _SpanHandle(self, name)

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per-name span summary: count, total and self seconds."""
        return {
            name: {
                "count": stat[0],
                "total_s": stat[1],
                "self_s": max(0.0, stat[1] - stat[2]),
            }
            for name, stat in self._span_stats.items()
        }

    def span_trace(self) -> list[tuple]:
        """``(name, host, start_s, duration_s, depth)`` per closed span."""
        return list(self._span_trace)

    # -- events --------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> None:
        """Record an event attributed to the current (host, epoch)."""
        self.emit_at(kind, _context[0], _context[1], **fields)

    def emit_at(
        self,
        kind: str,
        host: int | None,
        epoch: int | None,
        **fields: object,
    ) -> None:
        """Record an event with explicit attribution.

        The per-host sequence number advances even for sampled-out
        events, so sampling never perturbs the deterministic ordering
        of the events that *are* kept.
        """
        seq = self._seqs.get(host, 0) + 1
        self._seqs[host] = seq
        if not self.ring.want(kind, host):
            return
        event = Event(
            kind=kind,
            host=host,
            epoch=epoch,
            seq=seq,
            wall=self.clock.now(),
            fields=tuple(sorted(fields.items())),
        )
        self.ring.append(event)
        if self.monitor is not None:
            self.monitor.feed(self, event)

    def events(self) -> list[Event]:
        return self.ring.events()

    def stats(self) -> dict[str, object]:
        """Volume accounting for reports and overhead checks."""
        return {
            "events_emitted": self.ring.emitted,
            "events_sampled": self.ring.sampled,
            "events_dropped": self.ring.dropped,
            "events_buffered": len(self.ring),
            "spans_closed": sum(s[0] for s in self._span_stats.values()),
            "spans_dropped": self.spans_dropped,
        }
