"""Telemetry registry: counters, spans and the event ring.

The ``repro.obs`` facade installs one :class:`Telemetry` instance as the
active registry; tests may build their own.  It collects three kinds of
data:

* **counters** — named scalar totals,
* **spans** — nested timed sections with self-time attribution,
* **events** — the structured decision stream (:mod:`repro.obs.events`),

plus the **context** — the ``(host, epoch)`` pair the emitting code is
working on, tracked at module level whether or not a registry is
collecting (the engines name it on an exception escaping a run).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.clock import Clock
from repro.obs.events import DEFAULT_CAPACITY, Event, EventRing

__all__ = [
    "Telemetry",
    "set_context",
    "current_context",
    "clear_context",
    "note_context",
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


@contextmanager
def note_context():
    """Name the ``(host, epoch)`` context on any exception escaping the
    block, so a failed run says where it failed, traced or not."""
    try:
        yield
    except BaseException as error:
        error.add_note(f"raised at host={_context[0]} epoch={_context[1]}")
        raise


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
    """One telemetry registry: counters, spans and the event ring.

    Not thread-safe by design: the simulator is single-threaded.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Clock | None = None,
        span_capacity: int = 20000,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.span_capacity = span_capacity
        self.counters: dict[str, float] = {}
        self._span_stack: list[_SpanHandle] = []
        #: name -> [count, total_s, child_s]
        self._span_stats: dict[str, list] = {}
        self._span_trace: list[tuple] = []
        self.spans_dropped = 0
        self.ring = EventRing(capacity)
        #: Per-host event sequence counters.
        self._seqs: dict[int | None, int] = {}

    # -- counters ------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

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
        """Record an event with explicit attribution."""
        seq = self._seqs.get(host, 0) + 1
        self._seqs[host] = seq
        self.ring.append(Event(
            kind=kind,
            host=host,
            epoch=epoch,
            seq=seq,
            wall=self.clock.now(),
            fields=tuple(sorted(fields.items())),
        ))

    def events(self) -> list[Event]:
        return self.ring.events()

    def stats(self) -> dict[str, object]:
        """Volume accounting for reports and overhead checks."""
        return {
            "events_emitted": self.ring.emitted,
            "events_dropped": self.ring.dropped,
            "events_buffered": len(self.ring),
            "spans_closed": sum(s[0] for s in self._span_stats.values()),
            "spans_dropped": self.spans_dropped,
        }
