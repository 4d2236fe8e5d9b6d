"""Unified telemetry: spans, structured events and metrics.

``repro.obs`` is the observability layer the rest of the stack emits
into.  It is **off by default** and designed to cost nearly nothing
when disabled: every module-level helper checks one global and the
``span`` helper returns a shared no-op context manager, so instrumented
hot paths pay a dict-free attribute test per call.

Typical use::

    from repro import obs

    obs.enable()                      # or REPRO_TRACE=1 / --trace-out
    result = run_cluster(config)
    obs.export.export_run(obs.get(), "trace-out/")

Instrumented code does not guard its own emissions::

    with obs.span("epoch.scan"):
        ...
    obs.emit("booking.book", region=pregion)

Fleets step every host in the controller's process, so one registry
sees the whole fleet: each event carries the host it is attributed to,
and per-host sequence numbers keep every host's stream deterministic
(see docs/OBSERVABILITY.md).

Environment variables (read by :func:`configure_from_env`):

* ``REPRO_TRACE=1`` — enable telemetry.
* ``REPRO_TRACE_OUT=dir`` — enable and export to *dir* (CLI honours it).
* ``REPRO_TRACE_EVENTS=n`` — event ring capacity (default 65536).
* ``REPRO_TRACE_SAMPLE=r`` — event keep rate in (0, 1], default 1.0.
"""

from __future__ import annotations

import os

from repro.obs import analyze, export, health
from repro.obs.clock import Clock, ManualClock
from repro.obs.events import DEFAULT_CAPACITY, Event, EventRing
from repro.obs.telemetry import (
    Telemetry,
    clear_context,
    current_context,
    set_context,
)

__all__ = [
    "Clock",
    "ManualClock",
    "Event",
    "EventRing",
    "Telemetry",
    "DEFAULT_CAPACITY",
    "enabled",
    "enable",
    "disable",
    "get",
    "span",
    "emit",
    "emit_at",
    "count",
    "gauge",
    "observe",
    "set_context",
    "current_context",
    "clear_context",
    "configure_from_env",
    "trace_out_dir",
    "set_trace_out_dir",
    "export",
    "analyze",
    "health",
]

#: The process-wide registry; None means telemetry is disabled and all
#: helpers take their early-out path.
_active: Telemetry | None = None

#: Export directory requested via REPRO_TRACE_OUT / --trace-out.
_out_dir: str | None = None


class _NoopSpan:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def enabled() -> bool:
    """True when a telemetry registry is collecting."""
    return _active is not None


def get() -> Telemetry | None:
    """The active registry, or None when disabled."""
    return _active


def enable(
    telemetry: Telemetry | None = None,
    *,
    capacity: int | None = None,
    sample: float = 1.0,
    clock: Clock | None = None,
) -> Telemetry:
    """Install (and return) the process-wide telemetry registry.

    Pass a prebuilt *telemetry* to install it verbatim, or construction
    arguments for a fresh one.  Idempotent when already enabled and no
    arguments are given.
    """
    global _active
    if telemetry is not None:
        _active = telemetry
    elif _active is None or capacity is not None or clock is not None:
        _active = Telemetry(
            capacity=capacity if capacity is not None else DEFAULT_CAPACITY,
            sample=sample,
            clock=clock,
        )
    return _active


def disable() -> None:
    """Drop the registry; subsequent emissions become no-ops."""
    global _active
    _active = None


def span(name: str):
    """Timed section context manager; free no-op when disabled."""
    active = _active
    return active.span(name) if active is not None else _NOOP_SPAN


def emit(kind: str, **fields: object) -> None:
    """Record an event attributed to the current (host, epoch) context."""
    active = _active
    if active is not None:
        active.emit(kind, **fields)


def emit_at(kind: str, host: int | None, epoch: int | None,
            **fields: object) -> None:
    """Record an event with explicit host/epoch attribution."""
    active = _active
    if active is not None:
        active.emit_at(kind, host, epoch, **fields)


def count(name: str, value: float = 1.0) -> None:
    active = _active
    if active is not None:
        active.count(name, value)


def gauge(name: str, value: float) -> None:
    active = _active
    if active is not None:
        active.gauge(name, value)


def observe(name: str, value: float) -> None:
    active = _active
    if active is not None:
        active.observe(name, value)


def trace_out_dir() -> str | None:
    """The export directory requested via env/CLI, or None."""
    return _out_dir


def set_trace_out_dir(directory: str | None) -> None:
    global _out_dir
    _out_dir = directory or None


def configure_from_env(environ=os.environ) -> Telemetry | None:
    """Enable telemetry when the ``REPRO_TRACE*`` variables ask for it.

    ``REPRO_TRACE=1`` or a non-empty ``REPRO_TRACE_OUT`` enables
    collection; capacity and sampling come from ``REPRO_TRACE_EVENTS``
    and ``REPRO_TRACE_SAMPLE``.  Never *disables* an already-enabled
    registry.  Returns the active registry (or None).
    """
    out = environ.get("REPRO_TRACE_OUT", "").strip()
    flag = environ.get("REPRO_TRACE", "").strip().lower()
    wanted = bool(out) or flag in {"1", "true", "yes", "on"}
    if out:
        set_trace_out_dir(out)
    if not wanted:
        return _active
    capacity = int(environ.get("REPRO_TRACE_EVENTS", 0) or 0) or None
    sample = float(environ.get("REPRO_TRACE_SAMPLE", 0) or 1.0)
    if _active is None:
        return enable(capacity=capacity, sample=sample)
    return _active
