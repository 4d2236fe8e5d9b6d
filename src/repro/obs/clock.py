"""Clocks for the telemetry layer.

Telemetry records carry two notions of time: a *wall* reading (used for
span durations and trace timestamps) and a deterministic *virtual*
ordering (per-host sequence numbers assigned by the
:class:`~repro.obs.telemetry.Telemetry` registry).  The wall source is
injectable so tests can pin it to a constant and diff event streams
byte for byte.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Clock", "ManualClock"]


class Clock:
    """Monotonic wall-time source with an injectable reading function.

    The default reads :func:`time.perf_counter`; pass ``wall=lambda: 0.0``
    for fully deterministic traces.
    """

    __slots__ = ("wall",)

    def __init__(self, wall: Callable[[], float] | None = None) -> None:
        self.wall = wall if wall is not None else time.perf_counter

    def now(self) -> float:
        return self.wall()


class ManualClock(Clock):
    """Deterministic clock that advances by a fixed step per reading.

    Each ``now()`` call returns ``start + step * calls`` so successive
    readings are distinct but reproducible — spans get non-zero,
    machine-independent durations.
    """

    __slots__ = ("_next", "_step")

    def __init__(self, start: float = 0.0, step: float = 1e-6) -> None:
        super().__init__(wall=self._advance)
        self._next = start
        self._step = step

    def _advance(self) -> float:
        reading = self._next
        self._next += self._step
        return reading
