"""Structured events and the bounded ring that stores them.

An :class:`Event` is one typed decision record — a booking, a promotion
round, a placement choice, a migration — stamped with its emitting host,
epoch, a per-host sequence number and a wall reading.  The sequence
number is the *deterministic* ordering: two runs of the same fleet and
seed produce identical per-host sequences, so :meth:`Event.identity`
(which drops the wall reading) is the comparison key for run-to-run
equivalence (``repro diff --strict``).

The :class:`EventRing` bounds memory with a drop-oldest deque.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Mapping

__all__ = ["Event", "EventRing", "DEFAULT_CAPACITY"]

#: Default ring capacity; roughly an hour of fleet epochs at the default
#: emission rate, a few MiB of records.
DEFAULT_CAPACITY = 65536

#: Top-level JSON keys reserved for the envelope; ``fields`` may not
#: shadow them.
_RESERVED = frozenset({"kind", "host", "epoch", "seq", "wall"})


@dataclass(frozen=True)
class Event:
    """One immutable telemetry record.

    ``fields`` is a sorted tuple of ``(name, value)`` pairs so events
    hash and compare structurally; values must be JSON-representable
    scalars (or short tuples) — exporters serialise them as-is.
    """

    kind: str
    host: int | None
    epoch: int | None
    seq: int
    wall: float
    fields: tuple[tuple[str, object], ...] = ()

    def identity(self) -> tuple:
        """Comparison key that ignores wall time.

        Two runs of the same fleet and seed agree on this key
        event-for-event (per host); only the wall reading differs.
        """
        return (self.host, self.epoch, self.seq, self.kind, self.fields)

    def to_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "kind": self.kind,
            "host": self.host,
            "epoch": self.epoch,
            "seq": self.seq,
            "wall": self.wall,
        }
        for name, value in self.fields:
            record[name] = value
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "Event":
        fields = tuple(
            sorted(
                (name, _revive(value))
                for name, value in record.items()
                if name not in _RESERVED
            )
        )
        return cls(
            kind=str(record["kind"]),
            host=record.get("host"),  # type: ignore[arg-type]
            epoch=record.get("epoch"),  # type: ignore[arg-type]
            seq=int(record.get("seq", 0)),  # type: ignore[arg-type]
            wall=float(record.get("wall", 0.0)),  # type: ignore[arg-type]
            fields=fields,
        )

    @classmethod
    def from_json(cls, text: str) -> "Event":
        return cls.from_dict(json.loads(text))


def _revive(value: object) -> object:
    """Restore tuple field values that JSON round-tripped as lists."""
    if isinstance(value, list):
        return tuple(_revive(item) for item in value)
    return value


class EventRing:
    """Drop-oldest event buffer: keeps the newest ``capacity`` events and
    counts what it evicts, so a truncated log is visible."""

    __slots__ = ("capacity", "emitted", "dropped", "_events")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive: {capacity}")
        self.capacity = capacity
        self.emitted = 0   # events appended
        self.dropped = 0   # events evicted by capacity
        self._events: deque[Event] = deque(maxlen=capacity)

    def append(self, event: Event) -> None:
        self.emitted += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def events(self) -> list[Event]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)
