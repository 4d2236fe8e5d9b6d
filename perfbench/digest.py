"""Canonical digests of simulated results.

A digest covers every field of a :class:`~repro.sim.results.RunResult` or
:class:`~repro.cluster.results.FleetResult`, recursively, with floats
written by ``repr`` (exact round trip).  Dict keys are sorted, so the
digest is the same in every process and under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

__all__ = ["canonical", "digest"]


def canonical(value):
    """A JSON-ready, order-independent copy of *value*."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(result) -> str:
    """First 16 hex digits of the SHA-256 of *result*'s canonical form."""
    text = json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
