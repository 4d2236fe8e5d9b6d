"""Shared fixtures."""

import pytest


@pytest.fixture
def force_pool(monkeypatch):
    """Let a small fleet spawn its worker pool on any machine.

    The engine runs fleets below ``REPRO_MIN_PARALLEL`` hosts, and every
    fleet on a single-core machine, in-process; lifting both gates makes
    ``workers=2`` really fork.  Tests still skip when the sandbox cannot
    fork (the run then reports zero IPC bytes).
    """
    import repro.cluster.engine as engine

    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
