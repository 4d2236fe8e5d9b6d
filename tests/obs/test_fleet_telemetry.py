"""Fleet telemetry: one in-process registry sees the controller and every
host, and collecting it must never change simulation results."""

import time

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterSimulation
from repro.cluster.config import MigrationConfig
from repro.obs import Clock, Telemetry

SMALL = ClusterConfig(
    hosts=3,
    host_mib=512,
    epochs=6,
    seed=7,
    migration=MigrationConfig(check_invariants=True),
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.clear_context()
    yield
    obs.disable()
    obs.clear_context()


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_telemetry_never_changes_results():
    plain, plain_s = _timed(lambda: ClusterSimulation(SMALL).run())
    telemetry = obs.enable(Telemetry())
    traced, traced_s = _timed(lambda: ClusterSimulation(SMALL).run())
    stats = telemetry.stats()
    obs.disable()
    obs.clear_context()
    assert traced == plain
    assert telemetry.events(), "a traced run must produce events"
    # Tracing on has a stated cost: a fully traced run within 1.5x.
    assert traced_s <= plain_s * 1.5
    # Tracing off is nearly free: the calls this run made, priced at the
    # disabled helpers' per-call cost, stay under 3% of the plain run.
    loops = 20_000

    def disabled_loop():
        for _ in range(loops):
            with obs.span("priced"):
                pass
            obs.emit("priced")

    _, loop_s = _timed(disabled_loop)
    calls = stats["events_emitted"] + 2 * stats["spans_closed"]
    assert calls * loop_s / (2 * loops) < 0.03 * plain_s


def test_span_stats_cover_both_sides():
    obs.enable(Telemetry(clock=Clock()))
    ClusterSimulation(SMALL).run()
    telemetry = obs.get()
    stats = telemetry.span_stats()
    hosts = {event.host for event in telemetry.events()}
    obs.disable()
    obs.clear_context()
    # Controller-side and host-side spans both present.
    assert stats["fleet.epoch"]["count"] == SMALL.epochs
    assert stats["host.step"]["count"] == SMALL.hosts * SMALL.epochs
    assert stats["host.step"]["total_s"] >= stats["host.daemons"]["total_s"]
    # The child spans that attribute host and controller time.
    for name in ("gemini.host.scan", "gemini.host.promote",
                 "consolidate.score", "consolidate.evict"):
        assert name in stats, f"missing span {name}"
    # The one log carries the controller's stream and every host's.
    assert hosts == {None, 0, 1, 2}
