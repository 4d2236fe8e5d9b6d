"""Cross-process telemetry: the merged controller-side event stream must
be identical however the fleet's hosts are spread across processes, and
collecting it must never change simulation results."""

import time
from collections import defaultdict

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterSimulation, engine
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


def _run(config, workers, sample=1.0):
    """One traced fleet run; returns (result, events, forked)."""
    obs.enable(Telemetry(sample=sample, clock=Clock(wall=lambda: 0.0)))
    sim = ClusterSimulation(config)
    result = sim.run(workers=workers)
    events = obs.get().events()
    obs.disable()
    obs.clear_context()
    return result, events, sim.ipc_bytes_per_epoch > 0


def _by_host(events):
    streams = defaultdict(list)
    for event in events:
        streams[event.host].append(event.identity())
    return dict(streams)


def test_serial_and_parallel_event_streams_match(force_pool):
    serial_result, serial_events, _ = _run(SMALL, workers=1)
    parallel_result, parallel_events, forked = _run(SMALL, workers=2)
    if not forked:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert parallel_result == serial_result
    # The merged controller-side log covers every host plus the
    # controller itself, and each per-host stream is event-identical.
    assert set(_by_host(serial_events)) == {None, 0, 1, 2}
    assert _by_host(parallel_events) == _by_host(serial_events)


@pytest.mark.parametrize("spool", [1, 3, 100])
def test_sampled_streams_match_across_layouts(force_pool, monkeypatch, spool):
    # Stride sampling is per (kind, host) stream and survives spool
    # resets, so even a sampled log is layout-independent — whether the
    # workers drain every epoch, mid-run, or only after the last epoch.
    monkeypatch.setattr(engine, "SPOOL_EPOCHS", spool)
    _, serial_events, _ = _run(SMALL, workers=1, sample=0.5)
    _, parallel_events, forked = _run(SMALL, workers=2, sample=0.5)
    if not forked:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert _by_host(parallel_events) == _by_host(serial_events)
    full_count = len(_run(SMALL, workers=1)[1])
    assert 0 < len(serial_events) < full_count


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


def test_span_stats_cover_both_sides(force_pool):
    obs.enable(Telemetry(clock=Clock()))
    sim = ClusterSimulation(SMALL)
    sim.run(workers=2)
    stats = obs.get().span_stats()
    obs.disable()
    obs.clear_context()
    if sim.ipc_bytes_per_epoch == 0:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    # Controller-side and (merged) worker-side spans both present.
    assert stats["fleet.epoch"]["count"] == SMALL.epochs
    assert stats["host.step"]["count"] == SMALL.hosts * SMALL.epochs
    assert stats["host.step"]["total_s"] >= stats["host.daemons"]["total_s"]
    # The child spans that attribute host and controller time.
    for name in ("gemini.host.scan", "gemini.host.promote",
                 "consolidate.score", "consolidate.evict"):
        assert name in stats, f"missing span {name}"
