"""Unit tests for the telemetry registry: spans and self-time, the
deterministic event ring, context tracking and the obs facade."""

import pytest

from repro import obs
from repro.obs import (
    Clock,
    Event,
    EventRing,
    ManualClock,
    Telemetry,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Each test starts and ends with telemetry disabled and no context."""
    obs.disable()
    obs.clear_context()
    yield
    obs.disable()
    obs.clear_context()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def test_span_self_time_excludes_children():
    # ManualClock ticks once per now() call: parent enter=0, child
    # enter=1, child exit=2, parent exit=3 -> child total 1s, parent
    # total 3s of which 1s is the child's, so parent self is 2s.
    telemetry = Telemetry(clock=ManualClock(step=1.0))
    with telemetry.span("parent"):
        with telemetry.span("child"):
            pass
    stats = telemetry.span_stats()
    assert stats["child"] == {"count": 1, "total_s": 1.0, "self_s": 1.0}
    assert stats["parent"]["count"] == 1
    assert stats["parent"]["total_s"] == 3.0
    assert stats["parent"]["self_s"] == 2.0


def test_span_trace_records_nesting_depth():
    telemetry = Telemetry(clock=ManualClock(step=1.0))
    obs.set_context(host=4)
    with telemetry.span("outer"):
        with telemetry.span("inner"):
            pass
    trace = telemetry.span_trace()
    # Inner closes first; entries are (name, host, start, dur, depth).
    assert [(entry[0], entry[1], entry[4]) for entry in trace] == [
        ("inner", 4, 1),
        ("outer", 4, 0),
    ]


def test_span_exits_on_exception():
    telemetry = Telemetry(clock=ManualClock(step=1.0))
    with pytest.raises(RuntimeError):
        with telemetry.span("doomed"):
            raise RuntimeError("boom")
    assert telemetry.span_stats()["doomed"]["count"] == 1
    assert not telemetry._span_stack


def test_span_trace_is_capacity_bounded():
    telemetry = Telemetry(clock=ManualClock(), span_capacity=3)
    for _ in range(10):
        with telemetry.span("tick"):
            pass
    assert len(telemetry.span_trace()) == 3
    assert telemetry.span_stats()["tick"]["count"] == 10


# ----------------------------------------------------------------------
# Events: sequencing, sampling, capacity
# ----------------------------------------------------------------------


def test_per_host_sequences_are_independent():
    telemetry = Telemetry(clock=Clock(wall=lambda: 0.0))
    telemetry.emit_at("a", 0, 1)
    telemetry.emit_at("a", 1, 1)
    telemetry.emit_at("b", 0, 1)
    telemetry.emit_at("a", None, 1)
    seqs = [(e.host, e.seq) for e in telemetry.events()]
    assert seqs == [(0, 1), (1, 1), (0, 2), (None, 1)]


def test_event_identity_ignores_wall_time():
    a = Event(kind="k", host=1, epoch=2, seq=3, wall=0.5, fields=(("x", 1),))
    b = Event(kind="k", host=1, epoch=2, seq=3, wall=9.9, fields=(("x", 1),))
    assert a != b
    assert a.identity() == b.identity()


def test_sampling_keeps_the_same_subset_per_stream():
    # sample=0.5 -> stride 2: every other event per (kind, host) stream
    # is kept, but sequence numbers advance for all of them, so the kept
    # subset is identifiable no matter how streams interleave.
    telemetry = Telemetry(sample=0.5, clock=Clock(wall=lambda: 0.0))
    for _ in range(6):
        telemetry.emit_at("tick", 0, 0)
        telemetry.emit_at("tick", 1, 0)
    kept = [(e.host, e.seq) for e in telemetry.events()]
    assert kept == [(0, 1), (1, 1), (0, 3), (1, 3), (0, 5), (1, 5)]
    assert telemetry.ring.emitted == 12
    assert telemetry.ring.sampled == 6


def test_ring_drops_oldest_at_capacity():
    telemetry = Telemetry(capacity=3, clock=Clock(wall=lambda: 0.0))
    for index in range(5):
        telemetry.emit_at("tick", 0, index)
    assert [e.epoch for e in telemetry.events()] == [2, 3, 4]
    assert telemetry.ring.dropped == 2
    assert telemetry.ring.sampled == 5


def test_ring_rejects_bad_parameters():
    with pytest.raises(ValueError):
        EventRing(capacity=0)
    with pytest.raises(ValueError):
        EventRing(sample=0.0)
    with pytest.raises(ValueError):
        EventRing(sample=1.5)


# ----------------------------------------------------------------------
# Context tracking
# ----------------------------------------------------------------------


def test_context_partial_updates():
    obs.set_context(host=2, epoch=5)
    assert obs.current_context() == (2, 5)
    obs.set_context(epoch=6)  # host untouched
    assert obs.current_context() == (2, 6)
    obs.set_context(host=None)
    assert obs.current_context() == (None, 6)
    obs.clear_context()
    assert obs.current_context() == (None, None)


def test_context_tracked_even_when_disabled():
    # The context lives outside any registry, so it is tracked with
    # telemetry off.
    assert not obs.enabled()
    obs.set_context(host=7, epoch=3)
    assert obs.current_context() == (7, 3)


# ----------------------------------------------------------------------
# The module facade
# ----------------------------------------------------------------------


def test_disabled_facade_is_inert():
    assert obs.get() is None
    with obs.span("ignored"):
        obs.emit("ignored", value=1)
        obs.count("ignored")
        obs.gauge("ignored", 1.0)
        obs.observe("ignored", 1.0)
    assert obs.get() is None


def test_enable_sets_ring_shape():
    telemetry = obs.enable(capacity=8, sample=0.5)
    obs.set_context(host=1, epoch=2)
    obs.emit("tick", value=1)
    assert len(telemetry.events()) == 1
    assert telemetry.ring.capacity == 8
    assert telemetry.ring.stride == 2
    assert obs.enable() is telemetry  # idempotent without arguments


def test_configure_from_env_reads_knobs():
    env = {
        "REPRO_TRACE_OUT": "somewhere",
        "REPRO_TRACE_EVENTS": "128",
        "REPRO_TRACE_SAMPLE": "0.25",
    }
    telemetry = obs.configure_from_env(env)
    try:
        assert telemetry is not None
        assert telemetry.ring.capacity == 128
        assert telemetry.ring.stride == 4
        assert obs.trace_out_dir() == "somewhere"
    finally:
        obs.set_trace_out_dir(None)


def test_configure_from_env_defaults_to_off():
    assert obs.configure_from_env({}) is None
    assert not obs.enabled()


# ----------------------------------------------------------------------
# Quantile reservoirs and dropped-span accounting
# ----------------------------------------------------------------------


def test_quantiles_exact_below_reservoir_cap():
    telemetry = Telemetry(clock=ManualClock())
    for value in range(1, 101):  # 1..100
        telemetry.observe("latency", float(value))
    quantiles = telemetry.quantiles("latency")
    assert quantiles[0.5] == 50.0
    assert quantiles[0.95] == 95.0
    assert quantiles[0.99] == 99.0
    assert telemetry.quantiles("missing") is None


def test_reservoir_is_bounded_and_representative():
    telemetry = Telemetry(clock=ManualClock())
    for value in range(10_000):
        telemetry.observe("latency", float(value))
    stat = telemetry._histograms["latency"]
    assert len(stat[4]) <= Telemetry.RESERVOIR_CAP
    assert stat[5] > 1  # stride grew through decimation
    # Approximate quantiles stay within a few percent of truth.
    quantiles = telemetry.quantiles("latency")
    assert abs(quantiles[0.5] - 5_000) < 500
    assert abs(quantiles[0.99] - 9_900) < 500
    summary = telemetry.histogram_summary()["latency"]
    assert summary["count"] == 10_000
    assert summary["min"] == 0.0 and summary["max"] == 9_999.0
    assert summary["p50"] == quantiles[0.5]


def test_dropped_spans_are_counted_not_silent():
    telemetry = Telemetry(clock=ManualClock(), span_capacity=3)
    for _ in range(10):
        with telemetry.span("tick"):
            pass
    assert telemetry.spans_dropped == 7
    assert telemetry.stats()["spans_dropped"] == 7
