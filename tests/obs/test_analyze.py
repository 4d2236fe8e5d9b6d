"""Unit tests for trace analysis: span-tree reconstruction, critical
paths, and differential run analysis (diff_runs)."""

import pytest

from repro import obs
from repro.metrics.report import format_critical_path, format_run_diff
from repro.obs import Clock, ManualClock, Telemetry
from repro.obs.analyze import (
    RunData,
    build_span_trees,
    critical_paths,
    diff_runs,
    host_range_text,
)
from repro.obs.export import export_run


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.clear_context()
    yield
    obs.disable()
    obs.clear_context()


# ----------------------------------------------------------------------
# Span forest reconstruction
# ----------------------------------------------------------------------


def test_build_span_trees_reattaches_children():
    telemetry = Telemetry(clock=ManualClock(step=1.0))
    with telemetry.span("epoch"):
        with telemetry.span("work"):
            with telemetry.span("inner"):
                pass
        with telemetry.span("daemons"):
            pass
    roots = build_span_trees(telemetry.span_trace())
    assert [root.name for root in roots] == ["epoch"]
    epoch = roots[0]
    assert [child.name for child in epoch.children] == ["work", "daemons"]
    work = epoch.children[0]
    assert [child.name for child in work.children] == ["inner"]
    # Self time is the span's duration minus its direct children.
    assert epoch.self_s == pytest.approx(
        epoch.duration - work.duration - epoch.children[1].duration
    )


def test_build_span_trees_promotes_orphans():
    # A depth-1 span whose parent never closed (truncation) becomes a
    # root rather than disappearing.
    trace = [("orphan", 0, 0.0, 1.0, 1)]
    roots = build_span_trees(trace)
    assert [root.name for root in roots] == ["orphan"]


def test_build_span_trees_separates_consecutive_epochs():
    telemetry = Telemetry(clock=ManualClock(step=1.0))
    for _ in range(3):
        with telemetry.span("epoch"):
            with telemetry.span("work"):
                pass
    roots = build_span_trees(telemetry.span_trace())
    assert len(roots) == 3
    assert all(len(root.children) == 1 for root in roots)


# ----------------------------------------------------------------------
# Critical paths
# ----------------------------------------------------------------------


def _traced_epochs():
    """Three sim.epoch trees where `classify` dominates two of them."""
    telemetry = Telemetry(clock=ManualClock(step=1.0))
    for epoch in range(3):
        with telemetry.span("sim.epoch"):
            with telemetry.span("sim.workloads"):
                pass  # 1 tick
            with telemetry.span("sim.classify"):
                if epoch < 2:
                    telemetry.clock.now()
                    telemetry.clock.now()
                    telemetry.clock.now()  # burn time: classify dominates
    return telemetry


def test_critical_path_follows_dominant_child():
    telemetry = _traced_epochs()
    report = critical_paths(telemetry, roots=("sim.epoch",))
    assert report.epochs == 3
    assert report.paths[0].path[0] == "sim.epoch"
    # The classify-dominated walk accounts for the most time.
    assert report.paths[0].path[-1] == "sim.classify"
    assert report.paths[0].count == 2
    assert report.total_s == pytest.approx(
        sum(entry[3] for entry in telemetry.span_trace() if entry[0] == "sim.epoch")
    )
    shares = sum(path.share for path in report.paths)
    assert shares == pytest.approx(1.0)
    # Attribution covers every span name in the matched trees.
    assert set(report.attribution) == {
        "sim.epoch", "sim.workloads", "sim.classify"
    }


def test_format_critical_path_renders_shares():
    report = critical_paths(_traced_epochs(), roots=("sim.epoch",))
    text = format_critical_path(report)
    assert "critical paths over 3 sim.epoch spans" in text
    assert "sim.epoch > sim.classify" in text
    assert "where the time went" in text


def test_critical_path_empty_trace():
    report = critical_paths([])
    assert report.epochs == 0
    assert format_critical_path(report) == "no root spans matched"


# ----------------------------------------------------------------------
# diff_runs
# ----------------------------------------------------------------------


def _sample_run(seed: int = 0, extra_promotes: int = 0):
    telemetry = Telemetry(clock=Clock(wall=lambda: 0.0))
    for host in range(3):
        telemetry.emit_at("host.epoch", host, 0, fmfi=0.5 + seed)
        telemetry.emit_at("booking.book", host, 0, region=host)
    for _ in range(extra_promotes):
        telemetry.emit_at("promote.host", 1, 0, promoted=4)
    telemetry.count("pressure.epochs", 2 + seed)
    return telemetry


def test_diff_runs_identical_runs_match():
    diff = diff_runs(_sample_run(), _sample_run())
    assert diff.deterministic_match
    assert not diff.counter_deltas
    assert not diff.divergence
    assert "IDENTICAL" in format_run_diff(diff)


def test_diff_runs_reports_attributed_divergence():
    diff = diff_runs(_sample_run(0), _sample_run(1, extra_promotes=3))
    assert not diff.deterministic_match
    names = [name for name, _, _ in diff.counter_deltas]
    assert "pressure.epochs" in names
    # Host 1 gained promote.host events; its stream diverges.
    assert 1 in diff.divergence
    kinds = {delta.kind for delta in diff.kind_deltas}
    assert "promote.host" in kinds
    text = format_run_diff(diff)
    assert "DIVERGED" in text
    assert "pressure.epochs" in text


def test_diff_runs_span_deltas_attributed():
    slow = Telemetry(clock=ManualClock(step=1.0))
    with slow.span("gemini.host"):
        pass
    fast = Telemetry(clock=ManualClock(step=0.25))
    with fast.span("gemini.host"):
        pass
    for _ in range(4):
        slow.emit_at("promote.host", 3, 0, promoted=2)
    fast.emit_at("promote.host", 3, 0, promoted=2)
    diff = diff_runs(fast, slow, threshold=0.1)
    assert diff.span_deltas and diff.span_deltas[0].name == "gemini.host"
    assert diff.attributions
    assert "gemini.host self" in diff.attributions[0]
    assert "promote.host" in diff.attributions[0]
    assert "host 3" in diff.attributions[0]


def test_diff_runs_over_export_dirs(tmp_path):
    export_run(_sample_run(), tmp_path / "a")
    export_run(_sample_run(), tmp_path / "b")
    diff = diff_runs(tmp_path / "a", tmp_path / "b")
    assert diff.deterministic_match
    export_run(_sample_run(1), tmp_path / "c")
    diff = diff_runs(tmp_path / "a", tmp_path / "c")
    assert not diff.deterministic_match
    assert any(
        name == "pressure.epochs" for name, _, _ in diff.counter_deltas
    )


def test_rundata_from_export_dir_reads_stats(tmp_path):
    export_run(_sample_run(), tmp_path / "run")
    data = RunData.from_export_dir(tmp_path / "run")
    assert data.counters["pressure.epochs"] == 2
    assert data.stats["events_emitted"] == len(data.events)


def test_host_range_text_groups_runs():
    assert host_range_text([3, 4, 5]) == "hosts 3-5"
    assert host_range_text([2]) == "host 2"
    assert host_range_text([None, 0, 1, 4]) == "controller, hosts 0-1, host 4"
    assert host_range_text([]) == "no hosts"
