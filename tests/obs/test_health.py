"""Health watchdog tests: each rule in isolation, the findings' own
sequence space, the offline pass pinned to the verdicts the online
monitor drew on real fleets, and the context note on a failing run."""

from dataclasses import replace

import pytest

from repro import obs
from repro.cli import build_parser, cluster_config
from repro.cluster import ClusterConfig, ClusterSimulation
from repro.cluster.config import ChurnConfig, MigrationConfig
from repro.metrics.report import format_health_summary
from repro.obs import Clock, Telemetry
from repro.obs.health import findings, summarize_health
from repro.pressure import PressureConfig


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.clear_context()
    yield
    obs.disable()
    obs.clear_context()


def _telemetry():
    return Telemetry(clock=Clock(wall=lambda: 0.0))


def _health(telemetry):
    return findings(telemetry.events())


# ----------------------------------------------------------------------
# Rules in isolation
# ----------------------------------------------------------------------


def test_watermark_oscillation_fires_on_flapping():
    telemetry = _telemetry()
    levels = ["low", "ok", "low", "ok", "low", "ok"]
    for epoch, level in enumerate(levels):
        telemetry.emit_at("pressure.watermark", 0, epoch,
                          level=level, free_pages=10)
    found = _health(telemetry)
    assert found
    assert found[0].kind == "health.watermark_oscillation"
    assert dict(found[0].fields)["flips"] >= 3


def test_watermark_steady_pressure_is_quiet():
    telemetry = _telemetry()
    for epoch in range(8):
        telemetry.emit_at("pressure.watermark", 0, epoch,
                          level="low", free_pages=10)
    assert not _health(telemetry)


def test_migration_storm_counts_window():
    telemetry = _telemetry()
    for seq in range(6):
        telemetry.emit_at("fleet.migrate", None, seq // 3,
                          ordinal=seq, source=0, destination=1)
    found = _health(telemetry)
    assert len(found) == 1
    assert found[0].kind == "health.migration_storm"
    assert dict(found[0].fields)["migrations"] == 6


def test_migration_trickle_is_quiet():
    telemetry = _telemetry()
    for epoch in range(10):
        telemetry.emit_at("fleet.migrate", None, epoch, ordinal=epoch,
                          source=0, destination=1)
    # One migration per epoch never reaches 6 within a 4-epoch window.
    assert not _health(telemetry)


def test_promotion_churn_needs_both_directions():
    telemetry = _telemetry()
    telemetry.emit_at("promote.host", 1, 0, promoted=10)
    assert not _health(telemetry)  # promotions alone are healthy
    telemetry.emit_at("pressure.demote", 1, 1, aligned=10)
    found = _health(telemetry)
    assert len(found) == 1
    fields = dict(found[0].fields)
    assert fields["promoted"] == 10 and fields["demoted"] == 10


def test_swap_thrash_requires_in_and_out():
    telemetry = _telemetry()
    telemetry.emit_at("swap.out", 0, 0, pages=500, demoted_huge=0,
                      demoted_aligned=0)
    assert not _health(telemetry)
    telemetry.emit_at("swap.in", 0, 1, pages=400)
    found = _health(telemetry)
    assert len(found) == 1
    fields = dict(found[0].fields)
    assert fields["out_pages"] == 500 and fields["in_pages"] == 400


def test_placement_failure_burst():
    telemetry = _telemetry()
    for seq in range(3):
        telemetry.emit_at("fleet.place_fail", None, 2, ordinal=seq,
                          needed=1000)
    found = _health(telemetry)
    assert len(found) == 1
    assert dict(found[0].fields)["failures"] == 3


# ----------------------------------------------------------------------
# Findings mechanics
# ----------------------------------------------------------------------


def test_health_events_use_their_own_sequence_space():
    # Findings number themselves per host, apart from the stream they
    # judge, and never enter the registry's log.
    telemetry = _telemetry()
    for seq in range(4):
        telemetry.emit_at("fleet.place_fail", None, 0, ordinal=seq,
                          needed=10)
    regular = [e for e in telemetry.events()
               if e.kind == "fleet.place_fail"]
    assert [e.seq for e in regular] == [1, 2, 3, 4]
    assert len(telemetry.events()) == 4
    found = _health(telemetry)
    assert found and found[0].seq == 1


def test_monitor_state_is_per_host():
    telemetry = _telemetry()
    # Split across two hosts, neither crosses the threshold alone.
    telemetry.emit_at("swap.out", 0, 0, pages=300)
    telemetry.emit_at("swap.in", 1, 0, pages=300)
    assert not _health(telemetry)


def test_monitor_counts_findings():
    telemetry = _telemetry()
    for seq in range(3):
        telemetry.emit_at("fleet.place_fail", None, 0, ordinal=seq,
                          needed=10)
    assert not telemetry.counters
    found = _health(telemetry)
    summary = summarize_health(found)
    assert summary["health.placement_failures"]["count"] == 1
    assert "placement_failures: 1" in format_health_summary(found)


# ----------------------------------------------------------------------
# Findings over a real pressured fleet
# ----------------------------------------------------------------------

#: Overcommitted enough that swap traffic (and with it at least one
#: watchdog) engages within a few epochs.
PRESSURED = ClusterConfig(
    hosts=2,
    host_mib=128,
    epochs=5,
    seed=7,
    system="Gemini",
    overcommit_ratio=2.5,
    placement_headroom=1.0,
    churn=ChurnConfig(
        initial_vms=8,
        arrivals_per_epoch=0.5,
        departure_rate=0.03,
        max_vms=14,
        guest_mib_choices=(48, 64),
        workload_pool=("Shore", "SP.D", "Sphinx", "Moses"),
    ),
    pressure=PressureConfig(enabled=True),
    migration=MigrationConfig(check_invariants=True),
)


def _traced_events(config):
    """The event log of one traced fleet run."""
    obs.enable(Telemetry(clock=Clock(wall=lambda: 0.0)))
    ClusterSimulation(config).run()
    return obs.get().events()


def test_health_streams_identical_across_layouts():
    # The pressured fleet must actually trip a watchdog, or no test
    # drives the rules with a real ladder's event stream.  The verdicts
    # stay out of the run's own log.
    events = _traced_events(PRESSURED)
    assert findings(events)
    assert not any(event.kind.startswith("health.") for event in events)


# The online monitor's findings on two runs, as (host, epoch, seq, kind,
# fields), recorded before it was replaced by the offline pass.  The
# offline pass must draw the same verdicts, per-host seq included.

PRESSURED_12_FINDINGS = [
    (0, 4, 1, "health.swap_thrash",
     (("in_pages", 512), ("out_pages", 4096), ("window_epochs", 4))),
    (0, 5, 2, "health.swap_thrash",
     (("in_pages", 512), ("out_pages", 6144), ("window_epochs", 4))),
    (0, 6, 3, "health.watermark_oscillation",
     (("flips", 3), ("window_epochs", 8))),
    (0, 7, 4, "health.swap_thrash",
     (("in_pages", 1024), ("out_pages", 4096), ("window_epochs", 4))),
    (0, 8, 5, "health.swap_thrash",
     (("in_pages", 512), ("out_pages", 6144), ("window_epochs", 4))),
    (0, 10, 6, "health.swap_thrash",
     (("in_pages", 1024), ("out_pages", 4096), ("window_epochs", 4))),
]

#: ``repro cluster --hosts 4 --host-mib 512 --epochs 6 --seed 42``, the
#: fleet CI traces.
CI_FLEET_FINDINGS = [
    (None, 0, 1, "health.placement_failures",
     (("failures", 3), ("window_epochs", 4))),
    (None, 1, 2, "health.placement_failures",
     (("failures", 5), ("window_epochs", 4))),
    (None, 3, 3, "health.placement_failures",
     (("failures", 6), ("window_epochs", 4))),
]


def test_findings_match_online_monitor_on_pressured_fleet():
    events = _traced_events(replace(PRESSURED, epochs=12))
    found = [finding.identity() for finding in findings(events)]
    assert found == PRESSURED_12_FINDINGS


def test_findings_match_online_monitor_on_ci_fleet():
    args = build_parser().parse_args([
        "cluster", "--hosts", "4", "--host-mib", "512", "--epochs", "6",
        "--seed", "42",
    ])
    events = _traced_events(cluster_config(args))
    found = [finding.identity() for finding in findings(events)]
    assert found == CI_FLEET_FINDINGS


def test_findings_replay_an_export_in_seq_order(tmp_path):
    # An export read back, even shuffled, yields the same findings as
    # the live log.
    from repro.obs.export import read_jsonl, write_jsonl

    events = _traced_events(replace(PRESSURED, epochs=12))
    write_jsonl(reversed(events), tmp_path / "events.jsonl")
    replayed = read_jsonl((tmp_path / "events.jsonl").read_text())
    assert [f.identity() for f in findings(replayed)] == PRESSURED_12_FINDINGS


# ----------------------------------------------------------------------
# Failing runs
# ----------------------------------------------------------------------


def test_escaping_exception_names_its_context():
    # Untraced: the note comes from the context, not from a registry.
    assert not obs.enabled()
    sim = ClusterSimulation(replace(PRESSURED, epochs=10))
    original = sim._epoch

    def sabotage(epoch):
        if epoch == 2:
            raise RuntimeError("epoch sabotage")
        return original(epoch)

    sim._epoch = sabotage
    with pytest.raises(RuntimeError, match="epoch sabotage") as caught:
        sim.run()
    assert caught.value.__notes__ == ["raised at host=None epoch=2"]


@pytest.mark.parametrize("traced", [False, True])
def test_single_host_exception_names_its_context(traced):
    from repro.sim.config import SimulationConfig
    from repro.sim.engine import Simulation
    from repro.workloads import make_workload

    if traced:
        obs.enable(Telemetry(clock=Clock(wall=lambda: 0.0)))
    sim = Simulation(make_workload("Redis"), config=SimulationConfig(epochs=4))
    original = sim.host.run_daemons

    def sabotage(epoch, *args, **kwargs):
        if epoch == 2:
            raise RuntimeError("daemon sabotage")
        return original(epoch, *args, **kwargs)

    sim.host.run_daemons = sabotage
    with pytest.raises(RuntimeError, match="daemon sabotage") as caught:
        sim.run()
    assert caught.value.__notes__ == ["raised at host=0 epoch=2"]
