"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Gemini" in out
    assert "Redis" in out
    assert "Table 2" in out


def test_run_command(capsys):
    code = main([
        "run", "Shore", "--epochs", "4", "--fragment", "0.0",
        "-s", "Host-B-VM-B", "-s", "THP",
        "--guest-mib", "128", "--host-mib", "512",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Host-B-VM-B" in out
    assert "THP" in out
    assert "1.00x" in out


def test_run_unknown_workload():
    with pytest.raises(KeyError):
        main(["run", "nosuchworkload", "--epochs", "2"])


def test_experiment_choices_enforced():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "not-a-figure"])


def test_experiment_fig16_small(capsys):
    code = main([
        "experiment", "fig16", "--epochs", "6", "-w", "Shore",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 16" in out
    assert "EMA/HB" in out


def test_cluster_command(capsys):
    code = main([
        "cluster", "--hosts", "2", "--host-mib", "512",
        "--epochs", "4", "--seed", "7", "--check-invariants",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fleet: 2 hosts x 4 epochs" in out
    assert "fleet FMFI" in out
    assert "well-aligned rate" in out
    assert "migrations" in out
    assert "host0:" in out and "host1:" in out


def test_cluster_has_no_protocol_flags():
    # The fleet runs one IPC protocol; nothing at the CLI selects another.
    for flag in ("--no-fused", "--no-view-deltas", "--no-adaptive",
                 "--spool-epochs=3"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", flag])


def test_fleet_commands_reject_workers():
    # Fleets step their hosts in-process; only the cell-pool commands
    # (run, experiment, trace) take --workers.
    for command in ("cluster", "pressure"):
        with pytest.raises(SystemExit):
            main([command, "--workers", "2"])


def test_cluster_profile_prints_hotspots(capsys):
    code = main([
        "cluster", "--hosts", "2", "--host-mib", "512",
        "--epochs", "2", "--profile", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fleet FMFI" in out
    assert "cumulative" in out  # the pstats table made it out


def test_cluster_placement_choices_enforced():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cluster", "--placement", "not-a-policy"])


def test_cluster_command_uses_cache(tmp_path, capsys):
    argv = [
        "cluster", "--hosts", "2", "--host-mib", "512", "--epochs", "3",
        "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "1 results stored" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "1 hits" in second
    assert first.splitlines()[:5] == second.splitlines()[:5]


@pytest.fixture
def _trace_env(monkeypatch):
    """Pin the REPRO_TRACE* keys so the commands' own writes to
    os.environ are rolled back at teardown, and drop the obs singleton
    the traced command leaves enabled."""
    from repro import obs

    for key in ("REPRO_TRACE", "REPRO_TRACE_OUT", "REPRO_TRACE_EVENTS",
                "REPRO_TRACE_SAMPLE"):
        monkeypatch.setenv(key, "")
    # A warm result cache would skip the runs that emit the events.
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    yield
    obs.disable()
    obs.clear_context()
    obs.set_trace_out_dir(None)


def test_cluster_trace_out_exports_artifacts(tmp_path, capsys, _trace_env):
    out = tmp_path / "trace"
    code = main([
        "cluster", "--hosts", "2", "--host-mib", "512", "--epochs", "3",
        "--trace-out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fleet FMFI" in stdout
    assert "trace exported to" in stdout
    for name in ("events.jsonl", "trace.json", "series.csv", "spans.json"):
        assert (out / name).stat().st_size > 0


def test_run_trace_out_reports_single_host_epochs(tmp_path, capsys, _trace_env):
    import csv

    from repro.obs.export import read_jsonl

    out = tmp_path / "trace"
    assert main(["run", "Redis", "--epochs", "2", "--trace-out", str(out)]) == 0
    assert "critical paths over" in capsys.readouterr().out
    events = read_jsonl((out / "events.jsonl").read_text())
    redis_epochs = [
        event.epoch
        for event in events
        if event.kind == "tenant.epoch"
        and dict(event.fields)["workload"] == "Redis"
    ]
    assert redis_epochs and sorted(set(redis_epochs)) == [0, 1]
    with open(out / "series.csv", newline="") as stream:
        rows = list(csv.DictReader(stream))
    workload_rows = [row for row in rows if row["workload"] == "Redis"]
    assert [row["epoch"] for row in workload_rows] == ["0", "1"]
    assert all(row["well_aligned_rate"] for row in workload_rows)


def test_trace_subcommand_defaults_out_dir(tmp_path, capsys, monkeypatch,
                                           _trace_env):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "fig16", "--epochs", "4", "-w", "Shore"]) == 0
    out = capsys.readouterr().out
    assert "Figure 16" in out
    assert (tmp_path / "trace" / "fig16" / "events.jsonl").exists()


def test_trace_flags_map_to_parser():
    args = build_parser().parse_args([
        "run", "Redis", "--trace-out", "d", "--trace-events", "128",
        "--trace-sample", "0.5",
    ])
    assert args.trace_out == "d"
    assert args.trace_events == 128
    assert args.trace_sample == 0.5


def test_profile_report_lands_in_trace_dir(tmp_path, capsys, _trace_env):
    out = tmp_path / "trace"
    code = main([
        "cluster", "--hosts", "2", "--host-mib", "512", "--epochs", "2",
        "--profile", "5", "--trace-out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "cumulative" in stdout  # still printed
    assert "cumulative" in (out / "profile.txt").read_text()


def test_pressure_command(capsys):
    code = main([
        "pressure", "--hosts", "2", "--epochs", "3", "--seed", "7",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fleet: 2 hosts x 3 epochs" in out
    assert "overcommit ratio     2.50x" in out
    assert "alignment-aware" in out
    assert "swap traffic" in out
    assert "pressure demotions" in out
    assert "aligned huge retained" in out
    assert "final pressure" in out


def test_pressure_victim_choices_enforced():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["pressure", "--victims", "not-a-policy"])
    args = build_parser().parse_args(["pressure", "--victims", "lru-cold"])
    assert args.victims == "lru-cold"


def test_overcommit_experiment_is_registered():
    args = build_parser().parse_args(["experiment", "overcommit"])
    assert args.name == "overcommit"


def _export_cluster(out_dir, seed):
    from repro import obs

    # Each export models a separate CLI process: drop the registry the
    # previous traced invocation left enabled so events don't accumulate.
    obs.disable()
    obs.clear_context()
    code = main([
        "cluster", "--hosts", "2", "--host-mib", "512", "--epochs", "3",
        "--seed", str(seed), "--trace-out", str(out_dir),
    ])
    assert code == 0


def test_diff_same_seed_reports_identical(tmp_path, capsys, _trace_env):
    _export_cluster(tmp_path / "a", seed=42)
    _export_cluster(tmp_path / "b", seed=42)
    capsys.readouterr()
    assert main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "IDENTICAL" in out
    # Strict mode succeeds too: nothing diverged.
    assert main(["diff", str(tmp_path / "a"), str(tmp_path / "b"),
                 "--strict"]) == 0


def test_diff_seed_change_reports_attributed_deltas(tmp_path, capsys,
                                                    _trace_env):
    _export_cluster(tmp_path / "a", seed=42)
    _export_cluster(tmp_path / "c", seed=43)
    capsys.readouterr()
    assert main(["diff", str(tmp_path / "a"), str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert "first mismatch at seq" in out
    # Strict mode turns divergence into a failing exit code for CI.
    assert main(["diff", str(tmp_path / "a"), str(tmp_path / "c"),
                 "--strict"]) == 1


def test_trace_out_prints_critical_path(tmp_path, capsys, _trace_env):
    _export_cluster(tmp_path / "trace", seed=42)
    out = capsys.readouterr().out
    assert "critical paths over" in out
    assert "where the time went" in out


def test_bench_command_is_rejected():
    # perfbench/run.py is the one benchmark; the CLI has no bench tools.
    with pytest.raises(SystemExit):
        main(["bench", "compare"])
