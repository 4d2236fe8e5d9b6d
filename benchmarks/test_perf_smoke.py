"""Perf smoke test: batched fault hot path and executor/cache matrix.

Times the simulator's hot paths and records the numbers in
``BENCH_perf.json`` at the repository root so the bench trajectory is
populated from run to run:

* **Single cell** — one fragmented 8-epoch Redis/Gemini simulation, the
  profile workload for the fault hot path (``Platform.touch_range`` ->
  ``MemoryLayer.fault_range`` -> buddy range claims), compared against
  the recorded pre-optimisation baseline of the same cell (per-page
  faulting with linear free-list scans, measured before the region index
  and batch path landed).
* **Scan-heavy cell** — a long (many-epoch, low-churn) fragmented
  SVM/Gemini run whose epochs re-touch a large mapped footprint and
  re-derive per-epoch translation state, the profile workload for the
  incremental translation-state index and the quiescent-range cache.
* **Matrix** — a 6-cell workload x system matrix, serial and cold versus
  4 workers with a warm result cache, the configuration experiment
  sweeps actually run in.  Small batches must not regress against serial
  (the pool falls back to serial below ``MIN_PARALLEL_CELLS``).
* **Fleet** — an 8-host x 12-epoch cluster simulation, serial versus
  up to 4 workers (capped at the core count) on the sticky-state actor
  pool (hosts live on their worker
  for the whole run).  Two measurements: wall clock (parallel must beat
  serial where the cores exist, and stay within noise of it where they
  do not), and controller IPC bytes per epoch of the fused protocol
  (one batched round-trip per worker per epoch, bitmask view deltas,
  spooled records, peer-pipe migration payloads), which must stay under
  a fixed ceiling.  Results must be identical in every mode.
* **Telemetry** — the cost of ``repro.obs``: disabled helpers priced per
  call (the estimated drag on an uninstrumented fleet run must stay
  under 3%), and one fully-traced serial fleet run that must match the
  plain run's results bit-for-bit, cover every host in the merged event
  log, and finish within 1.5x.  The Chrome trace and event log land in
  ``BENCH_trace.json`` / ``BENCH_events.jsonl`` for CI artifact upload.

The assertions are deliberately machine-independent where possible
(a warm cache must be >= 3x) and use the recorded baseline only where
the win is large enough (>= 6x here) to absorb slow CI hardware.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import replace

from repro import obs
from repro.cluster import ClusterConfig, ClusterSimulation
from repro.cluster.config import ChurnConfig
from repro.exec import Cell, ResultCache, run_cells
from repro.obs.bench import append_history
from repro.obs.export import chrome_trace, events_to_jsonl
from repro.pressure import PressureConfig
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_workload
from repro.workloads.suite import make_workload

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_perf.json"

#: The paper's fragmented-memory setting; the profiling configuration the
#: batched fault path was built against.
SINGLE = SimulationConfig(epochs=8, fragment_guest=0.8, fragment_host=0.8)

#: Wall-clock of the identical Redis/Gemini cell measured on this
#: codebase immediately before the batched fault path and the buddy
#: region index landed (per-page touch + linear free-region scans).
PRE_OPT_SINGLE_CELL_SECONDS = 1.98

#: Scan-heavy: a static-array workload whose epochs re-touch the whole
#: mapped footprint, run long enough that per-epoch scan work dominates
#: the one-time setup faults.  This is where the incremental index pays.
SCAN_HEAVY = SimulationConfig(epochs=144, fragment_guest=0.8, fragment_host=0.8)

MATRIX_CONFIG = SimulationConfig(epochs=6, fragment_guest=0.8, fragment_host=0.8)
MATRIX_WORKLOADS = ["Redis", "SVM"]
MATRIX_SYSTEMS = ["Host-B-VM-B", "THP", "Gemini"]

#: The fleet cell: enough hosts that per-host stepping dominates the
#: controller's (serial) placement/consolidation work.
FLEET_CONFIG = ClusterConfig(hosts=8, host_mib=768, epochs=12, seed=42)
FLEET_WORKERS = 4
#: Ceiling on the fleet cell's controller<->worker traffic: one batched
#: round-trip per worker per epoch plus spool drains (2,658 B/epoch
#: measured), with headroom for pickle and record-layout drift.
FLEET_IPC_CEILING = 4096

#: The overcommit cell: two squeezed Gemini hosts admitting 2.5x their
#: memory, so the whole run sits below the pressure watermark and the
#: escalation ladder (balloon, KSM, swap) carries the load.  Small on
#: purpose — the cell receipts swap traffic and the Section 8 victim
#: rule's alignment savings, not wall-clock.
OVERCOMMIT_FLEET = ClusterConfig(
    hosts=2,
    host_mib=80,
    epochs=6,
    seed=7,
    system="Gemini",
    overcommit_ratio=2.5,
    placement_headroom=1.0,
    churn=ChurnConfig(
        initial_vms=10,
        arrivals_per_epoch=0.5,
        departure_rate=0.03,
        max_vms=16,
        guest_mib_choices=(48, 64),
        workload_pool=("Shore", "SP.D", "Sphinx", "Moses"),
    ),
    pressure=PressureConfig(enabled=True),
)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_perf_smoke(tmp_path):
    # --- single cell: the fault hot path --------------------------------
    _, batched_s = _timed(
        lambda: run_workload(make_workload("Redis"), "Gemini", config=SINGLE)
    )

    # --- scan-heavy cell: the index and the quiescent-range cache --------
    _, indexed_s = _timed(
        lambda: run_workload(make_workload("SVM"), "Gemini", config=SCAN_HEAVY)
    )

    # --- matrix: serial cold vs 4 workers + warm cache -------------------
    cells = [
        Cell(w, s, MATRIX_CONFIG)
        for w in MATRIX_WORKLOADS
        for s in MATRIX_SYSTEMS
    ]
    # Both cold legs write a fresh cache, so serial vs parallel isolates
    # the executor (pool startup vs serial fallback), not cache stores.
    serial, serial_s = _timed(
        lambda: run_cells(cells, workers=1, cache=ResultCache(tmp_path / "serial"))
    )

    cache_dir = tmp_path / "cache"
    _, cold_s = _timed(
        lambda: run_cells(cells, workers=4, cache=ResultCache(cache_dir))
    )
    warm_cache = ResultCache(cache_dir)
    warm, warm_s = _timed(lambda: run_cells(cells, workers=4, cache=warm_cache))
    assert warm == serial, "cached results diverged from serial execution"
    assert warm_cache.stats.hits == len(cells)

    # --- fleet: serial vs parallel wall clock and controller IPC ---------
    # The IPC counters stay zero when the pool did not engage (a single
    # core, or fork unavailable) and the run stayed in-process.
    fleet_serial, fleet_serial_s = _timed(
        lambda: ClusterSimulation(FLEET_CONFIG).run(workers=1)
    )
    parallel_sim = ClusterSimulation(FLEET_CONFIG)
    fleet_parallel, fleet_parallel_s = _timed(
        lambda: parallel_sim.run(workers=FLEET_WORKERS)
    )
    assert fleet_serial == fleet_parallel, "parallel fleet diverged from serial"
    fused_ipc = parallel_sim.ipc_bytes_per_epoch

    # --- telemetry: disabled cost and enabled overhead -------------------
    # Disabled helpers are one global check and out; price them per call
    # so the "off by default costs nothing" claim is measured, not
    # asserted by fiat.
    assert not obs.enabled()
    loops = 200_000

    def _disabled_loop():
        for _ in range(loops):
            with obs.span("bench"):
                pass
            obs.emit("bench")

    _, disabled_loop_s = _timed(_disabled_loop)
    disabled_call_s = disabled_loop_s / (2 * loops)

    try:
        telemetry = obs.enable(obs.Telemetry())
        fleet_traced, fleet_traced_s = _timed(
            lambda: ClusterSimulation(FLEET_CONFIG).run(workers=1)
        )
        events = telemetry.events()
        spans = telemetry.span_stats()
        obs_stats = telemetry.stats()
        trace = chrome_trace(telemetry)
        events_jsonl = events_to_jsonl(events)
    finally:
        obs.disable()
        obs.clear_context()
    assert fleet_traced == fleet_serial, "telemetry changed fleet results"
    # The merged event log covers every host plus the controller.
    hosts_seen = {event.host for event in events}
    assert set(range(FLEET_CONFIG.hosts)) <= hosts_seen
    assert None in hosts_seen

    # --- overcommit fleet: pressure ladder cost and alignment savings ----
    # The same squeezed trace per victim policy; serial vs parallel must
    # stay bit-identical with the whole ladder (balloon, KSM, swap) on.
    pressure_results = {}
    pressure_seconds = {}
    for policy in ("lru-cold", "alignment-aware"):
        policy_config = replace(
            OVERCOMMIT_FLEET,
            pressure=replace(OVERCOMMIT_FLEET.pressure, victim_policy=policy),
        )
        pressure_results[policy], pressure_seconds[policy] = _timed(
            lambda cfg=policy_config: ClusterSimulation(cfg).run(workers=1)
        )
    aware_fleet = pressure_results["alignment-aware"]
    lru_fleet = pressure_results["lru-cold"]
    pressure_parallel = ClusterSimulation(OVERCOMMIT_FLEET).run(workers=2)
    assert pressure_parallel == ClusterSimulation(OVERCOMMIT_FLEET).run(
        workers=1
    ), "pressured fleet diverged across worker counts"

    # What the instrumentation costs the tier-1 suite with telemetry
    # off: the emissions this run made, priced at the disabled rate.
    obs_calls = obs_stats["events_emitted"] + 2 * obs_stats["spans_closed"]
    disabled_fraction = obs_calls * disabled_call_s / fleet_serial_s

    # CI uploads these next to BENCH_perf.json as perf-smoke artifacts.
    (BENCH_JSON.parent / "BENCH_trace.json").write_text(json.dumps(trace))
    (BENCH_JSON.parent / "BENCH_events.jsonl").write_text(events_jsonl)

    single_speedup = PRE_OPT_SINGLE_CELL_SECONDS / batched_s
    matrix_speedup = serial_s / warm_s
    cores = os.cpu_count() or 1
    # The engine caps the pool at the core count, so this is the worker
    # count the parallel run really got.
    pool_workers = min(FLEET_WORKERS, cores)
    # Honesty gate for the fleet parallel claim: without a pool of at
    # least two workers (or without fork) "parallel beats serial" is not
    # a claim this box can test.
    parallel_engaged = fused_ipc > 0
    if not parallel_engaged:
        parallel_assertion = "skipped (no worker pool: single core or no fork)"
    elif pool_workers < 2:
        parallel_assertion = f"skipped (a pool of {pool_workers} worker)"
    else:
        parallel_assertion = "enforced"
    report = {
        "single_cell": {
            "workload": "Redis",
            "system": "Gemini",
            "epochs": SINGLE.epochs,
            "batched_seconds": round(batched_s, 4),
            "pre_opt_baseline_seconds": PRE_OPT_SINGLE_CELL_SECONDS,
            "speedup_vs_pre_opt_baseline": round(single_speedup, 2),
        },
        "scan_heavy_cell": {
            "workload": "SVM",
            "system": "Gemini",
            "epochs": SCAN_HEAVY.epochs,
            "indexed_seconds": round(indexed_s, 4),
        },
        "matrix": {
            "cells": len(cells),
            "workloads": MATRIX_WORKLOADS,
            "systems": MATRIX_SYSTEMS,
            "epochs": MATRIX_CONFIG.epochs,
            "serial_cold_seconds": round(serial_s, 4),
            "serial_cells_per_sec": round(len(cells) / serial_s, 2),
            "parallel_cold_seconds": round(cold_s, 4),
            "warm_cache_seconds": round(warm_s, 4),
            "warm_cells_per_sec": round(len(cells) / warm_s, 2),
            "workers": 4,
            "speedup_warm_vs_serial": round(matrix_speedup, 2),
        },
        "fleet": {
            "hosts": FLEET_CONFIG.hosts,
            "epochs": FLEET_CONFIG.epochs,
            "host_mib": FLEET_CONFIG.host_mib,
            "serial_seconds": round(fleet_serial_s, 4),
            "parallel_seconds": round(fleet_parallel_s, 4),
            "workers": pool_workers,
            "cores": cores,
            "speedup_parallel_vs_serial": round(
                fleet_serial_s / fleet_parallel_s, 2
            ),
            "parallel_mode": "parallel" if parallel_engaged else "serial-fallback",
            "parallel_speedup_assertion": parallel_assertion,
            "ipc_bytes_per_epoch_fused": round(fused_ipc, 1),
            "ipc_peer_bytes_fused": parallel_sim.ipc_peer_bytes,
            "migrations": fleet_serial.migration_count,
            "fleet_fmfi": round(fleet_serial.fleet_fmfi, 4),
        },
        "overcommit_fleet": {
            "hosts": OVERCOMMIT_FLEET.hosts,
            "host_mib": OVERCOMMIT_FLEET.host_mib,
            "epochs": OVERCOMMIT_FLEET.epochs,
            "overcommit_ratio": OVERCOMMIT_FLEET.overcommit_ratio,
            "seconds": {
                policy: round(seconds, 4)
                for policy, seconds in pressure_seconds.items()
            },
            "swap_out_pages": {
                policy: result.fleet_swap_out_pages
                for policy, result in pressure_results.items()
            },
            "swap_in_pages": {
                policy: result.fleet_swap_in_pages
                for policy, result in pressure_results.items()
            },
            "swapped_pages": {
                policy: result.fleet_swapped_pages
                for policy, result in pressure_results.items()
            },
            "aligned_huge_retained": {
                policy: result.fleet_aligned_huge
                for policy, result in pressure_results.items()
            },
            "aligned_demotions": {
                policy: result.fleet_pressure_aligned_demotions
                for policy, result in pressure_results.items()
            },
            "aligned_pages_saved_by_victim_rule": (
                aware_fleet.fleet_aligned_huge - lru_fleet.fleet_aligned_huge
            ),
        },
        "telemetry": {
            "disabled_call_ns": round(disabled_call_s * 1e9, 1),
            "disabled_overhead_fraction": round(disabled_fraction, 5),
            "traced_fleet_seconds": round(fleet_traced_s, 4),
            "traced_vs_plain": round(fleet_traced_s / fleet_serial_s, 2),
            "events_emitted": obs_stats["events_emitted"],
            "events_buffered": obs_stats["events_buffered"],
            "spans_closed": obs_stats["spans_closed"],
            "spans": spans,
        },
    }
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")
    append_history(
        report,
        BENCH_JSON.parent / "BENCH_history.jsonl",
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        rev=os.environ.get("GITHUB_SHA"),
    )

    # >= 2x single-cell win over the recorded pre-optimisation baseline
    # (measured ~6.6x on the profiling box; slack for slower CI runners).
    assert single_speedup >= 2.0
    # A 6-cell batch is below MIN_PARALLEL_CELLS, so the cold "parallel"
    # run must take the serial path instead of paying ~1 s pool startup.
    assert cold_s <= serial_s * 1.25
    # >= 3x matrix win with 4 workers and a warm cache: serving six
    # simulations from the cache is milliseconds against seconds.
    assert matrix_speedup >= 3.0
    # Controller traffic stays one batched round-trip per worker per
    # epoch: bulk migration payloads travel on peer pipes and records in
    # compressed spool drains.  Zero bytes means the pool did not engage
    # — nothing crossed a pipe to measure.
    if fused_ipc > 0:
        assert fused_ipc <= FLEET_IPC_CEILING
    # Parallel per-host stepping must beat serial where the pool really
    # engaged and the cores exist to overlap it; otherwise the claim is
    # untestable on this box — note it in the JSON and only require
    # staying within noise of serial.
    if parallel_assertion == "enforced":
        assert fleet_parallel_s < fleet_serial_s
    else:
        # Too few cores (or an in-process run): allow real noise.
        assert fleet_parallel_s <= fleet_serial_s * 1.25
    # The child spans that attribute the remaining time must be present
    # in the trace (they feed the format_top_spans job summary).
    for name in ("gemini.host.scan", "gemini.host.promote", "consolidate.score"):
        assert name in spans, f"missing child span {name}"
    if fleet_serial.migration_count:
        assert "consolidate.evict" in spans
    # Telemetry off must be free: the instrumentation this fleet run
    # would emit, priced at the measured disabled per-call cost, has to
    # stay under 3% of the run's wall clock.
    assert disabled_fraction < 0.03
    # Telemetry on is allowed to cost something, but collecting a full
    # fleet trace must stay within 1.5x of the plain run.
    assert fleet_traced_s <= fleet_serial_s * 1.5
    # The overcommit cell must really run under pressure, and the paper's
    # Section 8 victim rule must pay: strictly more well-aligned huge
    # pages survive than under pure working-set eviction, at similar
    # swap traffic (both runs chase the same watermark deficit).
    assert lru_fleet.fleet_swap_out_pages > 0
    assert lru_fleet.fleet_pressure_aligned_demotions > 0
    assert aware_fleet.fleet_aligned_huge > lru_fleet.fleet_aligned_huge
    assert (
        aware_fleet.fleet_pressure_aligned_demotions
        < lru_fleet.fleet_pressure_aligned_demotions
    )
