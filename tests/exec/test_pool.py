"""Tests for the parallel cell executor."""

import pytest

from repro.exec import Cell, ResultCache, execute_cell, resolve_workers, run_cells
from repro.exec import pool
from repro.experiments.common import run_matrix
from repro.sim.config import SimulationConfig
from repro.workloads.suite import make_workload


CONFIG = SimulationConfig(epochs=2)
SMALL = SimulationConfig(epochs=3, fragment_guest=0.5, fragment_host=0.5)


def _svm_primer():
    return make_workload("SVM")


@pytest.fixture
def pool_calls(monkeypatch):
    """Record what every ``_run_pool`` call returned (None: use serial).

    Small test batches sit under ``MIN_PARALLEL_CELLS``; a test that
    wants the pool lifts the gate with ``REPRO_MIN_PARALLEL=1``.
    """
    calls = []
    run_pool = pool._run_pool

    def spy(cells, workers):
        computed = run_pool(cells, workers)
        calls.append(computed)
        return computed

    monkeypatch.setattr(pool, "_run_pool", spy)
    return calls


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert resolve_workers(None) == 4
    assert resolve_workers(2) == 2
    monkeypatch.setenv("REPRO_WORKERS", "garbage")
    assert resolve_workers(None) == 1
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert resolve_workers(None) == 1


def test_serial_matches_execute_cell():
    cells = [Cell("Redis", "THP", CONFIG), Cell("SVM", "Host-B-VM-B", CONFIG)]
    assert run_cells(cells, workers=1, cache=None) == [
        execute_cell(cells[0]),
        execute_cell(cells[1]),
    ]


def test_parallel_matches_serial(monkeypatch, pool_calls):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    cells = [
        Cell("Redis", "THP", CONFIG),
        Cell("Redis", "Host-B-VM-B", CONFIG),
        Cell("SVM", "THP", CONFIG),
    ]
    parallel = run_cells(cells, workers=2, cache=None)
    assert len(pool_calls) == 1
    if pool_calls[0] is None:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    assert parallel == run_cells(cells, workers=1, cache=None)


def test_unpicklable_cell_falls_back_to_serial(monkeypatch, pool_calls):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    cells = [
        Cell("Redis", "THP", CONFIG, primer_factory=lambda: make_workload("SVM")),
        Cell("SVM", "THP", CONFIG),
    ]
    results = run_cells(cells, workers=4, cache=None)
    assert pool_calls == [None]  # the pool refused the batch
    assert [r.workload for r in results] == ["Redis", "SVM"]


def test_small_batch_never_starts_a_pool(monkeypatch, pool_calls):
    # Six cells sit under MIN_PARALLEL_CELLS: four workers are asked for,
    # but the batch runs serially instead of paying for pool startup.
    monkeypatch.delenv("REPRO_MIN_PARALLEL", raising=False)
    cells = [
        Cell(workload, system, CONFIG)
        for workload in ("Redis", "SVM")
        for system in ("Host-B-VM-B", "THP", "Gemini")
    ]
    assert len(cells) < pool.MIN_PARALLEL_CELLS
    run_cells(cells, workers=4, cache=None)
    assert pool_calls == []


def test_traced_cells_never_start_a_pool(monkeypatch, pool_calls):
    # A forked worker's telemetry dies with the worker, so a traced
    # batch stays in the process that holds the registry.
    from repro import obs
    from repro.obs import Clock, Telemetry

    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    # A warm result cache would skip the runs that emit the spans.
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    cells = [
        Cell("Redis", "THP", CONFIG),
        Cell("Redis", "Host-B-VM-B", CONFIG),
        Cell("SVM", "THP", CONFIG),
    ]
    telemetry = obs.enable(Telemetry(clock=Clock(wall=lambda: 0.0)))
    try:
        traced = run_cells(cells, workers=2, cache=None)
    finally:
        obs.disable()
        obs.clear_context()
    assert pool_calls == []
    assert telemetry.span_stats()["sim.epoch"]["count"] == (
        len(cells) * CONFIG.epochs
    )
    assert traced == run_cells(cells, workers=1, cache=None)


def test_cache_dedupes_within_and_across_calls(tmp_path):
    cache = ResultCache(tmp_path)
    cell = Cell("Redis", "THP", CONFIG)
    first, second = run_cells([cell, cell], workers=1, cache=cache)
    assert first == second
    assert first is not second  # no aliasing between deduplicated results
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1

    warm_cache = ResultCache(tmp_path)
    (warm,) = run_cells([cell], workers=1, cache=warm_cache)
    assert warm == first
    assert warm_cache.stats.hits == 1
    assert warm_cache.stats.misses == 0


def test_primed_cells_run_the_primer():
    plain = run_cells([Cell("Redis", "THP", CONFIG)], workers=1, cache=None)
    primed = run_cells(
        [Cell("Redis", "THP", CONFIG, primer_factory=_svm_primer)],
        workers=1,
        cache=None,
    )
    assert plain != primed


def test_run_matrix_workers_and_cache_equivalence(
    tmp_path, monkeypatch, pool_calls
):
    monkeypatch.setenv("REPRO_MIN_PARALLEL", "1")
    workloads = ["Redis", "SVM"]
    systems = ["Host-B-VM-B", "Gemini"]
    serial = run_matrix(workloads, systems, config=SMALL)
    parallel = run_matrix(workloads, systems, config=SMALL, workers=2)
    cache = ResultCache(tmp_path)
    cold = run_matrix(workloads, systems, config=SMALL, workers=2, cache=cache)
    warm = run_matrix(workloads, systems, config=SMALL, cache=ResultCache(tmp_path))
    # The parallel and cold runs each start a pool; serial and warm do not.
    assert len(pool_calls) == 2
    if None in pool_calls:  # pragma: no cover
        pytest.skip("sandbox cannot fork")
    for workload in workloads:
        for system in systems:
            assert serial[workload][system] == parallel[workload][system]
            assert serial[workload][system] == cold[workload][system]
            assert serial[workload][system] == warm[workload][system]
