"""Process-pool execution of experiment cells.

``run_cells`` is the single execution entry point used by
``repro.experiments.common.run_matrix``, the CLI and the benchmark
harness.  Cells are independent deterministic simulations, so serial and
parallel execution produce identical result lists; the pool only changes
wall-clock time.

Worker-count resolution: the explicit ``workers`` argument wins, then the
``REPRO_WORKERS`` environment variable, then a serial default of 1.
Anything that cannot be shipped to a worker process (an unpicklable cell)
falls back to serial execution rather than failing, and batches smaller
than :data:`MIN_PARALLEL_CELLS` run serially because pool startup would
dominate (see the constant's note).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

from repro.exec.cache import ResultCache, cell_key
from repro.exec.cells import Cell, execute_cell
from repro.sim.results import RunResult

__all__ = [
    "MIN_PARALLEL_CELLS",
    "resolve_workers",
    "run_cells",
]

#: Smallest batch worth a process pool.  Spinning up the pool (fork,
#: executor bookkeeping, result pickling) costs on the order of a second,
#: while a typical cell runs for a comparable time — so small batches are
#: faster serial.  Measured on the benchmark matrix: the 6-cell cold run
#: took 2.6 s parallel vs 1.8 s serial.  ``REPRO_MIN_PARALLEL`` overrides
#: for experiments with unusually heavy cells.
MIN_PARALLEL_CELLS = 8


def _min_parallel() -> int:
    """Smallest batch worth a pool: ``REPRO_MIN_PARALLEL`` env, else
    :data:`MIN_PARALLEL_CELLS`."""
    raw = os.environ.get("REPRO_MIN_PARALLEL", "").strip()
    try:
        return int(raw)
    except ValueError:
        return MIN_PARALLEL_CELLS


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: argument > ``REPRO_WORKERS`` env > 1."""
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        try:
            workers = int(raw)
        except ValueError:
            workers = 1
    return max(1, workers)


def _clone(result: RunResult) -> RunResult:
    """Fresh object for deduplicated cells, so callers never alias."""
    return pickle.loads(pickle.dumps(result))


def _run_pool(cells: list[Cell], workers: int) -> list[RunResult] | None:
    """Fan *cells* across worker processes; None means 'use serial'."""
    try:
        pickle.dumps(cells)
    except Exception:
        return None
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(cells)), mp_context=context
        ) as pool:
            return list(pool.map(execute_cell, cells))
    except (OSError, PermissionError):
        # Sandboxes without process/semaphore support: run serially.
        return None


def run_cells(
    cells: list[Cell],
    workers: int | None = None,
    cache: ResultCache | None = None,
) -> list[RunResult]:
    """Execute every cell; returns results in cell order.

    Identical in output to running ``execute_cell`` over the list — the
    pool (``workers > 1``) and the cache only change where and whether the
    simulation actually runs.  With a cache, cached cells are loaded,
    duplicate cells within the call run once, and fresh results are
    stored.  When *cache* is None, ``REPRO_CACHE_DIR`` (if set) provides
    one.
    """
    cells = list(cells)
    if cache is None:
        cache = ResultCache.from_env()
    results: list[RunResult | None] = [None] * len(cells)

    pending: list[int] = []
    keys: dict[int, str] = {}
    first_of: dict[str, int] = {}
    duplicates: list[tuple[int, int]] = []
    for index, cell in enumerate(cells):
        if cache is None:
            pending.append(index)
            continue
        key = cell_key(cell)
        keys[index] = key
        cached = cache.get(key)
        if cached is not None:
            results[index] = cached
            continue
        if key in first_of:
            # Same cell appears twice in this batch: run it once.
            cache.stats.hits += 1
            cache.stats.misses -= 1
            duplicates.append((index, first_of[key]))
            continue
        first_of[key] = index
        pending.append(index)

    if pending:
        workers = resolve_workers(workers)
        computed = None
        if workers > 1 and len(pending) >= _min_parallel():
            computed = _run_pool([cells[i] for i in pending], workers)
        if computed is None:
            computed = [execute_cell(cells[i]) for i in pending]
        for index, result in zip(pending, computed):
            results[index] = result
            if cache is not None:
                cache.put(keys[index], result)
    for index, source in duplicates:
        results[index] = _clone(results[source])
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]
