"""Parallel experiment execution and result caching.

Experiment matrices are embarrassingly parallel: every (workload, system,
config) cell is an independent, deterministic simulation.  This package
provides the execution layer the experiment harness, the CLI and the
benchmark suite share:

* :class:`Cell` / :func:`execute_cell` — a picklable unit of simulation
  work and the function that runs it;
* :func:`run_cells` — fan cells across a process pool (worker count from
  the ``workers`` argument, the ``REPRO_WORKERS`` environment variable, or
  a safe serial default) with identical results in any mode;
* :class:`ResultCache` — a content-keyed on-disk cache so repeated runs of
  the same cell under the same code version are loaded, not recomputed.

Fleets do not use a pool: :class:`~repro.cluster.engine.ClusterSimulation`
steps its hosts in-process.
"""

from repro.exec.cache import CacheStats, ResultCache, cell_key, code_version
from repro.exec.cells import Cell, execute_cell
from repro.exec.pool import resolve_workers, run_cells

__all__ = [
    "Cell",
    "execute_cell",
    "run_cells",
    "resolve_workers",
    "ResultCache",
    "CacheStats",
    "cell_key",
    "code_version",
]
