"""Performance engine: parallel grid execution and benchmarking.

The paper's evaluation grid is embarrassingly parallel — every cell
(workload, variant, seed) runs on a fresh simulated machine — so this
package fans cells out over worker processes.  Finished cells are
kept in the landscape store, keyed by the full cell content (spec,
configs, seed, scale).  See ``docs/performance.md``.

* :mod:`repro.perf.runner` — :class:`ParallelRunner`, the grid engine,
  and :func:`cell_key`, a cell's content hash;
* :mod:`repro.perf.supervise` — the supervision layer: per-cell
  timeouts, retries with backoff, failure policies, pool rebuilding,
  :class:`RunReport` failure records, and the SIGINT/SIGTERM unwind
  handler (``docs/robustness.md``, "Surviving the host");
* :mod:`repro.perf.bench` — the ``repro bench`` harness that writes
  ``BENCH_perf.json``.
"""

from repro.perf.runner import CellSpec, ParallelRunner, cell_key, grid_specs
from repro.perf.supervise import (
    CellFailure,
    RunReport,
    SupervisorConfig,
    unwind_on_signals,
)

__all__ = [
    "CellFailure",
    "CellSpec",
    "ParallelRunner",
    "RunReport",
    "SupervisorConfig",
    "cell_key",
    "grid_specs",
    "unwind_on_signals",
]
