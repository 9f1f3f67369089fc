"""Shared benchmark infrastructure.

Each benchmark regenerates one table or figure of the paper.  The
simulated runs are expensive, so:

* every workload runs at a per-benchmark ``SCALE`` (fraction of the
  paper's Table 5 transaction count), recorded in the output;
* (workload, variant) cells are cached per session so Figure 5 and
  Table 6 share TokenTM runs;
* cells execute through a shared
  :class:`~repro.perf.runner.ParallelRunner`: set
  ``REPRO_BENCH_WORKERS=N`` to simulate on N processes and
  ``REPRO_LANDSCAPE=DB`` to record the session into that landscape
  store and serve the cells it already finished (both off by
  default, so plain runs measure serial simulation);
* tables print through ``capsys.disabled()`` so they appear in the
  captured benchmark log.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import pytest

from repro.perf.runner import CellSpec, ParallelRunner, stored_cells
from repro.workloads import tm_workloads

#: Seed used by every benchmark run (perturbed where CIs are needed).
BENCH_SEED = 2008  # the paper's year

#: Fraction of each workload's full transaction count to simulate.
#: Chosen so the whole harness finishes in a couple of minutes while
#: every workload still runs hundreds of transactions.
SCALES: Dict[str, float] = {
    "Barnes": 0.2,
    "Cholesky": 0.01,
    "Radiosity": 0.02,
    "Raytrace": 0.01,
    "Delaunay": 0.015,
    "Genome": 0.004,
    "Vacation-Low": 0.02,
    "Vacation-High": 0.02,
}

#: Paper order for tables/figures (SPLASH first, then STAMP).
WORKLOAD_ORDER = (
    "Barnes", "Cholesky", "Radiosity", "Raytrace",
    "Delaunay", "Genome", "Vacation-Low", "Vacation-High",
)


@pytest.fixture(scope="session")
def cell_cache() -> Dict[Tuple[str, str, int], object]:
    """Session-wide cache of simulated grid cells."""
    return {}


@pytest.fixture(scope="session")
def workloads():
    return tm_workloads()


_RUNNER: Optional[ParallelRunner] = None
_STORE = None


def _bench_runner() -> ParallelRunner:
    """Session-shared cell runner, built lazily from the environment."""
    global _RUNNER, _STORE
    if _RUNNER is None:
        workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))
        recorder = finished = None
        db = os.environ.get("REPRO_LANDSCAPE")
        if db:
            from repro.landscape.store import LandscapeStore

            _STORE = LandscapeStore(db)
            recorder = _STORE.begin_run("grid", label="benchmarks",
                                        seed=BENCH_SEED)
            finished = stored_cells(_STORE)
        _RUNNER = ParallelRunner(workers=workers, recorder=recorder,
                                 finished=finished)
    return _RUNNER


def pytest_sessionfinish(session, exitstatus):
    """Reap the shared runner and close its landscape run, if any."""
    if _RUNNER is not None:
        _RUNNER.close()
        if _RUNNER.recorder is not None:
            _RUNNER.recorder.finish("ok" if exitstatus == 0 else "failed")
            _STORE.close()


def cached_cell(cache, workloads, name: str, variant: str,
                seed: int = BENCH_SEED):
    """Run (or fetch) one grid cell at the benchmark scale."""
    key = (name, variant, seed)
    if key not in cache:
        spec = CellSpec(workloads[name].spec, variant, seed=seed,
                        scale=SCALES[name])
        cache[key] = _bench_runner().run_cell(spec)
    return cache[key]


def emit(capsys, text: str) -> None:
    """Print a reproduced table so it lands in the benchmark log."""
    with capsys.disabled():
        print()
        print(text)
