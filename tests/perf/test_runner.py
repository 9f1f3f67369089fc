"""The parallel grid engine's determinism and stored-cell contracts."""

from __future__ import annotations

import pytest

import repro.perf.runner as runner_mod
from repro.analysis.experiments import figure_speedups, run_cell, run_variants
from repro.landscape import LandscapeStore
from repro.perf.runner import (CellSpec, ParallelRunner, grid_specs,
                               stored_cells)

from tests.perf.conftest import TINY_SPEC

VARIANTS = ("TokenTM", "LogTM-SE_Perf")
SCALE = 0.5


def _specs(tiny_workload, seeds=(1, 2)):
    return grid_specs([tiny_workload], VARIANTS, seeds=seeds, scale=SCALE)


def test_grid_specs_order(tiny_workload):
    specs = _specs(tiny_workload)
    assert [(s.seed, s.variant) for s in specs] == [
        (1, "TokenTM"), (1, "LogTM-SE_Perf"),
        (2, "TokenTM"), (2, "LogTM-SE_Perf"),
    ]
    assert all(s.workload is TINY_SPEC for s in specs)


def test_serial_runner_matches_direct_run_cell(tiny_workload):
    spec = CellSpec(TINY_SPEC, "TokenTM", seed=3, scale=SCALE)
    via_runner = ParallelRunner(workers=0).run_cell(spec)
    direct = run_cell(tiny_workload, "TokenTM", seed=3, scale=SCALE)
    assert via_runner.stats.snapshot() == direct.stats.snapshot()


def test_parallel_runner_identical_to_serial(tiny_workload):
    """Two workers, out-of-order completion: same stats, same order."""
    specs = _specs(tiny_workload)
    serial = ParallelRunner(workers=0).run_cells(specs)
    with ParallelRunner(workers=2) as runner:
        parallel = runner.run_cells(specs)
    assert [c.stats.snapshot() for c in parallel] == \
        [c.stats.snapshot() for c in serial]
    assert [(c.workload, c.variant, c.seed) for c in parallel] == \
        [(s.workload.name, s.variant, s.seed) for s in specs]
    assert runner.metrics.counter("perf.simulated").value == len(specs)


def test_cache_hit_skips_simulation(tiny_workload, tmp_path, monkeypatch):
    """Cells the landscape store already finished are served, not
    simulated, by a runner given the store's finished map."""
    simulated = []
    real = runner_mod._simulate

    def spy(spec):
        simulated.append(spec)
        return real(spec)

    monkeypatch.setattr(runner_mod, "_simulate", spy)
    specs = _specs(tiny_workload, seeds=(1,))
    with LandscapeStore(tmp_path / "db") as store:
        rec = store.begin_run("grid")
        first = ParallelRunner(workers=0, recorder=rec,
                               finished=stored_cells(store))
        cold = first.run_cells(specs)
        rec.finish("ok")
        assert len(simulated) == len(specs)
        assert first.metrics.counter("perf.cache_misses").value == \
            len(specs)

        second = ParallelRunner(workers=0, finished=stored_cells(store))
        warm = second.run_cells(specs)
    assert len(simulated) == len(specs), "a stored cell must not re-simulate"
    assert second.metrics.counter("perf.cache_hits").value == len(specs)
    assert second.metrics.counter("perf.simulated").value == 0
    assert second.last_wall_seconds == [None] * len(specs)
    assert [c.stats.snapshot() for c in warm] == \
        [c.stats.snapshot() for c in cold]


def test_runner_rejects_negative_workers():
    with pytest.raises(ValueError):
        ParallelRunner(workers=-1)


def test_run_variants_through_runner_matches_inline(tiny_workload):
    inline = run_variants(tiny_workload, VARIANTS, scale=SCALE, seed=5)
    via = run_variants(tiny_workload, VARIANTS, scale=SCALE, seed=5,
                       runner=ParallelRunner(workers=0))
    assert set(via) == set(inline)
    for variant in VARIANTS:
        assert via[variant].stats.snapshot() == \
            inline[variant].stats.snapshot()


def test_figure_speedups_through_runner_matches_inline(tiny_workload):
    kwargs = dict(variants=VARIANTS, baseline="LogTM-SE_Perf",
                  scale=SCALE, runs=2, seed=7)
    inline = figure_speedups(tiny_workload, **kwargs)
    via = figure_speedups(tiny_workload, runner=ParallelRunner(workers=0),
                          **kwargs)
    assert via.speedups == inline.speedups
    assert [c.stats.snapshot() for c in via.cells] == \
        [c.stats.snapshot() for c in inline.cells]
