"""The landscape as the cell cache: cell keys and stored results."""

from __future__ import annotations

import dataclasses
import json
import sqlite3

from repro.common.config import HTMConfig, SystemConfig
from repro.landscape import LandscapeStore, audit_store
from repro.perf.runner import (
    CACHE_SCHEMA,
    CellSpec,
    ParallelRunner,
    cell_key,
    decode_cell,
    grid_specs,
    stored_cells,
)

from tests.perf.conftest import TINY_SPEC

#: Figure 5's machines plus OneTM: every result shape a grid stores.
ALL_VARIANTS = ("LogTM-SE_2xH3", "LogTM-SE_4xH3", "LogTM-SE_Perf",
                "TokenTM", "TokenTM_NoFast", "OneTM")


def _spec(**overrides) -> CellSpec:
    base = dict(workload=TINY_SPEC, variant="TokenTM", seed=1, scale=0.5)
    base.update(overrides)
    return CellSpec(**base)


def _run(store, specs, label="grid"):
    """One recorded grid run that serves what ``store`` finished."""
    rec = store.begin_run("grid", label=label)
    runner = ParallelRunner(workers=0, recorder=rec,
                            finished=stored_cells(store))
    cells = runner.run_cells(specs)
    rec.finish("ok")
    return runner, cells


def _set_result(db, key, text):
    """Overwrite every stored result of ``key`` (a damaged row)."""
    conn = sqlite3.connect(db)
    conn.execute("UPDATE outcomes SET result = ? WHERE work_id IN "
                 "(SELECT id FROM work WHERE key = ?)", (text, key))
    conn.commit()
    conn.close()


def test_cell_key_is_stable():
    assert cell_key(_spec()) == cell_key(_spec())


def test_cell_key_covers_every_result_knob():
    base = cell_key(_spec())
    assert cell_key(_spec(variant="LogTM-SE_Perf")) != base
    assert cell_key(_spec(seed=2)) != base
    assert cell_key(_spec(scale=0.25)) != base
    assert cell_key(_spec(threads=8)) != base
    small = SystemConfig(num_cores=16, clusters=4, cores_per_cluster=4)
    assert cell_key(_spec(system=small)) != base
    assert cell_key(_spec(htm=HTMConfig(tokens_per_block=64))) != base
    smaller = dataclasses.replace(TINY_SPEC, total_txns=24)
    assert cell_key(_spec(workload=smaller)) != base


def test_cell_key_folds_in_schema_version(monkeypatch):
    base = cell_key(_spec())
    monkeypatch.setattr("repro.perf.runner.CACHE_SCHEMA", CACHE_SCHEMA + 1)
    assert cell_key(_spec()) != base


def test_cache_roundtrip(tmp_path):
    """Every variant's cell comes back from its stored JSON exactly
    (dataclass equality, so every stats field and ``machine`` count),
    and the served cells equal the simulated ones."""
    specs = [_spec(variant=v) for v in ALL_VARIANTS]
    with LandscapeStore(tmp_path / "db") as store:
        _, cold = _run(store, specs)
        stored = stored_cells(store)
        runner, warm = _run(store, specs)
        assert audit_store(store) == []
    assert [stored[cell_key(s)] for s in specs] == cold
    assert warm == cold
    assert runner.metrics.counter("perf.simulated").value == 0
    for cell in cold:
        assert all(type(v) is int for v in cell.stats.machine.values())
        text = json.dumps(dataclasses.asdict(cell))
        assert decode_cell(text) == cell


def test_cache_truncated_entry_reads_as_miss(tmp_path):
    db = tmp_path / "db"
    spec = _spec()
    with LandscapeStore(db) as store:
        _run(store, [spec])
        (good,) = store.query("SELECT result FROM outcomes")
    key = cell_key(spec)
    _set_result(db, key, good["result"][: len(good["result"]) // 2])
    with LandscapeStore(db) as store:
        assert stored_cells(store) == {key: None}


def test_cache_stale_class_layout_reads_as_miss(tmp_path):
    """A result written under another stats layout — a field renamed,
    or one this build added and the row lacks — is a miss, never a
    cell with that field silently defaulted."""
    db = tmp_path / "db"
    spec = _spec()
    with LandscapeStore(db) as store:
        _, (cell,) = _run(store, [spec])
    key = cell_key(spec)
    renamed = dataclasses.asdict(cell)
    renamed["stats"]["span"] = renamed["stats"].pop("makespan")
    missing = dataclasses.asdict(cell)
    del missing["stats"]["fast"]["count"]
    for stale in (renamed, missing):
        _set_result(db, key, json.dumps(stale))
        with LandscapeStore(db) as store:
            assert stored_cells(store) == {key: None}


def test_cache_quarantine_reports_to_landscape_recorder(tmp_path):
    """An undecodable stored result is counted in
    ``perf.cache_corrupt`` and recorded as a non-terminal
    ``cache_quarantine`` event on the cell's own work row."""
    spec = _spec()
    key = cell_key(spec)
    with LandscapeStore(tmp_path / "db") as store:
        rec = store.begin_run("grid")
        runner = ParallelRunner(workers=0, recorder=rec,
                                finished={key: None})
        runner.run_cells([spec])
        rec.finish("ok")
        (event,) = [e for e in store.events_for(rec.run_id)
                    if e["kind"] == "cache_quarantine"]
        (work,) = store.work_rows(rec.run_id)
        assert event["work_id"] == work["id"]
        assert audit_store(store) == []
    assert runner.metrics.counter("perf.cache_corrupt").value == 1
    assert runner.metrics.counter("perf.simulated").value == 1


def test_runner_resimulates_quarantined_cell(tmp_path, tiny_workload):
    """End to end: a corrupted stored result re-simulates, yields the
    same cell, and its fresh ``ok`` row serves the next run."""
    db = tmp_path / "db"
    specs = grid_specs([tiny_workload], ("TokenTM",), seeds=(1,),
                       scale=0.5)
    with LandscapeStore(db) as store:
        _, cold = _run(store, specs)
    _set_result(db, cell_key(specs[0]), "corrupt")

    with LandscapeStore(db) as store:
        runner, warm = _run(store, specs)
        assert warm == cold
        assert runner.metrics.counter("perf.cache_corrupt").value == 1
        assert runner.metrics.counter("perf.simulated").value == 1
        again, _ = _run(store, specs)
        assert again.metrics.counter("perf.cache_hits").value == 1
        assert again.metrics.counter("perf.cache_corrupt").value == 0
        assert audit_store(store) == []


def test_failed_interrupted_and_healed_cells_rerun(tmp_path):
    """Only ``ok`` closes carry a result: a failed cell, a cell still
    open when its run finished, and a cell healed after its writer
    died are all absent from the finished map, so they re-simulate."""
    db = tmp_path / "db"
    failed, interrupted, healed = (_spec(seed=s) for s in (1, 2, 3))
    with LandscapeStore(db) as store:
        rec = store.begin_run("grid")
        rec.close_key("cell", cell_key(failed), "failed",
                      detail="raised")
        rec.open("cell", cell_key(interrupted))
        rec.finish("interrupted")
        store.begin_run("grid").open("cell", cell_key(healed))
    with LandscapeStore(db) as store:
        assert store.healed_runs == 1
        assert stored_cells(store) == {}
        runner, _ = _run(store, [failed, interrupted, healed])
        assert runner.metrics.counter("perf.simulated").value == 3
        assert audit_store(store) == []


def test_second_run_on_same_store_simulates_nothing(tmp_path,
                                                    tiny_workload):
    specs = grid_specs([tiny_workload], ("TokenTM", "LogTM-SE_Perf"),
                       seeds=(1, 2), scale=0.5)
    with LandscapeStore(tmp_path / "db") as store:
        first, cold = _run(store, specs)
        second, warm = _run(store, specs)
        served = [o for o in store.outcome_rows()
                  if o["detail"] == "served from landscape"]
    assert first.metrics.counter("perf.simulated").value == len(specs)
    assert second.metrics.counter("perf.simulated").value == 0
    assert second.metrics.counter("perf.cache_hits").value == len(specs)
    assert second.last_wall_seconds == [None] * len(specs)
    assert warm == cold
    # Served cells are booked with their result too, so every run's
    # rows hold its whole grid.
    assert len(served) == len(specs)
    assert all(o["result"] is not None for o in served)
