"""The durable store: WAL round trips, heal-on-reopen, quarantine,
schema versioning, and the in-process ledger guards."""

from __future__ import annotations

import sqlite3

import pytest

from repro.common.errors import ConfigError
from repro.landscape import (
    LANDSCAPE_COUNTERS,
    LandscapeStore,
    LedgerError,
    audit_store,
)
from repro.landscape.schema import LANDSCAPE_SCHEMA
from repro.obs.metrics import MetricsRegistry


def _db(tmp_path):
    return tmp_path / "landscape.db"


def test_run_work_outcome_roundtrip(tmp_path):
    registry = MetricsRegistry()
    with LandscapeStore(_db(tmp_path), metrics=registry) as store:
        rec = store.begin_run(
            "grid", label="test", git_rev="abc123", cache_schema=5,
            seed=7, provenance={"note": "roundtrip"})
        rec.open("cell", "deadbeef", workload="Tiny", variant="TokenTM",
                 seed=7)
        rec.event("retry", "attempt 2", key=("cell", "deadbeef"))
        rec.close_key("cell", "deadbeef", "ok", detail="simulated")
        rec.finish("ok", metrics_snapshot={"perf.simulated": 1})

    with LandscapeStore(_db(tmp_path), readonly=True) as store:
        run, = store.runs()
        assert run["kind"] == "grid"
        assert run["status"] == "ok"
        assert run["git_rev"] == "abc123"
        assert run["cache_schema"] == 5
        assert run["kernel"] is None  # column kept for old rows
        assert run["seed"] == 7
        assert run["healed"] == 0
        assert run["finished_unix"] >= run["started_unix"]
        work, = store.work_rows()
        assert (work["kind"], work["key"]) == ("cell", "deadbeef")
        assert work["workload"] == "Tiny"
        outcome, = store.outcome_rows()
        assert outcome["work_id"] == work["id"]
        assert outcome["outcome"] == "ok"
        assert outcome["detail"] == "simulated"
        event, = [e for e in store.events_for(run["id"])
                  if e["kind"] == "retry"]
        assert event["work_id"] == work["id"]

    snap = registry.snapshot()
    assert snap["landscape.runs"]["value"] == 1
    assert snap["landscape.work_opened"]["value"] == 1
    assert snap["landscape.work_closed"]["value"] == 1
    assert snap["landscape.events"]["value"] == 1
    assert snap["landscape.healed"]["value"] == 0
    assert snap["landscape.corrupt"]["value"] == 0
    assert set(LANDSCAPE_COUNTERS) <= set(snap)


def test_recorder_guards_double_close_and_double_finish(tmp_path):
    with LandscapeStore(_db(tmp_path)) as store:
        rec = store.begin_run("grid")
        work_id = rec.open("cell", "k1")
        rec.close(work_id, "ok")
        with pytest.raises(LedgerError, match="double close"):
            rec.close(work_id, "ok")
        rec.finish("ok")
        with pytest.raises(LedgerError, match="already finished"):
            rec.finish("ok")


def test_finish_closes_leftover_work_as_interrupted(tmp_path):
    with LandscapeStore(_db(tmp_path)) as store:
        rec = store.begin_run("chaos")
        rec.open("chaos_cell", "left-open")
        rec.finish("interrupted")
        outcome, = store.outcome_rows()
        assert outcome["outcome"] == "interrupted"
        assert "still open" in outcome["detail"]


def test_close_key_untracked_opens_and_closes_atomically(tmp_path):
    """A resumed chaos cell was dispatched by a *previous* process;
    this recorder still books both sides so the ledger balances."""
    with LandscapeStore(_db(tmp_path)) as store:
        rec = store.begin_run("chaos")
        rec.close_key("chaos_cell", "resumed", "ok",
                      detail="resumed from landscape", workload="Tiny",
                      result={"error": {}, "bundle_path": None})
        rec.finish("ok")
        work, = store.work_rows()
        outcome, = store.outcome_rows()
        assert work["key"] == "resumed"
        assert outcome["outcome"] == "ok"
        assert outcome["result"] == '{"bundle_path":null,"error":{}}'


def test_rejected_untracked_close_writes_nothing(tmp_path):
    """An unknown outcome is refused before the work row is written:
    no orphan for ``finish()`` to miss and the audit to report."""
    with LandscapeStore(_db(tmp_path)) as store:
        rec = store.begin_run("chaos")
        before = store.work_rows()
        with pytest.raises(LedgerError, match="bogus"):
            rec.close_key("chaos_cell", "k1", "bogus")
        assert store.work_rows() == before
        rec.finish("ok")
        assert audit_store(store) == []


def test_rejected_tracked_close_stays_open(tmp_path):
    """A refused close leaves the row tracked, so ``finish()`` still
    closes it as interrupted."""
    with LandscapeStore(_db(tmp_path)) as store:
        rec = store.begin_run("chaos")
        rec.open("chaos_cell", "k1")
        with pytest.raises(LedgerError, match="bogus"):
            rec.close_key("chaos_cell", "k1", "bogus")
        rec.finish("interrupted")
        outcome, = store.outcome_rows()
        assert outcome["outcome"] == "interrupted"
        assert audit_store(store) == []


def test_unknown_vocabulary_rejected_at_write(tmp_path):
    with LandscapeStore(_db(tmp_path)) as store:
        with pytest.raises(LedgerError, match="run kind"):
            store.begin_run("sprint")
        rec = store.begin_run("grid")
        with pytest.raises(LedgerError, match="work kind"):
            rec.open("sprint_cell", "k")
        work_id = rec.open("cell", "k")
        with pytest.raises(LedgerError, match="terminal outcome"):
            store.close_work(work_id, "maybe")
        with pytest.raises(LedgerError, match="run status"):
            rec.finish("maybe")


def test_readonly_missing_raises_and_writes_refused(tmp_path):
    with pytest.raises(ConfigError, match="no landscape store"):
        LandscapeStore(_db(tmp_path), readonly=True)
    with LandscapeStore(_db(tmp_path)) as store:
        store.begin_run("grid").finish("ok")
    with LandscapeStore(_db(tmp_path), readonly=True) as store:
        with pytest.raises(LedgerError, match="read-only"):
            store.begin_run("grid")


def test_heal_on_reopen_after_dead_writer(tmp_path):
    """A writer that dies (simulated: store dropped without finish)
    leaves an open run + open work; the next read-write open heals
    both to honest ``interrupted`` rows with ``healed=1``."""
    store = LandscapeStore(_db(tmp_path))
    rec = store.begin_run("grid", label="doomed")
    rec.open("cell", "in-flight")
    store.close()  # the process "dies": no close, no finish

    registry = MetricsRegistry()
    with LandscapeStore(_db(tmp_path), metrics=registry) as store:
        assert store.healed_runs == 1
        run, = store.runs()
        assert run["status"] == "interrupted"
        assert run["healed"] == 1
        outcome, = store.outcome_rows()
        assert outcome["outcome"] == "interrupted"
        assert outcome["healed"] == 1
        heal_events = [e for e in store.events_for(run["id"])
                       if e["kind"] == "healed"]
        assert len(heal_events) == 1
    assert registry.counter("landscape.healed").value == 1


def test_heal_leaves_closed_work_alone(tmp_path):
    store = LandscapeStore(_db(tmp_path))
    rec = store.begin_run("grid")
    rec.close_key("cell", "done", "ok", detail="simulated")
    rec.open("cell", "in-flight")
    store.close()

    with LandscapeStore(_db(tmp_path)) as store:
        outcomes = {o["detail"]: o["outcome"]
                    for o in store.outcome_rows()}
        assert outcomes["simulated"] == "ok"
        assert len(store.outcome_rows()) == 2


def test_corrupt_database_quarantined_on_rw_open(tmp_path):
    db = _db(tmp_path)
    db.write_bytes(b"this is not a sqlite database at all" * 64)
    registry = MetricsRegistry()
    with LandscapeStore(db, metrics=registry) as store:
        assert store.quarantined == 1
        assert store.runs() == []  # fresh store took the slot
        store.begin_run("grid").finish("ok")
    corrupt = db.parent / (db.name + ".corrupt")
    assert corrupt.exists(), "evidence of corruption must survive"
    assert registry.counter("landscape.corrupt").value == 1


def test_corrupt_database_refused_readonly(tmp_path):
    db = _db(tmp_path)
    db.write_bytes(b"garbage bytes, not sqlite" * 64)
    with pytest.raises(ConfigError, match="unreadable"):
        LandscapeStore(db, readonly=True)
    assert db.exists(), "read-only open must never quarantine"


def test_newer_schema_refused(tmp_path):
    db = _db(tmp_path)
    with LandscapeStore(db) as store:
        store.begin_run("grid").finish("ok")
    conn = sqlite3.connect(db)
    conn.execute(f"PRAGMA user_version = {LANDSCAPE_SCHEMA + 1}")
    conn.close()
    with pytest.raises(ConfigError, match="newer than this build"):
        LandscapeStore(db)
    with pytest.raises(ConfigError, match="newer than this build"):
        LandscapeStore(db, readonly=True)


def test_forward_migration_machinery(tmp_path, monkeypatch):
    """Exercise the machinery with a registered fake step one past
    the current schema, so the next bump is routine."""
    db = _db(tmp_path)
    with LandscapeStore(db) as store:
        store.begin_run("grid").finish("ok")

    monkeypatch.setattr("repro.landscape.store.LANDSCAPE_SCHEMA",
                        LANDSCAPE_SCHEMA + 1)
    monkeypatch.setattr(
        "repro.landscape.store.MIGRATIONS",
        {LANDSCAPE_SCHEMA: ("ALTER TABLE runs ADD COLUMN note TEXT",)})
    with LandscapeStore(db) as store:
        version = store.query("PRAGMA user_version")[0][0]
        assert version == LANDSCAPE_SCHEMA + 1
        run, = store.runs()  # old rows survive the migration
        assert run["status"] == "ok"
        assert run["note"] is None  # the new column exists


def test_missing_migration_step_refused(tmp_path, monkeypatch):
    db = _db(tmp_path)
    with LandscapeStore(db) as store:
        store.begin_run("grid").finish("ok")
    monkeypatch.setattr("repro.landscape.store.LANDSCAPE_SCHEMA",
                        LANDSCAPE_SCHEMA + 1)
    with pytest.raises(ConfigError, match="no migration"):
        LandscapeStore(db)


def test_second_writer_refused_leaves_live_run_open(tmp_path):
    """A second read-write open of a live store is refused instead of
    healing the live writer's run out from under it: the live run
    stays ``open``, closes normally, and the ledger balances."""
    db = _db(tmp_path)
    live = LandscapeStore(db)
    rec = live.begin_run("grid")
    work_id = rec.open("cell", "k1")
    with pytest.raises(ConfigError, match="open read-write elsewhere"):
        LandscapeStore(db)
    run, = live.runs()
    assert run["status"] == "open"
    rec.close(work_id, "ok")
    rec.finish("ok")
    live.close()

    with LandscapeStore(db, readonly=True) as store:
        assert audit_store(store) == []
        outcome, = store.outcome_rows()
        assert (outcome["outcome"], outcome["healed"]) == ("ok", 0)
    with LandscapeStore(db) as store:  # the lock went with close()
        assert store.healed_runs == 0


def test_readonly_open_takes_no_writer_lock(tmp_path):
    db = _db(tmp_path)
    with LandscapeStore(db) as live:
        live.begin_run("grid").finish("ok")
        with LandscapeStore(db, readonly=True) as reader:
            assert audit_store(reader) == []
    with LandscapeStore(db, readonly=True):
        with LandscapeStore(db) as writer:
            assert writer.healed_runs == 0


def test_forked_child_does_not_hold_writer_lock(tmp_path):
    """Pool workers are forked while the grid's store is open.  A
    child that kept the lock would outlive a killed parent and block
    heal-on-reopen; the child's copy is closed at fork instead."""
    import os
    import signal

    db = _db(tmp_path)
    store = LandscapeStore(db)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        os.close(read_end)
        os.write(write_end, b"x")
        signal.pause()
        os._exit(0)
    try:
        os.close(write_end)
        assert os.read(read_end, 1) == b"x"
        os.close(read_end)
        store.close()  # the "parent" is gone; its child lives on
        LandscapeStore(db).close()
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
