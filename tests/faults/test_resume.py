"""Campaign checkpointing: the landscape ledger, --resume, interruption.

The contract under test (docs/robustness.md, "Surviving the host"):
an interrupted campaign — SIGTERM, kill -9, or an explicit
``max_cells`` budget — resumes from its last finished cell, and the
merged result is identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3

import pytest

from repro.cli import main
from repro.faults.campaign import (
    campaign_cell_key,
    run_campaign,
)
from repro.faults.plan import default_plan
from repro.landscape import LandscapeStore, audit_store
from repro.perf.supervise import unwind_on_signals

#: Small enough for seconds-scale cells, same shape the chaos CLI
#: smoke tests use.
ARGS = dict(workload="Cholesky", variants=("tokentm",), seeds=(0, 1),
            scale=0.002, shrink=False)


def _summaries(result):
    return [(c.workload, c.variant, c.seed, c.ok) for c in result.cells]


def _leg(db, **kwargs):
    """One campaign invocation recorded as its own chaos run."""
    with LandscapeStore(db) as store:
        rec = store.begin_run("chaos")
        result = run_campaign(recorder=rec, **ARGS, **kwargs)
        rec.finish("interrupted" if result.interrupted else "ok")
        assert audit_store(store) == []
    return result


class TestCellKey:
    def test_key_is_content_addressed(self):
        plan = default_plan()
        key = campaign_cell_key("Cholesky", "tokentm", 3, plan, 0.002,
                                200, 8, None, None)
        assert key.startswith("Cholesky/TokenTM/s3/plan:")
        assert "skew:auto" in key and "mut:-" in key
        # Same content, aliased variant name: same key.
        assert key == campaign_cell_key("Cholesky", "TokenTM", 3, plan,
                                        0.002, 200, 8, None, None)
        # Different plan content: different key.
        other = default_plan(intensity=2.0)
        assert key != campaign_cell_key("Cholesky", "tokentm", 3, other,
                                        0.002, 200, 8, None, None)


class TestCampaignCheckpointing:
    def test_max_cells_interrupts_then_resume_completes(self, tmp_path):
        db = tmp_path / "landscape.db"
        clean = run_campaign(**ARGS)
        partial = _leg(db, max_cells=1)
        assert partial.interrupted
        assert len(partial.cells) == 1
        with LandscapeStore(db) as store:
            assert len(store.finished_results("chaos_cell")) == 1

        resumed = _leg(db, resume=True)
        assert not resumed.interrupted
        assert resumed.resumed_cells == 1
        assert _summaries(resumed) == _summaries(clean)
        assert resumed.summary() == clean.summary()

    def test_resume_after_sigterm_mid_campaign(self, tmp_path):
        """Simulated batch-scheduler kill: SIGTERM lands after the
        first cell; the ledger keeps it and the rerun picks up from
        cell 2."""
        db = tmp_path / "landscape.db"

        def bomb(_cell):
            os.kill(os.getpid(), signal.SIGTERM)

        with LandscapeStore(db) as store:
            rec = store.begin_run("chaos")
            with pytest.raises(SystemExit) as exc:
                with unwind_on_signals():
                    run_campaign(recorder=rec, progress=bomb, **ARGS)
            rec.finish("interrupted")
            assert audit_store(store) == []
            assert len(store.finished_results("chaos_cell")) == 1
        assert exc.value.code == 128 + signal.SIGTERM

        resumed = _leg(db, resume=True)
        assert resumed.resumed_cells == 1
        assert _summaries(resumed) == _summaries(run_campaign(**ARGS))

    def test_fully_recorded_campaign_runs_nothing(self, tmp_path):
        db = tmp_path / "landscape.db"
        _leg(db)
        replayed = _leg(db, resume=True, max_cells=0)
        # max_cells=0 forbids any simulation: completing anyway proves
        # every cell was answered from the landscape.
        assert not replayed.interrupted
        assert replayed.resumed_cells == len(replayed.cells) == 2

    def test_changed_plan_invalidates_recorded_cells(self, tmp_path):
        db = tmp_path / "landscape.db"
        _leg(db)
        rerun = _leg(db, resume=True, plan=default_plan(intensity=2.0))
        assert rerun.resumed_cells == 0  # different plan, new keys

    def test_healed_row_reruns(self, tmp_path):
        """A cell whose writer died mid-simulation is healed to
        ``interrupted``; resume re-runs it instead of merging it."""
        db = tmp_path / "landscape.db"
        key = campaign_cell_key("Cholesky", "tokentm", 0, default_plan(),
                                0.002, 200, 8, None, None)
        store = LandscapeStore(db)
        store.begin_run("chaos").open("chaos_cell", key)
        store.close()  # dead writer: run and work row left open
        with LandscapeStore(db) as store:
            assert store.healed_runs == 1
            assert store.finished_results("chaos_cell") == {}
        resumed = _leg(db, resume=True)
        assert resumed.resumed_cells == 0
        assert len(resumed.cells) == 2


class TestChaosResumeCLI:
    def test_interrupt_exits_3_then_resume_exits_0(self, tmp_path,
                                                   capsys):
        db = str(tmp_path / "landscape.db")
        base = ["chaos", "--workload", "Cholesky", "--variants",
                "tokentm", "--seeds", "2", "--scale", "0.002",
                "--no-shrink", "--out-dir", str(tmp_path / "bundles"),
                "--landscape", db]
        rc = main(base + ["--max-cells", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "campaign interrupted" in captured.err
        assert "--resume" in captured.err

        # Without --resume the store is only written, never read: the
        # budget interrupts again before the second cell.
        rc = main(base + ["--max-cells", "1", "--json"])
        captured = capsys.readouterr()
        assert rc == 3
        assert json.loads(captured.out)["cells"] == 1

        rc = main(base + ["--resume", "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["cells"] == 2
        assert payload["interrupted"] is False
        assert main(["audit", db]) == 0

    def test_resumed_json_summary_matches_clean_run(self, tmp_path,
                                                    capsys):
        base = ["chaos", "--workload", "Cholesky", "--variants",
                "tokentm", "--seeds", "2", "--scale", "0.002",
                "--no-shrink", "--out-dir", str(tmp_path / "bundles"),
                "--json"]
        assert main(base) == 0
        clean = json.loads(capsys.readouterr().out)

        db = str(tmp_path / "landscape.db")
        assert main(base + ["--landscape", db, "--max-cells", "1"]) == 3
        capsys.readouterr()
        assert main(base + ["--landscape", db, "--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed == clean

    def test_resume_defaults_landscape_path(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["chaos", "--workload", "Cholesky", "--variants",
                   "tokentm", "--seeds", "1", "--scale", "0.002",
                   "--no-shrink", "--resume"])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "landscape.db").exists()


def test_schema1_journal_era_rows_rerun(tmp_path, capsys):
    """A schema-1 store whose chaos cells were mirrored from the old
    JSONL journal: read-only audit leaves it at schema 1, a read-write
    open migrates it to 2, and --resume re-runs those cells because
    their outcomes carry no result."""
    db = tmp_path / "landscape.db"
    with LandscapeStore(db) as store:
        rec = store.begin_run("chaos")
        for seed in (0, 1):
            key = campaign_cell_key("Cholesky", "tokentm", seed,
                                    default_plan(), 0.002, 200, 8,
                                    None, None)
            rec.close_key("chaos_cell", key, "ok", detail="journaled",
                          workload="Cholesky", variant="TokenTM",
                          seed=seed)
        rec.finish("ok")
    conn = sqlite3.connect(db)
    conn.execute("ALTER TABLE outcomes DROP COLUMN result")
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()

    def version():
        conn = sqlite3.connect(db)
        try:
            return conn.execute("PRAGMA user_version").fetchone()[0]
        finally:
            conn.close()

    assert main(["audit", "--readonly", str(db)]) == 0
    assert main(["query", str(db)]) == 0
    capsys.readouterr()
    assert version() == 1

    base = ["chaos", "--workload", "Cholesky", "--variants", "tokentm",
            "--seeds", "2", "--scale", "0.002", "--no-shrink", "--json"]
    assert main(base) == 0
    clean = json.loads(capsys.readouterr().out)
    assert main(base + ["--landscape", str(db), "--resume"]) == 0
    assert json.loads(capsys.readouterr().out) == clean
    assert version() == 2
    with LandscapeStore(db, readonly=True) as store:
        assert audit_store(store) == []
        details = [o["detail"] for o in store.outcome_rows()]
        assert details == ["journaled", "journaled", None, None]


def test_run_campaign_without_recorder_unchanged():
    """The checkpointing knobs default off: no recorder, no store
    I/O, identical result object shape."""
    result = run_campaign(**ARGS)
    assert not result.interrupted
    assert result.resumed_cells == 0
    assert "interrupted" in result.summary()
