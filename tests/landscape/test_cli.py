"""CLI surface: ``repro audit`` / ``repro query`` exit codes and the
``--baseline landscape`` resolution (docs/robustness.md contract)."""

from __future__ import annotations

import sqlite3

import pytest

from repro.cli import main
from repro.landscape import LandscapeStore
from repro.perf.bench import BENCH_SCHEMA


def _bench_store(db, speedups, schema9=False):
    """A store holding one trusted bench run per membench speedup.

    ``schema9`` records the runs at /9 instead, each also carrying a
    ``microbench`` ratio that collapses from run to run: that section
    was retired at /10 and must be neither reported nor gated.
    """
    schema = "repro-bench-perf/9" if schema9 else BENCH_SCHEMA
    with LandscapeStore(db) as store:
        for i, mem in enumerate(speedups):
            payload = {"schema": schema, "membench": {"speedup": mem}}
            if schema9:
                payload["microbench"] = {"speedup": 3.0 / (10 ** i)}
            rec = store.begin_run("bench", bench_schema=schema)
            rec.finish("ok", payload=payload)


@pytest.mark.parametrize("verb", ["chaos", "bench", "audit"])
def test_newer_schema_store_exits_2(tmp_path, capsys, verb):
    """A store from a newer build is refused with a one-line message
    and exit 2, never a traceback (or audit's exit 1)."""
    db = tmp_path / "db"
    LandscapeStore(db).close()
    conn = sqlite3.connect(db)
    conn.execute("PRAGMA user_version = 99")
    conn.close()
    argv = {
        "chaos": ["chaos", "--variants", "tokentm", "--seeds", "1",
                  "--scale", "0.002", "--no-shrink",
                  "--landscape", str(db)],
        "bench": ["bench", "--quick", "--only", "membench",
                  "--out", str(tmp_path / "b.json"),
                  "--landscape", str(db)],
        "audit": ["audit", str(db)],
    }[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{verb}: ")
    assert "newer than this build" in err
    assert err.count("\n") == 1


class TestAudit:
    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nope.db")]) == 2
        assert "no landscape store" in capsys.readouterr().err

    def test_clean_store_exits_0(self, tmp_path, capsys):
        db = tmp_path / "db"
        _bench_store(db, [2.0])
        assert main(["audit", str(db)]) == 0
        assert "ledger balanced" in capsys.readouterr().out

    def test_violation_exits_1(self, tmp_path, capsys):
        db = tmp_path / "db"
        with LandscapeStore(db) as store:
            rec = store.begin_run("grid")
            rec.close_key("cell", "k", "ok")
            rec.finish("ok")
        conn = sqlite3.connect(db)
        conn.execute("DELETE FROM outcomes")
        conn.commit()
        conn.close()
        assert main(["audit", str(db)]) == 1
        assert "orphan" in capsys.readouterr().out

    def test_dead_writer_heals_then_audits_clean(self, tmp_path, capsys):
        db = tmp_path / "db"
        store = LandscapeStore(db)
        store.begin_run("chaos").open("chaos_cell", "mid")
        store.close()  # dead writer
        # Read-only: report, don't heal.
        assert main(["audit", "--readonly", str(db)]) == 1
        assert "unfinished_run" in capsys.readouterr().out
        # Read-write: heal, then the books balance.
        assert main(["audit", str(db)]) == 0
        captured = capsys.readouterr()
        assert "healed 1 run(s)" in captured.err
        assert "ledger balanced" in captured.out
        assert main(["audit", str(db)]) == 0  # idempotent

    def test_corrupt_store_quarantined_exits_2(self, tmp_path, capsys):
        db = tmp_path / "db"
        db.write_bytes(b"not sqlite" * 100)
        assert main(["audit", str(db)]) == 2
        assert "quarantined" in capsys.readouterr().err
        assert (tmp_path / "db.corrupt").exists()

    def test_selftest_exits_0(self, capsys):
        assert main(["audit", "--selftest"]) == 0
        assert "self-test passed" in capsys.readouterr().out


class TestQuery:
    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope.db")]) == 2
        assert "no landscape store" in capsys.readouterr().err

    def test_no_regression_exits_0(self, tmp_path, capsys):
        db = tmp_path / "db"
        _bench_store(db, [2.0, 1.9])
        assert main(["query", str(db)]) == 0
        out = capsys.readouterr().out
        assert "2 trusted run(s)" in out
        assert "no regression" in out

    def test_regression_exits_1(self, tmp_path, capsys):
        db = tmp_path / "db"
        _bench_store(db, [2.0, 1.0])
        assert main(["query", str(db)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        # A looser tolerance passes the same store.
        assert main(["query", str(db), "--tolerance", "0.6"]) == 0

    def test_json_report(self, tmp_path, capsys):
        import json

        for schema9 in (False, True):
            db = tmp_path / f"db{int(schema9)}"
            _bench_store(db, [2.0, 1.9], schema9=schema9)
            assert main(["query", str(db), "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert [p["speedups"] for p in doc["points"]] == \
                [{"membench": 2.0}, {"membench": 1.9}]
            assert doc["deltas"] == {"membench": [2.0, 1.9]}
            assert doc["regressions"] == []


class TestBaselineLandscape:
    def test_no_store_warns_and_skips(self, tmp_path, capsys):
        rc = main(["bench", "--quick", "--only", "membench",
                   "--out", str(tmp_path / "b.json"),
                   "--landscape", str(tmp_path / "db"),
                   "--baseline", "landscape"])
        assert rc == 0
        assert "comparison skipped" in capsys.readouterr().err
        # The run itself still recorded into the (new) store.
        assert main(["audit", str(tmp_path / "db")]) == 0

    def test_resolves_newest_trusted_run(self, tmp_path, capsys):
        db = tmp_path / "db"
        # Seed a trusted baseline whose membench ratio matches any
        # real run (ratios compare against themselves loosely).
        with LandscapeStore(db) as store:
            rec = store.begin_run("bench", bench_schema=BENCH_SCHEMA)
            rec.finish("ok", payload={"schema": BENCH_SCHEMA,
                                      "membench": {"speedup": 0.01}})
        rc = main(["bench", "--quick", "--only", "membench",
                   "--out", str(tmp_path / "b.json"),
                   "--landscape", str(db),
                   "--baseline", "landscape"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no regression vs landscape store" in out
