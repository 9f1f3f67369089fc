"""The bench harness and its JSON artifact."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.bench import (
    BENCH_SCHEMA,
    bench_specs,
    check_regression,
    load_bench,
    membench,
    run_bench,
)
from repro.perf.runner import cell_key

DATA = Path(__file__).parent / "data"


def test_bench_specs_quick_subset():
    specs = bench_specs(quick=True)
    assert {s.workload.name for s in specs} == \
        {"Cholesky", "Vacation-Low", "mutex_ring"}
    assert {s.variant for s in specs} == {"TokenTM", "LogTM-SE_4xH3"}
    # Trace cells run at their recorded size.
    assert all(s.scale == 1.0 for s in specs
               if s.workload.name == "mutex_ring")


def test_bench_specs_traces_off():
    specs = bench_specs(quick=True, traces=False)
    assert {s.workload.name for s in specs} == {"Cholesky", "Vacation-Low"}


def test_run_bench_writes_schema_documented_json(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    db = tmp_path / "landscape.db"
    payload = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.5, traces=False,
        only=["grid"], landscape=str(db),
    )
    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["schema"] == BENCH_SCHEMA
    cells = on_disk["grid"]["cells"]
    assert len(cells) == 1
    cell = cells[0]
    assert cell["workload"] == "Cholesky"
    assert cell["variant"] == "TokenTM"
    assert cell["trace_ops"] > 0
    assert cell["wall_seconds"] > 0
    assert cell["sim_ops_per_sec"] > 0
    assert "cache_hit" not in cell
    assert on_disk["totals"]["trace_ops"] == cell["trace_ops"]
    assert on_disk["metrics"]["perf.simulated"]["value"] == 1
    # A second run on the same store records but never reuses: the
    # bench times simulation, so the cell simulates again.
    rerun = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.5, traces=False,
        only=["grid"], landscape=str(db),
    )
    again = rerun["grid"]["cells"][0]
    assert again["wall_seconds"] > 0
    assert again["makespan"] == cell["makespan"]
    assert rerun["metrics"]["perf.simulated"]["value"] == 1
    assert "perf.cache_hits" not in rerun["metrics"]


def test_bench_specs_fast_path_changes_cache_key():
    """A --no-fastpath verification run must never be answered from a
    fast-path cache entry (and vice versa)."""
    fast, = bench_specs(quick=True, workload_names=("Cholesky",),
                        variants=("TokenTM",), traces=False)
    slow, = bench_specs(quick=True, workload_names=("Cholesky",),
                        variants=("TokenTM",), fast_path=False,
                        traces=False)
    assert fast.payload()["fast_path"] is True
    assert slow.payload()["fast_path"] is False
    assert cell_key(fast) != cell_key(slow)


def test_membench_identical_stats_and_speedup():
    result = membench(rounds=1, blocks=16, repeats=6)
    assert result["identical_stats"] is True
    assert result["accesses"] > 0
    assert result["speedup"] > 0
    assert result["fastpath"]["htm_read_hits"] > 0
    assert result["fastpath"]["coherence_write_hits"] > 0


def test_run_bench_membench_section(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(
        out=str(out), quick=True, workload_names=("Cholesky",),
        variants=("TokenTM",), scale_factor=0.25,
    )
    mem = payload["membench"]
    assert mem["identical_stats"] is True
    assert mem["filtered_ops_per_sec"] > 0
    assert mem["unfiltered_ops_per_sec"] > 0
    assert payload["config"]["fast_path"] is True
    # The fast-path counters reach the artifact's metrics section.
    metrics = payload["metrics"]
    assert metrics["perf.fastpath.htm_read_hits"]["value"] > 0


def test_run_bench_only_sections(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(
        out=str(out), quick=True, only=["membench"],
    )
    assert payload["grid"] is None
    assert payload["totals"] is None
    assert payload["config"]["scales"] is None
    assert payload["membench"]["identical_stats"] is True
    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    # The skipped sections warn (not fail) against a full baseline.
    from repro.perf.bench import baseline_warnings

    grid_only = dict(payload, membench=None)
    assert check_regression(grid_only, payload) == []
    warnings = baseline_warnings(grid_only, payload)
    assert any("'membench' present in the baseline but not this run" in w
               for w in warnings)


def test_run_bench_only_rejects_unknown_section(tmp_path):
    from repro.common.errors import ConfigError

    # ``microbench`` was a section until schema /10.
    with pytest.raises(ConfigError, match="gird, microbench; "
                                          "available: grid, membench"):
        run_bench(out=str(tmp_path / "b.json"), quick=True,
                  only=["microbench", "gird"])


def test_format_bench_summary_handles_skipped_grid(tmp_path):
    from repro.perf.bench import format_bench_summary

    payload = run_bench(
        out=str(tmp_path / "b.json"), quick=True, only=["membench"],
    )
    summary = format_bench_summary(payload)
    assert "grid: skipped" in summary
    assert "memory stack" in summary


def test_bench_payload_has_no_wall_clock_identity(tmp_path):
    """Schema /8 dropped ``unix_time``: the committed artifact must
    not churn on every regeneration just because time passed.  Run
    timestamps belong to the landscape's run row, not the payload
    (docs/performance.md)."""
    payload = run_bench(
        out=str(tmp_path / "b.json"), quick=True, only=["membench"],
    )
    assert "unix_time" not in payload
    assert payload["schema"] == BENCH_SCHEMA == "repro-bench-perf/11"
    # Schema /9 dropped the kernel-backend section and config key;
    # /10 dropped the frozen-loop microbench and faultbench sections;
    # /11 dropped ``config.cache_dir`` (the bench never reuses cells).
    assert set(payload) == {"schema", "python", "config", "grid",
                            "totals", "membench", "parallel", "metrics"}
    assert set(payload["config"]) == {"seed", "workers", "quick",
                                      "fast_path", "scales", "traces"}


def test_load_baseline_missing_file_is_soft(tmp_path):
    from repro.perf.bench import load_baseline

    payload, problem = load_baseline(str(tmp_path / "nope.json"))
    assert payload is None
    assert "unreadable" in problem and "comparison skipped" in problem


def test_load_baseline_truncated_file_is_soft(tmp_path):
    from repro.perf.bench import load_baseline

    path = tmp_path / "empty.json"
    path.write_text("")
    payload, problem = load_baseline(str(path))
    assert payload is None
    assert "truncated" in problem and "comparison skipped" in problem


def test_load_baseline_invalid_json_is_soft(tmp_path):
    from repro.perf.bench import load_baseline

    path = tmp_path / "bad.json"
    path.write_text('{"schema": "repro-bench-perf/8", "membench"')
    payload, problem = load_baseline(str(path))
    assert payload is None
    assert "not valid JSON" in problem


def test_load_baseline_non_object_is_soft(tmp_path):
    from repro.perf.bench import load_baseline

    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    payload, problem = load_baseline(str(path))
    assert payload is None
    assert "not a bench payload object" in problem


def test_load_baseline_good_file_round_trips(tmp_path):
    from repro.perf.bench import load_baseline

    base = {"schema": BENCH_SCHEMA, "membench": {"speedup": 2.0}}
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(base))
    payload, problem = load_baseline(str(path))
    assert problem is None
    assert payload == base


def test_check_regression_compares_ratios(tmp_path):
    base = {"membench": {"speedup": 1.6}}
    ok = {"membench": {"speedup": 1.5}}
    bad = {"membench": {"speedup": 1.0}}
    assert check_regression(ok, base, tolerance=0.3) == []
    failures = check_regression(bad, base, tolerance=0.3)
    assert len(failures) == 1 and "membench" in failures[0]
    # Absent sections (e.g. --only grid) are skipped, not failed.
    assert check_regression({"membench": None}, base) == []
    # A ratio of a section retired at /10 is never compared.
    assert check_regression({"microbench": {"speedup": 0.1}, **ok},
                            {"microbench": {"speedup": 2.0}, **base}) == []
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(base))
    assert load_bench(str(path)) == base


@pytest.mark.parametrize("schema", [8, 9, 10])
def test_cli_baseline_against_schema8_file_warns(tmp_path, capsys, schema):
    """Older baselines still compare: exit 0 with a schema-mismatch
    warning.  /8 carries ``kernelbench``/``config.kernel``/``kernels.*``;
    /8 and /9 carry the ``microbench`` section retired at /10, whose
    ratio is ignored; /10 carries ``config.cache_dir`` and per-row
    ``cache_hit``, retired at /11.  The tolerance is wide open because this checks schema
    handling, not speed."""
    from repro.cli import main

    old = DATA / f"BENCH_perf_schema{schema}.json"
    assert json.loads(old.read_text())["schema"] == \
        f"repro-bench-perf/{schema}"
    rc = main(["bench", "--only", "membench",
               "--out", str(tmp_path / "b.json"),
               "--baseline", str(old), "--regression-tolerance", "0.99"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "schema mismatch" in captured.err
    assert f"repro-bench-perf/{schema}" in captured.err
    assert "microbench" not in captured.err + captured.out


@pytest.mark.parametrize("verb", [
    ["bench", "--only", "membench", "--regression-tolerance"],
    ["query", "--tolerance"],
], ids=["bench", "query"])
@pytest.mark.parametrize("value", ["nan", "-0.1"])
def test_cli_rejects_bad_tolerance(tmp_path, capsys, verb, value):
    """``nan`` would disable the gate, a negative tolerance would fail
    every run; both are usage errors before anything runs."""
    from repro.cli import main

    out = tmp_path / "b.json"
    target = ["--out", str(out)] if verb[0] == "bench" \
        else [str(tmp_path / "db")]
    with pytest.raises(SystemExit) as exc:
        main(verb + [value] + target)
    assert exc.value.code == 2
    assert "tolerance" in capsys.readouterr().err
    assert not out.exists()
