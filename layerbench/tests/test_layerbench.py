"""Self-test of the benchmark at tiny scale."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layerbench import suite, tracer

ROOT = Path(__file__).resolve().parents[2]

#: A tiny run: a sliver of every input, one input per source.
TINY = {"seed": 1, "scale": 0.05, "inputs": 1, "seconds": 0.0}


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _digests(name):
    inputs = suite.prepare(suite.WORKLOADS[name], TINY["seed"],
                           TINY["scale"], TINY["inputs"])
    plan = suite.cell_plan(suite.WORKLOADS[name], inputs)
    runs = suite.run_pass([cell for one_set in plan for cell in one_set])
    return {r.key: r.digest for r in runs}


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_every_workload_runs(name, tmp_path):
    spec = _benchmark_json()
    plain = suite.run(name, **TINY)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= len(suite.WORKLOADS[name].cells)
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]

    spans = tmp_path / "run.spans"
    traced = suite.run(name, trace=True, span_path=spans, **TINY)
    assert traced["correct"]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["cell_fail_frac"] == 0
    shares = sum(metrics[f"{layer}.share"] for layer in tracer.LAYERS)
    assert 0 < shares <= 1
    again = suite.run(name, trace=True, span_path=spans, **TINY)
    for key in ("sim_cycles", "abort_frac", "fast_release_err_pp"):
        assert again["metrics"][key] == traced["metrics"][key]

    records = list(tracer.read_spans(spans))
    assert records
    assert all(r["start_ns"] <= r["end_ns"] for r in records)


def test_altered_digest_is_a_failure(capsys):
    name = "splash-small"
    expected = _digests(name)
    key = sorted(expected)[0]
    expected[key] = "0" * len(expected[key])
    capsys.readouterr()
    result = suite.run(name, expected=expected, **TINY)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert key in capsys.readouterr().err


def test_traced_run_restores_every_attribute(tmp_path):
    before = {(owner, attr): vars(owner).get(attr)
              for _, owner, attr in tracer.targets()}
    suite.run("stamp-tokens", trace=True, span_path=tmp_path / "s.spans",
              **TINY)
    after = {(owner, attr): vars(owner).get(attr)
             for _, owner, attr in tracer.targets()}
    assert after == before


def test_committed_digests_match_workloads():
    for workload in suite.WORKLOADS.values():
        assert suite.load_expected(workload)


def test_fails_without_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "layerbench", tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", "stamp-sig",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
