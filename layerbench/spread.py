"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 layerbench/spread.py --seeds 10 --seconds 30 --trace 0 \\
        [--workload stamp-sig ...]

runs ``run.py`` once per (workload, seed), one run at a time, and
prints for every metric the sample count, the median, the quartiles
(``statistics.quantiles(n=4)``) and the interquartile range as a share
of the median.  Bounds in BENCHMARK.json come from these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in its own process; returns its result."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    """(n, median, q1, q3, iqr / median) of one metric's samples."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return len(values), med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload (repeatable; default all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]
    from layerbench.suite import WORKLOADS
    names = args.workload or list(WORKLOADS)
    ok = True
    for name in names:
        samples = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = one_run(name, seed, args.seconds, args.trace)
            ok &= result["correct"]
            for metric, entry in result["metrics"].items():
                samples.setdefault(metric, []).append(entry["value"])
        print(f"== {name}")
        for metric, values in samples.items():
            n, med, q1, q3, spread = summarize(values)
            print(f"{metric:34} n={n:<3} median={med:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
