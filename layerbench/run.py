"""Layered host-time benchmark of the TokenTM simulator.

Run from the repository root::

    python3 layerbench/run.py --workload stamp-tokens --seed 2008 \\
        --seconds 30 --trace 0

prints a table of every metric with its unit and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of untraced runs,
``--trace 1`` the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name")
    parser.add_argument("--seed", type=int, default=2008,
                        help="workload seed (default 2008)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run with per-layer metrics")
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric, then exit")
    parser.add_argument("--update-digests", action="store_true",
                        help="rewrite digests.json at the default seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from layerbench import suite
    import_s = perf_counter() - start

    if args.list:
        for name, workload in suite.WORKLOADS.items():
            print(f"workload {name}: {workload.why}")
        for kind, table in (("end-to-end", suite.END_TO_END),
                            ("per-layer", suite.PER_LAYER)):
            for name, (unit, meaning) in table.items():
                print(f"{kind:10} {name:34} {unit:7} {meaning}")
        return 0
    if args.update_digests:
        suite.update_digests()
        print(f"wrote {suite.DIGEST_FILE}")
        return 0
    if args.workload not in suite.WORKLOADS:
        print(f"layerbench: --workload must be one of "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    result = suite.run(args.workload, seed=args.seed, seconds=args.seconds,
                       trace=bool(args.trace), import_s=import_s)
    for name, metric in result["metrics"].items():
        print(f"{name:34} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
