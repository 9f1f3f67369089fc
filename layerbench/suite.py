"""Workloads, measurement and output checks of the layered benchmark.

Each workload is a fixed list of grid cells (input source x HTM
variant), run closed-loop in one process: one cell at a time, each on
a fresh, cold machine, with no worker pool, result cache or landscape
store.  A workload seed expands into a pool of ``inputs`` input sets
(:func:`repro.common.rng.perturbation_seeds`), one trace per source
each.  Host time per input varies by 10-65% from seed to seed, and it
does not average out within one long input, because a few giant
transactions decide how much work is wasted; so one run averages over
many small independent inputs.

The program is reached only through its public entry points: the
workload generators, the trace-fixture loaders, ``MemorySystem``,
``make_htm`` and ``Executor``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coherence.protocol import MemorySystem
from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.common.rng import perturbation_seeds
from repro.htm import make_htm
from repro.runtime.executor import Executor
from repro.traces.workload import fixture_workloads
from repro.workloads import (OP_NT_READ, OP_NT_WRITE, OP_READ, OP_WRITE,
                             static_set_sizes, tm_workloads)

from layerbench.tracer import LAYERS, SpanTracer, span_name, targets

#: Seed the committed digests were made with.  Seed 2009 is held out
#: for confirming a later claim (README.md).
DEFAULT_SEED = 2008

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "digests.json"

#: Figure 5 operating point: fraction of each Table 5 transaction
#: count that one input holds before a workload's own ``scale``.
BASE_SCALES: Dict[str, float] = {
    "Barnes": 0.2, "Cholesky": 0.01, "Radiosity": 0.02,
    "Raytrace": 0.01, "Delaunay": 0.015, "Genome": 0.004,
    "Vacation-Low": 0.02, "Vacation-High": 0.02,
}

#: Paper Table 6, column 2: % of transactions committing fast.
PAPER_FAST_PCT: Dict[str, float] = {
    "Barnes": 94.4, "Cholesky": 95.7, "Radiosity": 93.0,
    "Raytrace": 98.2, "Delaunay": 72.4, "Genome": 99.4,
    "Vacation-Low": 53.4, "Vacation-High": 38.6,
}

FIXTURE = "fixture:"
THREADS = 32


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: cells run serially on fresh machines."""

    name: str
    why: str
    #: (source, variant); a source is a Table 5 workload name or
    #: ``fixture:<name>`` for a committed event trace.
    cells: Tuple[Tuple[str, str], ...]
    #: Multiplier on :data:`BASE_SCALES` for every synthetic source.
    scale: float
    #: Input sets in the pool, each from its own derived seed; sized
    #: so one pass over the pool takes about 28 s on a 2-core host.
    #: A slower host runs a prefix of the pool in the same time.
    inputs: int

    @property
    def sources(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(src for src, _ in self.cells))


def _grid(sources: Sequence[str],
          variants: Sequence[str]) -> Tuple[Tuple[str, str], ...]:
    return tuple((s, v) for s in sources for v in variants)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "stamp-sig",
        "Bloom signature probes dominate; LogTM-SE_Perf runs exact "
        "signatures on the same inputs, so a Bloom gain that costs the "
        "exact path shows",
        _grid(("Delaunay", "Vacation-High"),
              ("LogTM-SE_2xH3", "LogTM-SE_4xH3", "LogTM-SE_Perf")),
        scale=0.15, inputs=16),
    Workload(
        "stamp-tokens",
        "token bookkeeping and the L1 miss path dominate with no "
        "signature probes; NoFast sends every commit through the "
        "software log walk",
        _grid(("Delaunay", "Vacation-High", "Vacation-Low", "Genome"),
              ("TokenTM", "TokenTM_NoFast")),
        scale=0.2, inputs=13),
    Workload(
        "splash-small",
        "small L1-resident transactions: per-op kernel, fast-path "
        "filter and interconnect costs; fixtures add signal/wait "
        "scheduling and trace parsing",
        _grid(("Barnes", "Cholesky", "Radiosity", "Raytrace"),
              ("TokenTM", "LogTM-SE_Perf"))
        + _grid((FIXTURE + "barrier_storm", FIXTURE + "mutex_ring",
                 FIXTURE + "prodcons"), ("TokenTM",)),
        scale=2.0, inputs=10),
    # Not in BENCHMARK.json: too unsteady over seeds to gate on
    # (README.md).
    Workload(
        "onetm-overflow",
        "the only workload running OneTM, whose overflow check "
        "re-walks the read and write sets through L1 lookups",
        _grid(("Vacation-High", "Delaunay"), ("OneTM",)),
        scale=0.12, inputs=12),
)}


# -- metrics ---------------------------------------------------------------

#: End-to-end metrics, from untraced runs: name -> (unit, meaning).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "sim_ops_per_s": ("1/s", "retired trace ops per host second, "
                             "all cells"),
    "cell_wall_max_s": ("s", "host seconds of the slowest cell, mean "
                             "over its input sets"),
    "setup_s": ("s", "host seconds of imports, input generation or "
                     "fixture conversion, and machine construction"),
    "peak_rss_mb": ("MB", "peak host resident memory"),
}

#: Per-layer metrics, from the traced run: name -> (unit, meaning).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim_cycles": ("cycles", "summed simulated makespan"),
    "abort_frac": ("1", "simulated aborts / (commits + aborts)"),
    "fast_release_err_pp": ("pp", "mean |measured - paper Table 6| "
                                  "fast-release %, TokenTM cells; 0 "
                                  "without such cells"),
    "cell_fail_frac": ("1", "failed cell runs / cell runs attempted"),
    "workloads.generate_s": ("s", "input generation in set-up"),
    "traces.load_s": ("s", "fixture conversion in set-up"),
    "kernels.quanta": ("count", "InterpKernel.run_quantum calls"),
    "runtime.resolve_calls": ("count", "TimestampManager.resolve calls"),
    "runtime.stall_events": ("count", "simulated stall events"),
    "htm.access_calls": ("count", "HTM read/write/nontxn_* calls"),
    "htm.commit_calls": ("count", "HTM commit calls"),
    "htm.abort_calls": ("count", "HTM abort calls"),
    "htm.access_per_retired_op": ("1", "HTM access calls per memory op "
                                       "of the inputs (wasted work)"),
    "core.log_append_calls": ("count", "TmLog.append calls"),
    "core.log_walk_calls": ("count", "TmLog.walk_* calls"),
    "core.fission_fuse_calls": ("count", "fission and fuse calls"),
    "core.fast_release_frac": ("1", "fast-release commits / commits, "
                                    "TokenTM-family cells"),
    "mem.metabit_ops": ("count", "MetabitStore load and store calls"),
    "coherence.access_calls": ("count", "MemorySystem.access calls"),
    "coherence.fast_hit_calls": ("count", "MemorySystem.fast_hit calls"),
    "coherence.directory_ops": ("count", "Directory.record_* calls"),
    "coherence.l1_lookup_calls": ("count", "L1Cache.lookup calls"),
    "coherence.l1_lookup_per_access": ("1", "L1 lookups per "
                                            "MemorySystem.access call"),
    "coherence.fastpath_hit_frac": ("1", "coherence accesses answered "
                                         "by the hit filter"),
    "coherence.l1_hit_frac": ("1", "simulated L1 hits / accesses"),
    "signatures.test_calls": ("count", "signature test calls"),
    "signatures.insert_calls": ("count", "signature insert calls"),
    "signatures.test_per_access": ("1", "signature tests per HTM access "
                                        "call"),
    "signatures.false_positive_frac": ("1", "false-positive conflicts / "
                                            "conflicts"),
    "interconnect.latency_calls": ("count", "TiledTopology *latency "
                                            "calls"),
    "trace.overhead_frac": ("1", "traced wall / untraced wall - 1"),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", f"{_layer} self time, traced")
    PER_LAYER[f"{_layer}.share"] = ("1", f"{_layer} self time / traced "
                                         "cell wall")


# -- inputs ----------------------------------------------------------------

@dataclass
class Inputs:
    """Everything set-up produced for one workload run."""

    #: source -> [(trace, run seed)], one entry per input set.
    traces: Dict[str, List[tuple]]
    generate_s: float
    load_s: float
    construct_s: float

    @property
    def total_s(self) -> float:
        return self.generate_s + self.load_s + self.construct_s


def build_machine(variant: str, trace, run_seed: int):
    """A fresh cold machine and executor for one cell run."""
    system, htm_cfg = SystemConfig(), HTMConfig()
    mem = MemorySystem(system)
    htm = make_htm(variant, mem, htm_cfg)
    config = RunConfig(system=system, htm=htm_cfg, seed=run_seed,
                       kernel="interp")
    executor = Executor(htm, trace, config, validate=False,
                        track_history=False)
    return mem, htm, executor


def prepare(workload: Workload, seed: int, scale: float = 1.0,
            inputs: Optional[int] = None) -> Inputs:
    """Generate or convert every input and build every machine once."""
    seeds = perturbation_seeds(seed, inputs or workload.inputs)
    generators = tm_workloads()
    out: Dict[str, List[tuple]] = {}
    start = perf_counter()
    for src in workload.sources:
        if src.startswith(FIXTURE):
            continue
        size = BASE_SCALES[src] * workload.scale * scale
        out[src] = [(generators[src].generate(seed=s, scale=size,
                                              threads=THREADS), s)
                    for s in seeds]
    generate_s = perf_counter() - start
    start = perf_counter()
    fixtures = [src for src in workload.sources if src.startswith(FIXTURE)]
    if fixtures:
        loaded = fixture_workloads()
        for src in fixtures:
            trace = loaded[src[len(FIXTURE):]].generate()
            out[src] = [(trace, s) for s in seeds]
    load_s = perf_counter() - start
    start = perf_counter()
    for src, variant in workload.cells:
        for trace, run_seed in out[src]:
            build_machine(variant, trace, run_seed)
    construct_s = perf_counter() - start
    return Inputs(out, generate_s, load_s, construct_s)


# -- one cell run ----------------------------------------------------------

@dataclass
class CellRun:
    """Outcome of one (cell, input) run."""

    key: str
    source: str
    variant: str
    wall_s: float
    digest: str = ""
    error: str = ""
    ops: int = 0
    mem_ops: int = 0
    commits: int = 0
    aborts: int = 0
    makespan: int = 0
    fast: int = 0
    stall_events: int = 0
    conflicts: int = 0
    false_positives: int = 0
    coherence_accesses: int = 0
    l1_hits: int = 0
    fastpath_hits: int = 0


def digest(stats, protocol) -> str:
    """Canonical-JSON digest of ``RunStats`` + ``ProtocolStats``."""
    payload = {"run": stats.snapshot(), "protocol": protocol.snapshot()}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _trace_counts(trace) -> Tuple[int, int, int]:
    """(ops, memory ops, transactions) of an input trace."""
    memory = (OP_READ, OP_WRITE, OP_NT_READ, OP_NT_WRITE)
    ops = sum(len(t.ops) for t in trace.threads)
    mem_ops = sum(1 for t in trace.threads for op, _ in t.ops
                  if op in memory)
    return ops, mem_ops, len(static_set_sizes(trace))


def run_cell(key: str, source: str, variant: str, trace, run_seed: int,
             counts: Tuple[int, int, int],
             tracer: Optional[SpanTracer] = None) -> CellRun:
    """Time one cell run on a cold machine and check its output.

    With a tracer the layer methods are wrapped for exactly the timed
    region; the token audit runs after they are restored.
    """
    gc.collect()
    try:
        with tracer.patched() if tracer else nullcontext():
            start = perf_counter()
            mem, htm, executor = build_machine(variant, trace, run_seed)
            stats = executor.run().stats
            wall = perf_counter() - start
        if tracer:
            htm.audit()
    except Exception:  # one failed cell must not hide the others
        return CellRun(key, source, variant, 0.0,
                       error=traceback.format_exc(limit=3))
    ops, mem_ops, txns = counts
    run = CellRun(
        key, source, variant, wall, digest=digest(stats, mem.stats),
        ops=ops, mem_ops=mem_ops, commits=stats.commits,
        aborts=stats.aborts, makespan=stats.makespan,
        fast=stats.fast.count, stall_events=stats.stall_events,
        conflicts=stats.machine.get("conflicts", 0),
        false_positives=stats.machine.get("false_positive_conflicts", 0),
        coherence_accesses=mem.stats.reads + mem.stats.writes,
        l1_hits=mem.stats.l1_hits,
        fastpath_hits=(mem.fastpath.coherence_read_hits
                       + mem.fastpath.coherence_write_hits),
    )
    if stats.commits != txns:
        run.error = f"{stats.commits} commits for {txns} transactions"
    return run


def cell_plan(workload: Workload, inputs: Inputs) -> List[List[tuple]]:
    """Per input set, (key, source, variant, trace, run seed, counts)
    of each cell run.

    A run goes input set by input set, so each cell's runs spread
    over the whole run and host-speed drift hits every cell alike.
    """
    counts = {id(trace): _trace_counts(trace)
              for runs in inputs.traces.values() for trace, _ in runs}
    sets = len(next(iter(inputs.traces.values())))
    return [[(f"{src}/{variant}/{i}", src, variant, *inputs.traces[src][i],
              counts[id(inputs.traces[src][i][0])])
             for src, variant in workload.cells]
            for i in range(sets)]


def run_pass(plan: List[tuple],
             tracer: Optional[SpanTracer] = None,
             span_out=None) -> List[CellRun]:
    """Run every planned cell once, in order."""
    runs = []
    for cell_id, (key, src, variant, trace, run_seed, counts) in \
            enumerate(plan):
        if tracer is not None:
            tracer.cell[0] = cell_id
        runs.append(run_cell(key, src, variant, trace, run_seed, counts,
                             tracer))
        if tracer is not None:
            tracer.flush(span_out)
    return runs


# -- digests ---------------------------------------------------------------

def workload_config(workload: Workload) -> Dict[str, object]:
    """What the committed digests of a workload depend on."""
    return {"scale": workload.scale, "inputs": workload.inputs,
            "threads": THREADS,
            "base_scales": {s: BASE_SCALES[s] for s in workload.sources
                            if not s.startswith(FIXTURE)}}


def load_expected(workload: Workload,
                  path: Path = DIGEST_FILE) -> Dict[str, str]:
    """Committed digests of ``workload`` at the default seed."""
    data = json.loads(Path(path).read_text())
    entry = data["workloads"][workload.name]
    if entry["config"] != workload_config(workload):
        raise ValueError(f"{path}: digests of {workload.name} were made "
                         "for another configuration; regenerate them")
    return entry["digests"]


def check_runs(runs: List[CellRun],
               expected: Optional[Dict[str, str]]) -> List[str]:
    """Name every failed run; fills ``error`` on digest mismatches."""
    for run in runs:
        if not run.error and expected is not None \
                and expected.get(run.key) != run.digest:
            run.error = (f"digest {run.digest} != expected "
                         f"{expected.get(run.key)}")
    return [f"{run.key}: {run.error.strip().splitlines()[-1]}"
            for run in runs if run.error]


# -- metrics ---------------------------------------------------------------

def _simulated(runs: List[CellRun]) -> Dict[str, float]:
    """Seed-determined simulated metrics of one pass."""
    commits = sum(r.commits for r in runs)
    aborts = sum(r.aborts for r in runs)
    gaps = []
    by_cell: Dict[tuple, List[CellRun]] = {}
    for run in runs:
        by_cell.setdefault((run.source, run.variant), []).append(run)
    for (src, variant), cell_runs in by_cell.items():
        if variant == "TokenTM" and src in PAPER_FAST_PCT:
            fast = sum(r.fast for r in cell_runs)
            done = sum(r.commits for r in cell_runs)
            gaps.append(abs(100.0 * fast / done - PAPER_FAST_PCT[src]))
    return {
        "sim_cycles": float(sum(r.makespan for r in runs)),
        "abort_frac": aborts / (commits + aborts) if commits else 0.0,
        "fast_release_err_pp": statistics.fmean(gaps) if gaps else 0.0,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runs: List[CellRun], setup_s: float) -> Dict[str, float]:
    """End-to-end metrics of an untraced run.

    A cell run that was repeated counts once, with its median wall.  A
    cell's wall is its mean over the input sets that were run.
    """
    repeats: Dict[str, List[CellRun]] = {}
    for run in runs:
        repeats.setdefault(run.key, []).append(run)
    cells: Dict[tuple, List[float]] = {}
    ops = total = 0.0
    for same in repeats.values():
        wall = statistics.median(r.wall_s for r in same)
        cells.setdefault((same[0].source, same[0].variant), []).append(wall)
        ops += same[0].ops
        total += wall
    return {
        "sim_ops_per_s": ops / total if total else 0.0,
        "cell_wall_max_s": max(statistics.fmean(w) for w in cells.values()),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(untraced: List[CellRun], traced: List[CellRun],
              tracer: SpanTracer, inputs: Inputs) -> Dict[str, float]:
    """Per-layer metrics of a traced pass."""
    c = tracer.count
    htm_names = [span_name(owner, attr) for layer, owner, attr in targets()
                 if layer == "htm"]
    access = c(*[n for n in htm_names
                 if n.split(".")[1] in ("read", "write", "nontxn_read",
                                        "nontxn_write")])
    coherence_access = c("MemorySystem.access")
    lookups = c("L1Cache.lookup")
    sig_tests = c("BloomSignature.test", "PerfectSignature.test")
    mem_ops = sum(r.mem_ops for r in traced)
    tokentm = [r for r in traced if r.variant.startswith("TokenTM")]
    tok_commits = sum(r.commits for r in tokentm)
    conflicts = sum(r.conflicts for r in traced)
    coh = sum(r.coherence_accesses for r in traced)
    traced_wall = sum(r.wall_s for r in traced)
    untraced_wall = sum(r.wall_s for r in untraced)
    attempted = len(untraced) + len(traced)
    failed = sum(1 for r in untraced + traced if r.error)

    out = dict(_simulated(traced))
    out.update({
        "cell_fail_frac": failed / attempted,
        "workloads.generate_s": inputs.generate_s,
        "traces.load_s": inputs.load_s,
        "kernels.quanta": c("InterpKernel.run_quantum"),
        "runtime.resolve_calls": c("TimestampManager.resolve"),
        "runtime.stall_events": sum(r.stall_events for r in traced),
        "htm.access_calls": access,
        "htm.commit_calls": c(*[n for n in htm_names
                                if n.endswith(".commit")]),
        "htm.abort_calls": c(*[n for n in htm_names
                               if n.endswith(".abort")]),
        "htm.access_per_retired_op": access / mem_ops if mem_ops else 0.0,
        "core.log_append_calls": c("TmLog.append"),
        "core.log_walk_calls": c("TmLog.walk_forward",
                                 "TmLog.walk_backward"),
        "core.fission_fuse_calls": c("tokentm.fission", "tokentm.fuse"),
        "core.fast_release_frac": (sum(r.fast for r in tokentm)
                                   / tok_commits if tok_commits else 0.0),
        "mem.metabit_ops": c("MetabitStore.load", "MetabitStore.store"),
        "coherence.access_calls": coherence_access,
        "coherence.fast_hit_calls": c("MemorySystem.fast_hit"),
        "coherence.directory_ops": c(*[
            span_name(owner, attr) for layer, owner, attr in targets()
            if attr.startswith("record_")]),
        "coherence.l1_lookup_calls": lookups,
        "coherence.l1_lookup_per_access": (lookups / coherence_access
                                           if coherence_access else 0.0),
        "coherence.fastpath_hit_frac": (sum(r.fastpath_hits for r in traced)
                                        / coh if coh else 0.0),
        "coherence.l1_hit_frac": (sum(r.l1_hits for r in traced) / coh
                                  if coh else 0.0),
        "signatures.test_calls": sig_tests,
        "signatures.insert_calls": c("BloomSignature.insert",
                                     "PerfectSignature.insert"),
        "signatures.test_per_access": sig_tests / access if access else 0.0,
        "signatures.false_positive_frac": (
            sum(r.false_positives for r in traced) / conflicts
            if conflicts else 0.0),
        "interconnect.latency_calls": c(*[
            span_name(owner, attr) for layer, owner, attr in targets()
            if layer == "interconnect"]),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0
                                if untraced_wall else 0.0),
    })
    for layer, self_s in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / traced_wall if traced_wall else 0.0
    return out


# -- a whole run -----------------------------------------------------------

#: Set-up repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A traced run covers the first 1/TRACED_PART of the input sets.
TRACED_PART = 4


def run(name: str, seed: int = DEFAULT_SEED, seconds: float = 30.0,
        trace: bool = False, scale: float = 1.0,
        inputs: Optional[int] = None,
        expected: Optional[Dict[str, str]] = None,
        span_path: Optional[Path] = None,
        import_s: float = 0.0) -> Dict[str, object]:
    """Run one workload and return the result object.

    Untraced, input sets run one after another, round the pool again
    if there is time, while another set fits in ``seconds`` (there is
    always one).  Traced, one untraced pass over the first quarter of
    the input sets is followed by a traced pass over the same sets,
    whose digests must match.  ``expected`` maps
    cell-run keys to digests; by default the committed digests apply
    at the default seed, scale and pool size.
    """
    workload = WORKLOADS[name]
    if expected is None and seed == DEFAULT_SEED and scale == 1.0 \
            and inputs is None:
        expected = load_expected(workload)
    setups = []
    for _ in range(SETUP_REPEATS):
        pool = None
        pool = prepare(workload, seed, scale, inputs)
        setups.append(pool.total_s)
    setup_s = import_s + statistics.median(setups)
    sets = cell_plan(workload, pool)

    if not trace:
        runs: List[CellRun] = []
        start = perf_counter()
        done = 0
        while True:
            runs += run_pass(sets[done % len(sets)])
            done += 1
            used = perf_counter() - start
            if used + used / done > seconds:
                break
        problems = check_runs(runs, expected)
        metrics = end_to_end(runs, setup_s)
        units = END_TO_END
    else:
        plan = [cell for one_set in sets[:max(1, len(sets) // TRACED_PART)]
                for cell in one_set]
        untraced = run_pass(plan)
        tracer = SpanTracer()
        span_path = span_path or Path(".layerbench-out") / f"{name}.spans"
        span_path.parent.mkdir(parents=True, exist_ok=True)
        with open(span_path, "wb") as span_out:
            traced = run_pass(plan, tracer, span_out)
        for before, after in zip(untraced, traced):
            if not after.error and after.digest != before.digest:
                after.error = (f"traced digest {after.digest} != "
                               f"untraced {before.digest}")
        runs = untraced + traced
        problems = check_runs(runs, expected)
        metrics = per_layer(untraced, traced, tracer, pool)
        units = PER_LAYER
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    failed = sum(1 for r in runs if r.error)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]}
                    for k in units},
    }


def update_digests(path: Path = DIGEST_FILE) -> Dict[str, object]:
    """Regenerate the committed digests at the default seed."""
    data: Dict[str, object] = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        inputs = prepare(workload, DEFAULT_SEED)
        runs = run_pass([cell for one_set in cell_plan(workload, inputs)
                         for cell in one_set])
        bad = [f"{r.key}: {r.error}" for r in runs if r.error]
        if bad:
            raise RuntimeError("cannot record digests of failing cells: "
                               + "; ".join(bad))
        data["workloads"][workload.name] = {
            "config": workload_config(workload),
            "digests": {r.key: r.digest for r in runs},
        }
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return data
