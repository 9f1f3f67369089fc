"""Golden behaviour record for the executor's hot loop.

Each configuration below runs once on a fresh machine and is reduced
to a sha256 over canonical JSON of (RunStats snapshot, ProtocolStats
snapshot, full event stream, dropped-event count).  The digests are
pinned constants: any change to the simulated behaviour of these runs
— a reordered handler call, a different clock stamp, one more token
acquire — changes a digest and fails the test.

The matrix covers all three HTM variant families with the fast path
on and off, a fault plan per family, a committed trace fixture under
each family, and a time-shared (preemptive) run.

A deliberate behaviour change updates ``GOLDEN`` by hand: the failure
message prints the configuration name and its new digest.
"""

import hashlib
import json

import pytest

from repro.common.config import HTMConfig, RunConfig, SystemConfig
from repro.coherence.protocol import MemorySystem
from repro.faults.injector import FaultInjector
from repro.faults.plan import default_plan
from repro.htm import make_htm
from repro.obs.events import EventBus
from repro.obs.sinks import RingBufferSink
from repro.runtime.executor import Executor
from repro.traces.workload import fixture_workloads
from repro.workloads import cholesky, vacation_low

#: One variant per HTM family (TokenTM / LogTM-SE / OneTM).
FAMILY_VARIANTS = ("TokenTM", "LogTM-SE_4xH3", "OneTM")

#: Configuration name -> sha256 of its canonical run record.
GOLDEN = {
    "synthetic/TokenTM/fastpath":
        "528c9d8cf182730d60d5fb59be6750d9abeac90469fd2ffa8dc7113b468cf06c",
    "synthetic/TokenTM/no-fastpath":
        "528c9d8cf182730d60d5fb59be6750d9abeac90469fd2ffa8dc7113b468cf06c",
    "synthetic/LogTM-SE_4xH3/fastpath":
        "c479442dfd51e2f86ca50e335c697d227c11d58f98d9199b73983867b9bf7ef3",
    "synthetic/LogTM-SE_4xH3/no-fastpath":
        "c479442dfd51e2f86ca50e335c697d227c11d58f98d9199b73983867b9bf7ef3",
    "synthetic/OneTM/fastpath":
        "b995412d22f7e68dd76777bbf4fc1b9d383f079d3ed9dbc54a06577c48413e22",
    "synthetic/OneTM/no-fastpath":
        "b995412d22f7e68dd76777bbf4fc1b9d383f079d3ed9dbc54a06577c48413e22",
    "faults/TokenTM":
        "59ea7f222deb990dfcfba494e024315147cbbc2e0484a2a8471c78e73b2bdbd7",
    "faults/LogTM-SE_4xH3":
        "f395d94fac668f1ad3380f55e5a423545aeb737afc7e6571e42189fabcc816bb",
    "faults/OneTM":
        "36ab63548b712ddee34d02b38522a508703020e67f2265bdfec06dd31aa03a3a",
    "fixture/barrier_storm/TokenTM":
        "066cd493bb0c79b7244a6d649e18060bcbd249ac8ca9da24c1317e244999eaf4",
    "fixture/barrier_storm/LogTM-SE_4xH3":
        "32f1cac33d676d7e8e8270603e963ba80b523c876e5815bc34ee54e6b08ec647",
    "fixture/barrier_storm/OneTM":
        "41200a9b92c0fa47433e71e925eff89f7035534e48e1ccad4a52bc3c4a4b35fe",
    "preemptive/TokenTM":
        "96e50c0df431fe1fe434a6a8508e4282dcd10a5449ccb02e72b938af4a47eadf",
}


def _digest(trace, variant, *, seed=7, fast_path=True, faults=False,
            system=None, quantum=200):
    """Run once, traced, and hash the canonical run record."""
    sys_cfg = system or SystemConfig()
    bus = EventBus()
    sink = RingBufferSink(100_000)
    bus.attach(sink)
    mem = MemorySystem(sys_cfg, bus=bus, fast_path=fast_path)
    machine = make_htm(variant, mem, HTMConfig())
    injector = None
    if faults:
        injector = FaultInjector(default_plan(), seed=seed, bus=bus)
    executor = Executor(
        machine, trace, RunConfig(system=sys_cfg, seed=seed),
        quantum=quantum, validate=False, track_history=False,
        injector=injector,
    )
    stats = executor.run().stats
    bus.close()
    record = [stats.snapshot(), mem.stats.snapshot(),
              [e.to_dict() for e in sink.events], sink.dropped]
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check(name, digest):
    assert GOLDEN.get(name) == digest, (
        f"golden record moved: {name!r} now digests to {digest!r}")


@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fastpath", "no-fastpath"])
@pytest.mark.parametrize("variant", FAMILY_VARIANTS)
def test_golden_synthetic(variant, fast_path):
    trace = cholesky().generate(seed=7, scale=0.004, threads=4)
    name = f"synthetic/{variant}/{'fastpath' if fast_path else 'no-fastpath'}"
    _check(name, _digest(trace, variant, fast_path=fast_path))


@pytest.mark.parametrize("variant", FAMILY_VARIANTS)
def test_golden_under_faults(variant):
    """The default fault plan drives the abort/rewind paths."""
    trace = vacation_low().generate(seed=11, scale=0.008, threads=4)
    _check(f"faults/{variant}",
           _digest(trace, variant, faults=True, seed=11))


@pytest.mark.parametrize("variant", FAMILY_VARIANTS)
def test_golden_committed_trace_fixture(variant):
    """A committed event-trace fixture replays unchanged."""
    fixtures = fixture_workloads()
    name = sorted(fixtures)[0]
    trace = fixtures[name].generate(seed=0)
    _check(f"fixture/{name}/{variant}", _digest(trace, variant))


def test_golden_preemptive():
    """Time-sharing maximizes context switches and partial quanta."""
    from repro.analysis.experiments import run_trace

    system = SystemConfig().scaled(4)  # 8 threads on 4 cores
    trace = vacation_low().generate(seed=9, scale=0.008, threads=8)
    assert run_trace(trace, "TokenTM", system=system, seed=9,
                     quantum=25).preemptions > 0
    _check("preemptive/TokenTM",
           _digest(trace, "TokenTM", seed=9, system=system, quantum=25))
