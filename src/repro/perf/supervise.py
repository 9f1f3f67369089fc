"""Supervision layer for the experiment engine.

The grids that matter are big: thousands of cells, hours of wall
clock.  At that scale host-level failures are routine — a worker
process OOM-killed mid-cell, a pathological configuration that hangs
a simulation, a stored result truncated by a full disk, a SIGTERM from
a batch scheduler at cell 900/1000.  This module gives
:class:`~repro.perf.runner.ParallelRunner` and ``repro chaos`` the
machinery to survive all of those without giving up determinism:

* :class:`SupervisorConfig` — per-cell wall-clock timeouts, bounded
  retries with exponential backoff and *deterministic* jitter, a
  failure policy (``fail_fast`` / ``continue`` /
  ``degrade_to_serial``), and a pool-rebuild budget;
* :class:`CellFailure` / :class:`RunReport` — structured records of
  what failed, how many times it was attempted, and what happened to
  the worker, surfaced by the CLI with a nonzero exit;
* :func:`unwind_on_signals` — turns SIGINT/SIGTERM into exceptions
  so an interrupted ``repro chaos`` still closes its landscape run
  (whose ledger is the campaign's checkpoint).

Determinism: none of this machinery touches simulation inputs.  The
seed rides in the :class:`~repro.perf.runner.CellSpec`, so a retried,
resumed, or pool-rebuilt cell produces a result byte-identical to a
clean serial run (asserted by ``tests/perf/test_supervise.py``).
Backoff jitter is derived from a hash of the cell key and attempt
number — never from a wall clock or a global RNG — so even the
supervisor's sleep schedule replays identically.
"""

from __future__ import annotations

import hashlib
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.common.errors import ConfigError

#: The three ways a grid may respond to a cell that exhausts its
#: retry budget (or to a worker pool that keeps dying):
#:
#: ``fail_fast``
#:     abort the grid on the first exhausted cell (default — the
#:     closest analogue of the unsupervised engine);
#: ``continue``
#:     finish every other cell, then raise
#:     :class:`~repro.common.errors.IncompleteGridError` listing
#:     exactly the failed cells;
#: ``degrade_to_serial``
#:     like ``continue``, but when the worker pool exceeds its
#:     rebuild budget the remaining cells run inline in the parent
#:     process instead of being abandoned.
FAIL_FAST = "fail_fast"
CONTINUE = "continue"
DEGRADE_TO_SERIAL = "degrade_to_serial"
FAILURE_POLICIES = (FAIL_FAST, CONTINUE, DEGRADE_TO_SERIAL)


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the grid supervisor.

    The defaults are *zero-cost*: no timeout, no retries,
    ``fail_fast`` — a clean run takes exactly the unsupervised path
    and produces byte-identical output.  Timeouts require a worker
    pool (``workers > 1``); inline execution cannot kill a hung cell
    and ignores ``timeout``.
    """

    #: Per-cell wall-clock budget in seconds (None = unlimited).  An
    #: overdue cell's worker is killed (SIGKILL) and the cell retried.
    timeout: Optional[float] = None
    #: Extra attempts per cell after the first (0 = no retries).
    retries: int = 0
    #: What to do when a cell exhausts its attempts.
    failure_policy: str = FAIL_FAST
    #: First-retry backoff in seconds; doubles per attempt.
    backoff_base: float = 0.05
    #: Ceiling on the exponential backoff.
    backoff_max: float = 2.0
    #: Fractional jitter added to each backoff (deterministic, hashed
    #: from the cell key and attempt number).
    jitter: float = 0.25
    #: How many times a broken worker pool is rebuilt per run before
    #: the failure policy takes over.
    pool_rebuilds: int = 3

    def __post_init__(self):
        if self.failure_policy not in FAILURE_POLICIES:
            raise ConfigError(
                f"unknown failure policy {self.failure_policy!r}; "
                f"expected one of {FAILURE_POLICIES}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.pool_rebuilds < 0:
            raise ConfigError("pool_rebuilds must be >= 0")

    @property
    def is_default(self) -> bool:
        """True when every knob sits at its zero-cost default."""
        return self == SupervisorConfig()

    def backoff_delay(self, token: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of cell ``token``.

        Exponential with a deterministic jitter fraction hashed from
        ``(token, attempt)``: two runs of the same grid sleep the
        same schedule, and concurrent retries of different cells
        de-synchronize.
        """
        base = min(self.backoff_max,
                   self.backoff_base * (2 ** max(0, attempt - 1)))
        digest = hashlib.sha256(
            f"{token}:{attempt}".encode("utf-8")).hexdigest()
        frac = int(digest[:8], 16) / 0xFFFFFFFF
        return base * (1.0 + self.jitter * frac)


#: Worker fates recorded in :class:`CellFailure`:
#: ``raised`` — the cell raised inside a (surviving) worker;
#: ``timeout`` — the cell exceeded its wall-clock budget and its
#: worker was killed; ``pool_broken`` — the pool died (worker OOM /
#: SIGKILL) more times than the rebuild budget allows, taking the
#: cell's slot with it.
FATE_RAISED = "raised"
FATE_TIMEOUT = "timeout"
FATE_POOL_BROKEN = "pool_broken"


@dataclass
class CellFailure:
    """One grid cell that exhausted its supervision budget."""

    index: int
    workload: str
    variant: str
    seed: int
    attempts: int
    fate: str
    error: str
    message: str
    key: Optional[str] = None

    def describe(self) -> str:
        return (f"{self.workload}/{self.variant} seed {self.seed}: "
                f"{self.error}: {self.message} "
                f"({self.fate} after {self.attempts} attempt"
                f"{'s' if self.attempts != 1 else ''})")

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "workload": self.workload,
            "variant": self.variant,
            "seed": self.seed,
            "attempts": self.attempts,
            "fate": self.fate,
            "error": self.error,
            "message": self.message,
            "key": self.key,
        }


@dataclass
class RunReport:
    """Supervision record of one :meth:`ParallelRunner.run_cells` call."""

    cells: int = 0
    completed: int = 0
    failed: List[CellFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_dict(self) -> Dict[str, object]:
        return {
            "cells": self.cells,
            "completed": self.completed,
            "failed": [f.to_dict() for f in self.failed],
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded": self.degraded,
        }

    def format(self) -> str:
        """Human-readable digest for the CLI (stderr on failure)."""
        head = (f"grid: {self.completed}/{self.cells} cells completed, "
                f"{len(self.failed)} failed "
                f"({self.retries} retries, {self.timeouts} timeouts, "
                f"{self.worker_deaths} worker deaths, "
                f"{self.pool_rebuilds} pool rebuilds"
                + (", degraded to serial" if self.degraded else "") + ")")
        lines = [head]
        lines.extend(f"  FAILED {f.describe()}" for f in self.failed)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Signal handling
# ----------------------------------------------------------------------

@contextmanager
def unwind_on_signals() -> Iterator[None]:
    """Turn SIGINT into ``KeyboardInterrupt`` and SIGTERM into
    ``SystemExit(143)`` for the duration of the block.

    The interruption then unwinds like any exception, so cleanup such
    as ``recorder.finish("interrupted")`` still runs.  Previous
    handlers are restored on exit.
    """

    def handler(signum, _frame):
        if signum == signal.SIGINT:
            raise KeyboardInterrupt
        raise SystemExit(128 + signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # non-main thread: no handlers
            pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
