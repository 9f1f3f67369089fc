"""Trace-driven multi-threaded executor.

Drives one :class:`~repro.workloads.trace.WorkloadTrace` through an
HTM machine, interleaving threads by a min-clock discrete scheduler:
the thread with the smallest local cycle count runs next, for up to a
small quantum of cycles, so cross-thread interactions happen in
near-global-time order without simulating every core every cycle.

The executor owns all *policy*: timestamp contention management,
dooming losers, stall/retry with escalation, abort back-off, and
transaction restart (re-running the trace region from its BEGIN).
It also aggregates the statistics the paper's figures and tables are
built from.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.config import RunConfig
from repro.common.errors import SimulationError
from repro.faults.injector import NULL_INJECTOR
from repro.faults.monitor import NULL_MONITOR
from repro.htm.base import HTM, ConflictKind
from repro.kernels.interp import InterpKernel
from repro.obs.events import AbortCause, EventBus, EventKind
from repro.runtime.contention import Resolution, TimestampManager
from repro.runtime.history import HistoryValidator
from repro.runtime.stats import RunStats
from repro.workloads.trace import (
    OP_BEGIN,
    OP_COMMIT,
    OP_COMPUTE,
    OP_LOCK,
    OP_NT_READ,
    OP_NT_WRITE,
    OP_READ,
    OP_SIGNAL,
    OP_SYSCALL,
    OP_UNLOCK,
    OP_WAIT,
    OP_WRITE,
    WorkloadTrace,
    validate_trace,
)

#: Scheduler quantum: a thread runs at most this many cycles per turn.
DEFAULT_QUANTUM = 200

#: Hard cap on retries of one transaction before the run is declared
#: livelocked (a simulator bug; the timestamp policy should converge).
MAX_TXN_ATTEMPTS = 50_000

#: Cross-thread wait (OP_WAIT) spin parameters.  A blocked waiter
#: retries with exponentially growing simulated delays so the
#: min-clock scheduler quickly hands the cycles to the threads that
#: can actually signal; on release the waiter's clock rewinds to
#: max(arrival, satisfying signal) so the spin probing never inflates
#: simulated time (schedule-faithful barrier exit = last arrival).
WAIT_SPIN_BASE = 50
WAIT_SPIN_CAP = 20_000
#: Consecutive failed probes of one wait before the run is declared
#: deadlocked (every producer had ~200M cycles to signal by then).
WAIT_SPIN_LIMIT = 10_000
#: Cycles charged for a satisfied wait / an issued signal (futex-ish).
WAIT_RESUME_COST = 10
SIGNAL_COST = 5


class _Thread:
    """Executor-side state of one simulated thread."""

    __slots__ = (
        "tid", "core", "ops", "pc", "clock", "in_txn", "begin_pc",
        "nesting", "txn_epoch", "doomed_epoch", "attempts", "stalls",
        "txn_start", "done", "blocked_lock", "wait_started",
        "wait_spins",
    )

    def __init__(self, tid: int, core: int, ops: List) -> None:
        self.tid = tid
        self.core = core
        self.ops = ops
        self.pc = 0
        self.clock = 0
        self.in_txn = False
        self.begin_pc = -1
        self.nesting = 0
        self.txn_epoch = 0
        self.doomed_epoch = -1
        self.attempts = 0
        self.stalls = 0
        self.txn_start = 0
        self.done = not ops
        self.blocked_lock: Optional[int] = None
        #: Clock at first probe of the currently blocked OP_WAIT
        #: (-1 = not blocked on a wait); the release clock is computed
        #: from this, not from the spin-inflated running clock.
        self.wait_started = -1
        self.wait_spins = 0

    @property
    def doomed(self) -> bool:
        return self.in_txn and self.doomed_epoch == self.txn_epoch


@dataclass
class RunResult:
    """Executor output: statistics plus the commit history."""

    stats: RunStats
    history: HistoryValidator


class Executor:
    """Runs a workload trace on an HTM machine."""

    def __init__(self, htm: HTM, trace: WorkloadTrace, config: RunConfig,
                 quantum: int = DEFAULT_QUANTUM,
                 validate: bool = True,
                 track_history: bool = True,
                 preemptive: Optional[bool] = None,
                 timeslice: int = 50_000,
                 policy: Optional[TimestampManager] = None,
                 bus: Optional[EventBus] = None,
                 injector=None,
                 monitor=None):
        if validate:
            validate_trace(trace)
        ncores = htm.mem.config.num_cores
        if preemptive is None:
            preemptive = trace.num_threads > ncores
        if trace.num_threads > ncores and not preemptive:
            raise SimulationError(
                f"{trace.num_threads} threads exceed {ncores} cores; "
                "run with preemptive=True to time-share"
            )
        self._preemptive = preemptive
        self._timeslice = timeslice
        self._htm = htm
        self._trace = trace
        self._config = config
        self._quantum = quantum
        #: Event bus: explicit argument, else whatever the machine's
        #: memory system carries (NULL_BUS unless tracing was set up).
        self._bus = bus if bus is not None else htm.bus
        self._manager = policy if policy is not None else \
            TimestampManager(config.htm, seed=config.seed, bus=self._bus)
        self._threads = [
            _Thread(t.thread_id, core % ncores, t.ops)
            for core, t in enumerate(trace.threads)
        ]
        self._by_tid: Dict[int, _Thread] = {
            t.tid: t for t in self._threads
        }
        self._locks: Dict[int, tuple] = {}
        self._stats = RunStats(workload=trace.name, variant=htm.name)
        # Transaction priorities come from a global begin sequence,
        # not thread-local clocks: under time-sharing, clocks skew by
        # whole timeslices, and skewed stamps starve threads whose
        # clocks run ahead.
        self._begin_seq = 0
        self._history = HistoryValidator(enabled=track_history)
        self._record_history = self._history.enabled
        #: Fault injection & invariant monitoring (repro.faults): the
        #: NULL defaults keep the disabled path at one attribute load
        #: plus branch per quantum boundary, like NULL_BUS.
        self._injector = injector if injector is not None else NULL_INJECTOR
        self._monitor = monitor if monitor is not None else NULL_MONITOR
        self._commit_budget = config.max_commits
        self._audit = config.audit
        #: Cross-thread dependency state (recorded-trace replays):
        #: signal counters and, per signal id, the clock of each
        #: increment so a satisfied wait can release at the exact
        #: simulated time its condition became true.
        self._signals: Dict[int, int] = {}
        self._signal_times: Dict[int, List[int]] = {}
        # Opcode dispatch table: the quantum loop indexes this list
        # instead of walking an if/elif chain.  Every handler takes
        # (thread, arg) and returns None, except _lock and _wait,
        # which return False when the thread blocked and must yield
        # its quantum.
        table = [self._op_unknown] * (OP_WAIT + 1)
        table[OP_BEGIN] = self._begin
        table[OP_COMMIT] = self._commit
        table[OP_READ] = self._txn_read
        table[OP_WRITE] = self._txn_write
        table[OP_NT_READ] = self._nt_read
        table[OP_NT_WRITE] = self._nt_write
        table[OP_COMPUTE] = self._op_compute
        table[OP_LOCK] = self._lock
        table[OP_UNLOCK] = self._unlock
        table[OP_SYSCALL] = self._op_compute
        table[OP_SIGNAL] = self._signal
        table[OP_WAIT] = self._wait
        self._dispatch = table
        # The hot loop (repro.kernels.interp) is built last: it hoists
        # the dispatch table built above.  The scheduler loops look up
        # its bound ``run_quantum`` when they start, so a wrapper
        # installed on the ``InterpKernel.run_quantum`` class attribute
        # before the run sees every quantum.
        self._kernel = InterpKernel(self)

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the whole trace; returns stats and commit history."""
        if self._preemptive:
            self._run_preemptive()
        else:
            self._run_dedicated()
        stats = self._stats
        stats.makespan = max((t.clock for t in self._threads), default=0)
        stats.machine = self._htm.stats.snapshot()
        stats.machine["_threads"] = len(self._threads)
        stats.machine["_trace_ops"] = sum(
            len(t.ops) for t in self._threads
        )
        if self._audit:
            self._htm.audit()
        if self._injector.enabled:
            stats.faults = self._injector.snapshot()
        if self._monitor.enabled:
            stats.monitor = self._monitor.finalize(self)
        self._history.finish()
        return RunResult(stats=stats, history=self._history)

    def _run_dedicated(self) -> None:
        """One thread per core: min-clock quantum interleaving."""
        faults_on = self._injector.enabled or self._monitor.enabled
        run_quantum = self._kernel.run_quantum
        by_tid = self._by_tid
        heappop = heapq.heappop
        heappush = heapq.heappush
        heap = [(t.clock, t.tid) for t in self._threads if not t.done]
        heapq.heapify(heap)
        while heap:
            _, tid = heappop(heap)
            thread = by_tid[tid]
            if thread.done:
                continue
            run_quantum(thread)
            if faults_on:
                self._quantum_boundary(thread)
            if not thread.done:
                heappush(heap, (thread.clock, thread.tid))

    def _run_preemptive(self) -> None:
        """Time-share more threads than cores (OS scheduling model).

        Each dispatch runs a thread for up to a timeslice on the core
        that frees earliest (with affinity for its previous core).
        Placing a different thread on a core issues the HTM's
        context-switch instruction for the old occupant — on TokenTM
        that is the flash-OR, after which the descheduled transaction
        loses fast release but keeps its tokens (Section 4.4).
        """
        lat = self._htm.mem.config.latency
        ncores = self._htm.mem.config.num_cores
        faults_on = self._injector.enabled or self._monitor.enabled
        run_quantum = self._kernel.run_quantum
        core_free = [0] * ncores
        core_thread: List[Optional[int]] = [None] * ncores
        # Min-heap of (free_at, core) so finding the earliest-free core
        # is O(log cores) per dispatch instead of an O(cores) min().
        # Entries go stale when a core's free time advances; they are
        # lazily popped when they surface.  Ties break on the lower
        # core id, exactly like min() over range(ncores).
        free_heap: List[tuple] = [(0, c) for c in range(ncores)]
        heap = [(t.clock, t.tid) for t in self._threads if not t.done]
        heapq.heapify(heap)
        while heap:
            _, tid = heapq.heappop(heap)
            thread = self._by_tid[tid]
            if thread.done:
                continue
            # Affinity: keep the previous core unless another frees
            # strictly earlier (avoids gratuitous switches).
            while free_heap[0][0] != core_free[free_heap[0][1]]:
                heapq.heappop(free_heap)
            best = free_heap[0][1]
            core = thread.core
            if (core_thread[core] != thread.tid
                    or core_free[core] > core_free[best]):
                core = best
            start = max(thread.clock, core_free[core])
            if core_thread[core] != thread.tid:
                previous = core_thread[core]
                if previous is not None:
                    if self._bus.enabled:
                        self._bus.now = start
                    start += self._htm.context_switch(core)
                start += lat.os_switch
                self._htm.schedule(core, thread.tid)
                core_thread[core] = thread.tid
                self._stats.preemptions += 1
                if self._bus.enabled:
                    self._bus.emit(EventKind.CTX_SWITCH, cycle=start,
                                   tid=thread.tid, core=core,
                                   previous_tid=previous)
            thread.clock = start
            thread.core = core
            deadline = thread.clock + self._timeslice
            while not thread.done and thread.clock < deadline:
                run_quantum(thread)
                if faults_on:
                    self._quantum_boundary(thread)
            core_free[core] = thread.clock
            heapq.heappush(free_heap, (thread.clock, core))
            if not thread.done:
                heapq.heappush(heap, (thread.clock, thread.tid))

    # ------------------------------------------------------------------
    # Fault injection & invariant monitoring (repro.faults)
    # ------------------------------------------------------------------

    @property
    def htm(self) -> HTM:
        """The machine under execution (monitor/injector access)."""
        return self._htm

    @property
    def history(self) -> HistoryValidator:
        """The commit history recorder (serializability oracle input)."""
        return self._history

    @property
    def quantum(self) -> int:
        """Scheduler quantum (the natural cross-thread clock skew)."""
        return self._quantum

    def _quantum_boundary(self, thread: _Thread) -> None:
        """Drive the injector and monitor after one thread's quantum.

        Only reached when at least one of them is enabled; the
        scheduling loops hoist that check into a local so the default
        path pays a single branch per quantum.
        """
        if self._bus.enabled:
            self._bus.now = thread.clock
        if self._injector.enabled:
            self._injector.on_quantum(self, thread)
        if self._monitor.enabled:
            self._monitor.on_quantum(self)

    def fault_preempt(self, thread: _Thread) -> bool:
        """Injected forced preemption: deschedule + immediately resume.

        Issues the HTM's context-switch instruction (the flash-OR on
        TokenTM, which costs the thread its fast-release eligibility)
        and charges the OS switch latency, exactly as the preemptive
        scheduler does when a core changes occupant.
        """
        lat = self._htm.mem.config.latency
        cost = self._htm.context_switch(thread.core)
        self._htm.schedule(thread.core, thread.tid)
        thread.clock += cost + lat.os_switch
        self._stats.preemptions += 1
        if self._bus.enabled:
            self._bus.emit(EventKind.CTX_SWITCH, cycle=thread.clock,
                           tid=thread.tid, core=thread.core,
                           previous_tid=thread.tid, injected=True)
        return True

    def fault_migrate(self, thread: _Thread, rng) -> bool:
        """Injected migration to a free core (dedicated mode).

        Under the preemptive scheduler cores are reassigned at every
        dispatch, so migration degenerates to a forced preemption and
        the natural machinery does the rest.  In dedicated mode the
        thread moves to an rng-chosen unoccupied core (falling back
        to preemption when none is free).
        """
        if self._preemptive:
            return self.fault_preempt(thread)
        ncores = self._htm.mem.config.num_cores
        occupied = {t.core for t in self._threads if not t.done}
        free = [c for c in range(ncores) if c not in occupied]
        if not free:
            return self.fault_preempt(thread)
        target = free[rng.randrange(len(free))]
        lat = self._htm.mem.config.latency
        cost = self._htm.context_switch(thread.core)
        thread.core = target
        self._htm.schedule(target, thread.tid)
        thread.clock += cost + lat.os_switch
        self._stats.preemptions += 1
        if self._bus.enabled:
            self._bus.emit(EventKind.CTX_SWITCH, cycle=thread.clock,
                           tid=thread.tid, core=target,
                           previous_tid=thread.tid, injected=True)
        return True

    def fault_spurious_abort(self, rng) -> bool:
        """Injected contention-manager kill of a random live txn.

        The victim is doomed exactly like a lost conflict: it aborts
        (cause CM_KILL) at its next step, undoing its writes and
        releasing its tokens through the ordinary abort path.
        """
        candidates = [t for t in self._threads
                      if t.in_txn and not t.done
                      and t.doomed_epoch != t.txn_epoch]
        if not candidates:
            return False
        victim = candidates[rng.randrange(len(candidates))]
        victim.doomed_epoch = victim.txn_epoch
        return True

    def fault_spurious_nack(self, thread: _Thread) -> bool:
        """Injected transient NACK: a short stall, properly accounted."""
        delay = self._manager.spurious_nack_delay()
        thread.clock += delay
        self._stats.stall_events += 1
        self._stats.stall_cycles += delay
        return True

    def _op_compute(self, thread: _Thread, cycles: int) -> None:
        """COMPUTE/SYSCALL: advance the local clock (table fallback)."""
        thread.clock += cycles
        thread.pc += 1

    def _op_unknown(self, thread: _Thread, arg: int) -> None:
        # pragma-free guard: validate_trace prevents this for any
        # trace that went through the public entry points.
        raise SimulationError(
            f"unknown opcode in thread {thread.tid} at pc {thread.pc}"
        )

    # -- transactions -----------------------------------------------------

    def _begin(self, thread: _Thread, _arg: int = 0) -> None:
        if thread.in_txn:
            # Flat (closed) nesting: an inner BEGIN is subsumed by
            # the enclosing transaction; only a counter moves.
            thread.nesting += 1
            thread.clock += 1
            thread.pc += 1
            return
        thread.clock += self._htm.begin(thread.core, thread.tid)
        thread.in_txn = True
        thread.nesting = 1
        thread.begin_pc = thread.pc
        thread.txn_epoch += 1
        thread.txn_start = thread.clock
        thread.stalls = 0
        self._begin_seq += 1
        self._manager.transaction_started(thread.tid, self._begin_seq)
        self._history.begin(thread.tid, thread.clock)
        if self._bus.enabled:
            self._bus.emit(EventKind.TXN_BEGIN, cycle=thread.clock,
                           tid=thread.tid, core=thread.core,
                           attempt=thread.attempts + 1)
        thread.pc += 1

    def _commit(self, thread: _Thread, _arg: int = 0) -> None:
        if thread.nesting > 1:
            # Closing an inner flat-nested transaction: no machine
            # action until the outermost commit.
            thread.nesting -= 1
            thread.clock += 1
            thread.pc += 1
            return
        tid, core = thread.tid, thread.core
        read_set = self._htm.read_set_size(tid)
        write_set = self._htm.write_set_size(tid)
        # Isolation ends when the machine releases (at the start of
        # commit processing); the history records that point, not the
        # latency-charged completion, so the serializability oracle
        # is not confused by commit-latency clock skew.
        release_point = thread.clock
        outcome = self._htm.commit(core, tid)
        thread.clock += outcome.latency
        thread.in_txn = False
        thread.nesting = 0
        thread.attempts = 0
        thread.doomed_epoch = -1
        self._manager.transaction_finished(tid)
        self._stats.record_commit(
            outcome.used_fast_release, read_set, write_set,
            thread.clock - thread.txn_start,
            outcome.software_release_cycles,
        )
        self._history.commit(tid, release_point)
        if self._bus.enabled:
            self._bus.emit(
                EventKind.TXN_COMMIT, cycle=thread.clock, tid=tid,
                core=core, fast=outcome.used_fast_release,
                read_set=read_set, write_set=write_set,
                duration=thread.clock - thread.txn_start,
                release_cycles=outcome.software_release_cycles,
            )
        thread.pc += 1
        if self._commit_budget is not None:
            self._commit_budget -= 1
            if self._commit_budget <= 0:
                # Live transactions get to finish; threads between
                # transactions just stop starting new work.
                self._truncate_after_budget()

    def _truncate_after_budget(self) -> None:
        """Commit budget exhausted: threads stop at their next BEGIN."""
        for other in self._threads:
            if not other.in_txn:
                other.done = True

    def _abort(self, thread: _Thread,
               cause: AbortCause = AbortCause.CONFLICT) -> None:
        outcome = self._htm.abort(thread.core, thread.tid)
        thread.clock += outcome.latency
        thread.in_txn = False
        thread.nesting = 0  # flat nesting: abort unrolls to outermost
        thread.doomed_epoch = -1
        thread.attempts += 1
        if thread.attempts > MAX_TXN_ATTEMPTS:
            raise SimulationError(
                f"thread {thread.tid} retried a transaction "
                f"{thread.attempts} times; livelock"
            )
        self._manager.transaction_aborted(thread.tid)
        self._stats.record_abort(cause.value)
        backoff = self._manager.backoff_delay(thread.attempts)
        thread.clock += backoff
        self._stats.backoff_cycles += backoff
        self._history.abort(thread.tid, thread.clock)
        if self._bus.enabled:
            self._bus.emit(EventKind.TXN_ABORT, cycle=thread.clock,
                           tid=thread.tid, core=thread.core,
                           cause=cause.value, attempt=thread.attempts,
                           backoff=backoff)
        thread.pc = thread.begin_pc

    def _txn_read(self, thread: _Thread, block: int) -> None:
        grant_point = thread.clock  # isolation starts at the grant
        outcome = self._htm.read(thread.core, thread.tid, block)
        thread.clock += outcome.latency
        if outcome.granted:
            thread.stalls = 0
            if self._record_history:
                self._history.access(thread.tid, block, False, grant_point)
            thread.pc += 1
            return
        self._resolve_conflict(thread, outcome.conflict)

    def _txn_write(self, thread: _Thread, block: int) -> None:
        grant_point = thread.clock  # isolation starts at the grant
        outcome = self._htm.write(thread.core, thread.tid, block)
        thread.clock += outcome.latency
        if outcome.granted:
            thread.stalls = 0
            if self._record_history:
                self._history.access(thread.tid, block, True, grant_point)
            thread.pc += 1
            return
        self._resolve_conflict(thread, outcome.conflict)

    def _resolve_conflict(self, thread: _Thread, info) -> None:
        assert info is not None
        if not info.complete:
            hints = self._htm.identify_conflictors(info)
            info = type(info)(info.block, info.kind, hints=hints,
                              complete=True,
                              false_positive=info.false_positive)
        decision = self._manager.resolve(
            thread.tid, info, self._htm.active_tids()
        )
        if (decision.resolution is Resolution.STALL_AND_RETRY
                and not decision.victims
                and info.kind is not ConflictKind.SERIALIZATION
                and thread.stalls >= 4):
            # The hardware hints name no live transaction (token
            # identity labels can go stale once fission/fusion
            # anonymizes counts), yet the conflict persists: trap to
            # the software contention manager, which walks the logs
            # for the true holders (Section 5.2's hardest case).
            refreshed = self._htm.identify_conflictors(
                type(info)(info.block, info.kind, hints=info.hints,
                           complete=False)
            )
            if refreshed:
                info = type(info)(info.block, info.kind,
                                  hints=tuple(refreshed), complete=True)
                decision = self._manager.resolve(
                    thread.tid, info, self._htm.active_tids()
                )
        if decision.resolution is Resolution.ABORT_SELF:
            self._abort(thread, AbortCause.CONFLICT)
            return
        winning = False
        for victim_tid in decision.victims:
            victim = self._by_tid.get(victim_tid)
            if victim is not None and victim.in_txn:
                victim.doomed_epoch = victim.txn_epoch
                winning = True
        thread.stalls += 1
        exempt = (winning
                  or info.kind is ConflictKind.SERIALIZATION)
        if not exempt and thread.stalls > self._config.htm.max_stall_retries:
            self._abort(thread, AbortCause.STALL_LIMIT)
            return
        delay = self._manager.stall_delay(thread.stalls, winning=winning)
        thread.clock += delay
        self._stats.stall_events += 1
        self._stats.stall_cycles += delay
        if self._bus.enabled:
            self._bus.emit(EventKind.TXN_STALL, cycle=thread.clock,
                           tid=thread.tid, core=thread.core,
                           block=info.block, delay=delay, winning=winning,
                           victims=list(decision.victims))

    def _nt_read(self, thread: _Thread, block: int) -> None:
        self._nontxn_access(thread, block, is_write=False)

    def _nt_write(self, thread: _Thread, block: int) -> None:
        self._nontxn_access(thread, block, is_write=True)

    def _nontxn_access(self, thread: _Thread, block: int,
                       is_write: bool) -> None:
        tid, core = thread.tid, thread.core
        if is_write:
            outcome = self._htm.nontxn_write(core, tid, block)
        else:
            outcome = self._htm.nontxn_read(core, tid, block)
        thread.clock += outcome.latency
        if outcome.granted:
            thread.pc += 1
            return
        info = outcome.conflict
        assert info is not None
        if not info.complete:
            hints = self._htm.identify_conflictors(info)
            info = type(info)(info.block, info.kind, hints=hints,
                              complete=True)
        decision = self._manager.resolve(None, info, self._htm.active_tids())
        for victim_tid in decision.victims:
            victim = self._by_tid.get(victim_tid)
            if victim is not None and victim.in_txn:
                victim.doomed_epoch = victim.txn_epoch
        delay = self._manager.stall_delay(1)
        thread.clock += delay
        self._stats.stall_cycles += delay

    # -- locks (for lock-based workloads) ----------------------------------

    def _lock(self, thread: _Thread, lock_id: int) -> bool:
        """Acquire a lock in *simulated* time.

        Lock state is (owner, free_from): because a thread may run a
        whole quantum ahead, a release can be recorded at a simulated
        time later than another thread's current clock — that thread
        must spin forward to ``free_from`` before acquiring.
        """
        owner, free_from = self._locks.get(lock_id, (None, 0))
        if owner is not None:
            # Spin: retry after a delay; the scheduler runs the owner.
            thread.blocked_lock = lock_id
            thread.clock += 50
            return False
        if thread.clock < free_from:
            thread.clock = free_from  # spun until the release
        self._locks[lock_id] = (thread.tid, free_from)
        thread.clock += 10  # atomic RMW cost
        thread.blocked_lock = None
        thread.pc += 1
        return True

    def _unlock(self, thread: _Thread, lock_id: int) -> None:
        owner, _ = self._locks.get(lock_id, (None, 0))
        if owner != thread.tid:
            raise SimulationError(
                f"thread {thread.tid} unlocking lock {lock_id} it "
                "does not hold"
            )
        thread.clock += 5
        self._locks[lock_id] = (None, thread.clock)
        thread.pc += 1

    # -- cross-thread dependencies (recorded-trace replays) ----------------

    def _signal(self, thread: _Thread, signal_id: int) -> None:
        """SIGNAL: increment a named counter at the thread's clock.

        Signal times are recorded so a later WAIT can release at the
        exact simulated time its condition became true, independent
        of how long the waiter spun probing for it.
        """
        thread.clock += SIGNAL_COST
        self._signals[signal_id] = self._signals.get(signal_id, 0) + 1
        times = self._signal_times.get(signal_id)
        if times is None:
            times = self._signal_times[signal_id] = []
        times.append(thread.clock)
        thread.pc += 1
        if self._bus.enabled:
            self._bus.emit(EventKind.THREAD_SIGNAL, cycle=thread.clock,
                           tid=thread.tid, core=thread.core,
                           signal=signal_id,
                           count=self._signals[signal_id])

    def _wait(self, thread: _Thread, wait_id: int) -> Optional[bool]:
        """WAIT: block until the named signal counter reaches its target.

        Satisfied waits release at ``max(arrival, satisfying signal)``
        — the clock the dependency semantics dictate — regardless of
        the spin-probe delays that accumulated while blocked, which
        exist only to let the min-clock scheduler run the producers.
        Returns False while blocked (yields the quantum).
        """
        signal_id, target = self._trace.waits[wait_id]
        times = self._signal_times.get(signal_id)
        if times is not None and len(times) >= target:
            arrival = thread.wait_started if thread.wait_started >= 0 \
                else thread.clock
            released = max(arrival, times[target - 1]) + WAIT_RESUME_COST
            if self._bus.enabled:
                self._bus.emit(EventKind.THREAD_WAIT, cycle=released,
                               tid=thread.tid, core=thread.core,
                               signal=signal_id, target=target,
                               waited=max(0, released - arrival))
            thread.clock = released
            thread.wait_started = -1
            thread.wait_spins = 0
            thread.pc += 1
            return None
        if thread.wait_started < 0:
            thread.wait_started = thread.clock
            thread.wait_spins = 0
        thread.wait_spins += 1
        if thread.wait_spins > WAIT_SPIN_LIMIT:
            have = self._signals.get(signal_id, 0)
            raise SimulationError(
                f"deadlock: thread {thread.tid} waited on signal "
                f"{signal_id} ({have}/{target} signalled) for "
                f"{thread.wait_spins} probes with no producer progress"
            )
        thread.clock += min(
            WAIT_SPIN_BASE << min(thread.wait_spins - 1, 9),
            WAIT_SPIN_CAP,
        )
        return False


def run_workload(htm: HTM, trace: WorkloadTrace,
                 config: Optional[RunConfig] = None,
                 **kwargs) -> RunResult:
    """One-call convenience wrapper around :class:`Executor`."""
    cfg = config or RunConfig()
    return Executor(htm, trace, cfg, **kwargs).run()
