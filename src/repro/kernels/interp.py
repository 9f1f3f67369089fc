"""The simulator's hot loop: the executor's dispatch-table interpreter.

The :class:`~repro.runtime.executor.Executor` owns all simulation
*policy* (contention management, abort/retry, statistics); this loop
owns only the *mechanism* — how one thread's ops are driven through
the dispatch table for one scheduler quantum.  It is the only loop:
it takes under a tenth of a cell's host time, so no faster loop can
move a cell's wall by much (docs/performance.md, "One hot loop").
The golden record in ``tests/runtime/test_golden.py`` pins its
behaviour.
"""

from __future__ import annotations

from repro.obs.events import AbortCause
from repro.workloads.trace import OP_COMPUTE


class InterpKernel:
    """Straight interpretation, one op per loop iteration."""

    def __init__(self, executor) -> None:
        # Loop invariants hoisted once per run instead of per quantum.
        self._quantum = executor.quantum
        self._bus = executor._bus
        self._dispatch = executor._dispatch
        self._abort = executor._abort

    def run_quantum(self, thread) -> None:
        """Interpret ops until the quantum expires or the thread yields.

        This is the simulator's innermost loop; it is written for the
        CPython interpreter, not for elegance.  Loop-invariant lookups
        (bus enablement, the op list and its length, the dispatch
        table) are hoisted into locals, the doom check is inlined
        instead of going through the ``_Thread.doomed`` property, the
        dominant COMPUTE opcode short-circuits before the table, and
        runs of consecutive COMPUTEs retire in an inner loop that
        skips the doom check (nothing can doom this thread while only
        it advances time).
        """
        deadline = thread.clock + self._quantum
        bus = self._bus
        bus_enabled = bus.enabled
        ops = thread.ops
        nops = len(ops)
        dispatch = self._dispatch
        op_compute = OP_COMPUTE
        # clock and pc live in locals; they sync to the thread object
        # only around handler calls (handlers read and mutate them).
        # COMPUTE — the single most common opcode — never leaves this
        # frame: it touches only locals plus the doom-check reads.
        clock = thread.clock
        pc = thread.pc
        while clock < deadline:
            if thread.in_txn and thread.doomed_epoch == thread.txn_epoch:
                thread.clock = clock
                thread.pc = pc
                if bus_enabled:
                    bus.now = clock
                self._abort(thread, AbortCause.CM_KILL)
                clock = thread.clock
                pc = thread.pc
                continue
            if pc >= nops:
                thread.clock = clock
                thread.pc = pc
                thread.done = True
                return
            opcode, arg = ops[pc]
            if opcode == op_compute:
                # Consume the whole run of consecutive COMPUTE ops in
                # one tight loop: no other thread executes while this
                # one advances its clock, so the doom state checked
                # above cannot change until the next handler call.
                clock += arg
                pc += 1
                while clock < deadline and pc < nops:
                    opcode, arg = ops[pc]
                    if opcode != op_compute:
                        break
                    clock += arg
                    pc += 1
                continue
            thread.clock = clock
            thread.pc = pc
            if bus_enabled:
                # Machine-level emissions (tokens, conflicts,
                # coherence) have no clock of their own: give the bus
                # the running thread's clock as the default stamp.
                bus.now = clock
            if dispatch[opcode](thread, arg) is False:
                return  # blocked on a lock; re-queued with a later clock
            clock = thread.clock
            pc = thread.pc
            if thread.done:
                return
        thread.clock = clock
        thread.pc = pc
