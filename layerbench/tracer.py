"""Span tracer for the layered benchmark.

The tracer wraps the public methods of each simulator layer from the
outside: :meth:`SpanTracer.patched` replaces class (or module)
attributes before a machine is built and restores them afterwards, so
the program under test carries no instrumentation of its own.

Every wrapped call records one span: name, start, end, parent span
and cell id.  Spans stay in memory while a cell runs and are appended
to the span file between cells, outside the timed region.  A layer's
self time is its spans' duration minus the time covered by their
child spans; it is accumulated as spans close.
"""

from __future__ import annotations

import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Tuple

from repro.coherence.cache import L1Cache
from repro.coherence.directory import Directory
from repro.coherence.protocol import MemorySystem
from repro.core.tmlog import TmLog
from repro.htm import logtm_se, onetm, tokentm
from repro.interconnect.topology import TiledTopology
from repro.kernels.interp import InterpKernel
from repro.mem.metabit_store import MetabitStore
from repro.runtime.contention import TimestampManager
from repro.runtime.executor import Executor
from repro.signatures.bloom import BloomSignature
from repro.signatures.perfect import PerfectSignature

#: Layer order used in reports.
LAYERS = ("runtime", "kernels", "htm", "core", "mem", "coherence",
          "signatures", "interconnect")

_HTM_METHODS = ("read", "write", "commit", "abort",
                "nontxn_read", "nontxn_write")


def targets() -> List[Tuple[str, object, str]]:
    """(layer, owner, attribute) for every traced entry point.

    ``owner`` is a class, or the ``repro.htm.tokentm`` module for
    ``fission``/``fuse``, which TokenTM calls through its own module
    globals.
    """
    spec = [
        ("runtime", Executor, ("run",)),
        ("runtime", TimestampManager, ("resolve",)),
        ("kernels", InterpKernel, ("run_quantum",)),
        ("htm", tokentm.TokenTM, _HTM_METHODS),
        ("htm", logtm_se.LogTMSE, _HTM_METHODS),
        ("htm", onetm.OneTM, _HTM_METHODS),
        ("core", TmLog, ("append", "walk_forward", "walk_backward")),
        ("core", tokentm, ("fission", "fuse")),
        ("mem", MetabitStore, ("load", "store")),
        ("coherence", MemorySystem, ("access", "fast_hit", "preview")),
        ("coherence", L1Cache, ("lookup",)),
        ("coherence", Directory, (
            "record_shared_fill", "record_exclusive_fill",
            "record_eviction", "record_upgrade", "record_downgrade")),
        ("signatures", BloomSignature, ("test", "insert")),
        ("signatures", PerfectSignature, ("test", "insert")),
        ("interconnect", TiledTopology, (
            "core_to_bank_latency", "core_to_core_latency",
            "bank_to_memory_latency", "latency")),
    ]
    return [(layer, owner, attr)
            for layer, owner, attrs in spec for attr in attrs]


def span_name(owner: object, attr: str) -> str:
    """``Class.method``, or ``module.function`` for module owners."""
    label = owner.__name__.rsplit(".", 1)[-1]
    return f"{label}.{attr}"


class SpanTracer:
    """Records spans around the traced entry points of one run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        #: Calls per span name (generator walks count once per call).
        self.calls: List[int] = []
        #: Self time per span name, in nanoseconds.
        self.self_ns: List[int] = []
        #: Cell id stamped on new spans (a one-slot list, so the
        #: wrappers read the current value without an attribute walk).
        self.cell = [0]
        #: Buffered span columns: name id, parent index, cell id,
        #: start and end (perf_counter_ns).  Parent indices count from
        #: the start of the buffer; -1 marks a root span.
        self.columns = (array("H"), array("l"), array("H"), array("q"),
                        array("q"))
        # Open spans: [buffer index, nanoseconds covered by children].
        self._stack: List[list] = []

    # -- patching ------------------------------------------------------

    @contextmanager
    def patched(self) -> Iterator["SpanTracer"]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for layer, owner, attr in targets():
                own = vars(owner).get(attr)
                saved.append((owner, attr, attr in vars(owner), own))
                nid = self._name_id(span_name(owner, attr), layer)
                setattr(owner, attr, self._wrap(getattr(owner, attr), nid))
            yield self
        finally:
            for owner, attr, had_own, own in reversed(saved):
                if had_own:
                    setattr(owner, attr, own)
                else:
                    delattr(owner, attr)

    def _name_id(self, name: str, layer: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, nid: int):
        names, parents, cells, starts, ends = self.columns
        stack, calls, self_ns, cell = (self._stack, self.calls,
                                       self.self_ns, self.cell)
        clock = perf_counter_ns

        def span(step, *args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            cells.append(cell[0])
            ends.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                return step(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[index] = end
                duration = end - start
                self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        if inspect.isgeneratorfunction(fn):
            # Each resumption is a span, so the caller's loop body
            # between items is not charged to the walk.
            def traced(*args, **kwargs):
                calls[nid] += 1
                resume = fn(*args, **kwargs).__next__
                while True:
                    try:
                        item = span(resume)
                    except StopIteration:
                        return
                    yield item
        else:
            def traced(*args, **kwargs):
                calls[nid] += 1
                return span(fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------

    def count(self, *names: str) -> int:
        """Summed calls of the named spans (absent names count 0)."""
        return sum(self.calls[self.names.index(n)]
                   for n in names if n in self.names)

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for nid, ns in enumerate(self.self_ns):
            out[self.layer_of[nid]] += ns / 1e9
        return out

    def flush(self, out) -> None:
        """Append the buffered spans to the binary stream ``out``.

        Each chunk is one JSON header line followed by the raw span
        columns; :func:`read_spans` parses the result.
        """
        header = {"spans": len(self.columns[0]), "names": self.names,
                  "columns": [c.typecode for c in self.columns]}
        out.write(json.dumps(header).encode("utf-8") + b"\n")
        for column in self.columns:
            column.tofile(out)
            del column[:]


def read_spans(path) -> Iterator[Dict[str, object]]:
    """Yield every span of a span file as a dict."""
    with open(path, "rb") as handle:
        while True:
            line = handle.readline()
            if not line:
                return
            header = json.loads(line)
            count = header["spans"]
            columns = []
            for typecode in header["columns"]:
                column = array(typecode)
                column.fromfile(handle, count)
                columns.append(column)
            names = header["names"]
            for nid, parent, cell, start, end in zip(*columns):
                yield {"name": names[nid], "parent": parent, "cell": cell,
                       "start_ns": start, "end_ns": end}

