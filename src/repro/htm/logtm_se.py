"""LogTM-SE: signature-based eager conflict detection (Yen et al.).

The paper's principal comparison points.  LogTM-SE represents each
transaction's read and write sets with per-thread signatures; every
memory request that reaches the directory is checked against the
signatures of all other running transactions, and a hit NACKs the
request (the requester stalls or aborts per the contention policy).
Version management is LogTM's eager in-place update with a per-thread
undo log, shared with TokenTM.

Variants are selected by the signature configuration:

* ``LogTM-SE_2xH3`` — 2 Kbit Bloom signatures, 2 parallel H3 hashes;
* ``LogTM-SE_4xH3`` — 2 Kbit, 4 hashes;
* ``LogTM-SE_Perf`` — unimplementable exact signatures (the paper's
  normalization baseline).

Bloom variants suffer *false positives*: conflicts flagged between
transactions whose actual sets are disjoint.  The machine counts them
(it also tracks exact sets purely for instrumentation) — the effect
behind the paper's Figure 1.

Modelling note: real LogTM-SE probes the cores named by the directory
plus "sticky" ownership left behind by evictions, and falls back to
broadcast with summary signatures after thread migration.  We check
every directory-reaching request against all other live transactions'
signatures, which is what sticky states + summaries conservatively
amount to, and preserves the false-positive dynamics.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.config import HTMConfig, SignatureConfig
from repro.common.errors import TransactionError
from repro.coherence.protocol import MemorySystem
from repro.core.tmlog import TmLog
from repro.obs.events import EventKind
from repro.htm.base import (
    AccessOutcome,
    CommitOutcome,
    ConflictInfo,
    ConflictKind,
    HTM,
)
from repro.signatures import Signature, make_signature
from repro.signatures.bloom import BlockMasks, BloomSignature
from repro.signatures.h3 import make_h3_family


class _SigTxn:
    """Per-transaction signature and undo-log state."""

    __slots__ = ("tid", "core", "read_sig", "write_sig",
                 "read_set", "write_set")

    def __init__(self, tid: int, core: int, read_sig: Signature,
                 write_sig: Signature):
        self.tid = tid
        self.core = core
        self.read_sig = read_sig
        self.write_sig = write_sig
        self.read_set: Set[int] = set()
        self.write_set: Set[int] = set()


class _BloomSummary:
    """OR of the live transactions' read (write) signature bits.

    No live signature holds a bit its union lacks, so a block whose
    mask is not inside the write (read) union tests negative in every
    live write (read) signature: a clear miss needs no walk.
    """

    __slots__ = ("read_masks", "write_masks", "read", "write")

    def __init__(self, read_masks: BlockMasks, write_masks: BlockMasks):
        self.read_masks = read_masks
        self.write_masks = write_masks
        self.read = 0
        self.write = 0

    def add_read(self, block: int) -> None:
        self.read |= self.read_masks[block]

    def add_write(self, block: int) -> None:
        self.write |= self.write_masks[block]

    def drop(self, txn: _SigTxn, live: Iterable[_SigTxn]) -> None:
        """``txn`` has ended: rebuild the unions from ``live``."""
        read = write = 0
        for other in live:
            read |= other.read_sig.bits
            write |= other.write_sig.bits
        self.read = read
        self.write = write

    def may_conflict(self, own: Optional[_SigTxn], block: int,
                     is_write: bool) -> bool:
        write = self.write
        if write:
            mask = self.write_masks[block]
            if write & mask == mask:
                return True
        read = self.read
        if is_write and read:
            mask = self.read_masks[block]
            return read & mask == mask
        return False

    def audit(self, live: Iterable[_SigTxn]) -> Optional[str]:
        for txn in live:
            if txn.read_sig.bits & ~self.read:
                return f"txn {txn.tid} read signature not inside the summary"
            if txn.write_sig.bits & ~self.write:
                return f"txn {txn.tid} write signature not inside the summary"
        return None


class _ExactSummary:
    """Live transactions per block of the read (write) sets.

    The requester's own membership is subtracted, so a zero count is
    exactly "no other transaction holds the block".
    """

    __slots__ = ("readers", "writers")

    def __init__(self) -> None:
        self.readers: Dict[int, int] = {}
        self.writers: Dict[int, int] = {}

    def add_read(self, block: int) -> None:
        readers = self.readers
        readers[block] = readers.get(block, 0) + 1

    def add_write(self, block: int) -> None:
        writers = self.writers
        writers[block] = writers.get(block, 0) + 1

    def drop(self, txn: _SigTxn, live: Iterable[_SigTxn]) -> None:
        """``txn`` has ended: take its sets out of the counts."""
        for counts, blocks in ((self.readers, txn.read_set),
                               (self.writers, txn.write_set)):
            for block in blocks:
                left = counts[block] - 1
                if left:
                    counts[block] = left
                else:
                    del counts[block]

    def may_conflict(self, own: Optional[_SigTxn], block: int,
                     is_write: bool) -> bool:
        writers = self.writers.get(block, 0)
        if writers and own is not None and block in own.write_set:
            writers -= 1
        if writers:
            return True
        if not is_write:
            return False
        readers = self.readers.get(block, 0)
        if readers and own is not None and block in own.read_set:
            readers -= 1
        return readers > 0

    def audit(self, live: Iterable[_SigTxn]) -> Optional[str]:
        readers: Dict[int, int] = {}
        writers: Dict[int, int] = {}
        for txn in live:
            for counts, blocks in ((readers, txn.read_set),
                                   (writers, txn.write_set)):
                for block in blocks:
                    counts[block] = counts.get(block, 0) + 1
        if readers != self.readers:
            return "read-set summary counts differ from a recount"
        if writers != self.writers:
            return "write-set summary counts differ from a recount"
        return None


class LogTMSE(HTM):
    """LogTM-SE machine parameterized by signature geometry."""

    def __init__(self, mem: MemorySystem, config: HTMConfig,
                 signature: Optional[SignatureConfig] = None,
                 name: Optional[str] = None):
        super().__init__(mem)
        self._config = config
        self._sig_config = signature or config.signature
        if name is not None:
            self.name = name
        elif self._sig_config.perfect:
            self.name = "LogTM-SE_Perf"
        else:
            self.name = (f"LogTM-SE_{self._sig_config.num_hashes}xH3")
        self._txns: Dict[int, _SigTxn] = {}
        self._logs: Dict[int, TmLog] = {}
        # Interned outcome for repeat set-resident accesses: a stable
        # L1 hit never reaches the directory, so it is never
        # signature-checked and always granted at L1-hit latency.
        self._fast_outcome = AccessOutcome(True, mem.config.latency.l1_hit)
        self._sig_seed = 0
        # All transactions share one H3 family per set kind (as the
        # hardware does: the hash wiring is fixed at design time), so
        # block masks are memoized per machine, one map per kind.
        self._masks: Optional[Tuple[BlockMasks, BlockMasks]] = None
        if self._sig_config.perfect:
            self._summary = _ExactSummary()
        else:
            bank_bits = self._sig_config.bits // self._sig_config.num_hashes
            index_bits = int(math.log2(bank_bits))
            self._masks = tuple(
                BlockMasks(make_h3_family(self._sig_config.num_hashes,
                                          index_bits,
                                          seed=self._sig_seed + kind),
                           bank_bits)
                for kind in (0, 1)
            )
            self._summary = _BloomSummary(*self._masks)

    def _new_signature(self, kind: int) -> Signature:
        """Fresh signature over the machine-wide hash family."""
        if self._masks is None:
            return make_signature(self._sig_config,
                                  seed=self._sig_seed + kind)
        return BloomSignature(self._sig_config, masks=self._masks[kind])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin(self, core: int, tid: int) -> int:
        if tid in self._txns:
            raise TransactionError(f"thread {tid} already in a transaction")
        self._txns[tid] = _SigTxn(
            tid, core,
            self._new_signature(0),
            self._new_signature(1),
        )
        if tid not in self._logs:
            self._logs[tid] = TmLog(tid)
        return self.mem.config.latency.txn_begin

    def _txn(self, tid: int) -> _SigTxn:
        txn = self._txns.get(tid)
        if txn is None:
            raise TransactionError(f"thread {tid} has no live transaction")
        return txn

    # ------------------------------------------------------------------
    # Conflict checks
    # ------------------------------------------------------------------

    def _check(self, tid: int, block: int,
               is_write: bool) -> Optional[ConflictInfo]:
        """Signature-check a directory-reaching request.

        A load conflicts with remote write signatures; a store with
        remote read *and* write signatures.  Returns None when clear.
        The machine-wide summary answers a clear miss without probing
        any remote signature; only a summary hit walks them.
        """
        if not self._summary.may_conflict(self._txns.get(tid), block,
                                          is_write):
            return None
        writer_hits: List[int] = []
        reader_hits: List[int] = []
        any_real = False
        for other_tid, other in self._txns.items():
            if other_tid == tid:
                continue
            if other.write_sig.test(block):
                writer_hits.append(other_tid)
                if block in other.write_set:
                    any_real = True
            elif is_write and other.read_sig.test(block):
                reader_hits.append(other_tid)
                if block in other.read_set:
                    any_real = True
        if not writer_hits and not reader_hits:
            return None
        self.stats.conflicts += 1
        if not any_real:
            self.stats.false_positive_conflicts += 1
        if self.bus.enabled:
            # The directory NACKed the request on a signature hit.
            self.bus.emit(
                EventKind.NACK, tid=tid, block=block,
                conflict_kind="writer" if writer_hits else "readers",
                false_positive=not any_real, write=is_write,
            )
        if writer_hits:
            return ConflictInfo(block, ConflictKind.WRITER,
                                hints=tuple(writer_hits + reader_hits),
                                complete=True,
                                false_positive=not any_real)
        return ConflictInfo(block, ConflictKind.READERS,
                            hints=tuple(reader_hits), complete=True,
                            false_positive=not any_real)

    def _log_append(self, core: int, tid: int, block: int) -> int:
        lat = self.mem.config.latency
        log = self._logs[tid]
        cycles = 0
        for log_block in log.append(block, 1, True):
            latency = self.mem.access_latency(core, log_block, True)
            cycles += latency + lat.log_write
            stall = latency - lat.l1_hit
            if stall > 0:
                self.stats.log_stall_cycles += stall
        self.stats.log_write_cycles += cycles
        return cycles

    # ------------------------------------------------------------------
    # Transactional accesses
    # ------------------------------------------------------------------

    def read(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txn(tid)
        self.stats.txn_reads += 1
        # Read-set short-circuit: a filtered hit cannot reach the
        # directory, so the signature check cannot fire, and the
        # re-insert the slow path would do is idempotent.
        if block in txn.read_set:
            entry = self.mem.fast_entry(core, block, False)
            if entry is not None:
                self.mem.fast_hit(core, entry, False)
                self.mem.fastpath.htm_read_hits += 1
                return self._fast_outcome
        if self.mem.needs_directory(core, block, False):
            conflict = self._check(tid, block, is_write=False)
            if conflict is not None:
                # NACKed at the directory: no data movement.
                return AccessOutcome(
                    False, self.mem.request_latency(core, block), conflict
                )
        res = self.mem.access(core, block, False)
        txn.read_sig.insert(block)
        if block not in txn.read_set:
            txn.read_set.add(block)
            self._summary.add_read(block)
        return AccessOutcome(True, res.latency)

    def write(self, core: int, tid: int, block: int) -> AccessOutcome:
        txn = self._txn(tid)
        self.stats.txn_writes += 1
        # Write-set short-circuit: the block is already logged (first
        # write did that) and a writable filtered hit needs neither
        # the directory nor a fresh log record.
        if block in txn.write_set:
            entry = self.mem.fast_entry(core, block, True)
            if entry is not None:
                self.mem.fast_hit(core, entry, True)
                self.mem.fastpath.htm_write_hits += 1
                return self._fast_outcome
        if self.mem.needs_directory(core, block, True):
            conflict = self._check(tid, block, is_write=True)
            if conflict is not None:
                return AccessOutcome(
                    False, self.mem.request_latency(core, block), conflict
                )
        res = self.mem.access(core, block, True)
        latency = res.latency
        txn.write_sig.insert(block)
        if block not in txn.write_set:
            txn.write_set.add(block)
            self._summary.add_write(block)
            latency += self._log_append(core, tid, block)
        return AccessOutcome(True, latency)

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------

    def commit(self, core: int, tid: int) -> CommitOutcome:
        txn = self._txn(tid)
        self._logs[tid].reset()
        del self._txns[tid]
        self._summary.drop(txn, self._txns.values())
        self.stats.commits += 1
        self.stats.fast_releases += 1  # signature flash-clear is O(1)
        return CommitOutcome(self.mem.config.latency.txn_commit,
                             used_fast_release=True)

    def abort(self, core: int, tid: int) -> CommitOutcome:
        txn = self._txn(tid)
        lat = self.mem.config.latency
        log = self._logs[tid]
        cycles = lat.conflict_trap
        for record, log_block in log.walk_backward():
            cycles += self.mem.access_latency(core, log_block, False)
            if record.is_write:
                data = self.mem.access(core, record.block, True)
                cycles += data.latency + lat.undo_write
                self.stats.undo_cycles += data.latency + lat.undo_write
        log.reset()
        del self._txns[tid]
        self._summary.drop(txn, self._txns.values())
        self.stats.aborts += 1
        return CommitOutcome(cycles)

    # ------------------------------------------------------------------
    # Strong atomicity
    # ------------------------------------------------------------------

    def nontxn_read(self, core: int, tid: int, block: int) -> AccessOutcome:
        if self.mem.needs_directory(core, block, False):
            conflict = self._check(tid, block, is_write=False)
            if conflict is not None:
                return AccessOutcome(
                    False, self.mem.request_latency(core, block), conflict
                )
        res = self.mem.access(core, block, False)
        return AccessOutcome(True, res.latency)

    def nontxn_write(self, core: int, tid: int, block: int) -> AccessOutcome:
        if self.mem.needs_directory(core, block, True):
            conflict = self._check(tid, block, is_write=True)
            if conflict is not None:
                return AccessOutcome(
                    False, self.mem.request_latency(core, block), conflict
                )
        res = self.mem.access(core, block, True)
        return AccessOutcome(True, res.latency)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def active_tids(self) -> List[int]:
        return list(self._txns)

    def read_set_size(self, tid: int) -> int:
        txn = self._txns.get(tid)
        return len(txn.read_set) if txn else 0

    def write_set_size(self, tid: int) -> int:
        txn = self._txns.get(tid)
        return len(txn.write_set) if txn else 0

    def check_invariants(self) -> Dict[str, object]:
        """Coherence audit, signature supersets and the summary.

        A Bloom signature may report false positives but never false
        negatives: every block in a live transaction's exact read
        (write) set must test positive in its read (write) signature,
        or conflict detection has silently lost isolation.  The
        machine-wide summary must cover every live signature (Bloom)
        or equal a recount of the live sets (exact), or a clear-miss
        answer could hide a real conflict.
        """
        report = super().check_invariants()
        for tid, txn in self._txns.items():
            for block in txn.read_set:
                if not txn.read_sig.test(block):
                    raise TransactionError(
                        f"txn {tid} read block {block:#x} missing from "
                        f"its read signature (false negative)"
                    )
            for block in txn.write_set:
                if not txn.write_sig.test(block):
                    raise TransactionError(
                        f"txn {tid} wrote block {block:#x} missing from "
                        f"its write signature (false negative)"
                    )
        problem = self._summary.audit(self._txns.values())
        if problem is not None:
            raise TransactionError(problem)
        report["checks"] = list(report["checks"]) + [
            "signature_superset", "signature_summary"]
        report["live_txns"] = len(self._txns)
        return report

    def signature_fill(self, tid: int) -> Tuple[float, float]:
        """(read, write) signature fill ratios, for diagnostics."""
        txn = self._txns.get(tid)
        if txn is None:
            return (0.0, 0.0)
        read_fill = getattr(txn.read_sig, "fill_ratio", 0.0)
        write_fill = getattr(txn.write_sig, "fill_ratio", 0.0)
        return (read_fill, write_fill)
