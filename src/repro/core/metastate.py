"""Logical per-block metastate: the (Sum, TID) summary and Table 2.

TokenTM logically associates a vector of per-thread token debits with
every memory block, but implements only a conservative summary: the
2-tuple ``(Sum, TID)`` where ``Sum`` is the total number of debited
tokens and ``TID`` identifies an owner only when the sum is exactly 1
(a single identified reader) or exactly T (a writer).

This module defines the immutable :class:`Meta` value and the pure
transition functions for token acquisition and release, following the
paper's Table 2 ("Common Metastate Transitions").  Conflict outcomes
carry the TID hint when the metastate provides one — the basis for
the contention manager's easy/hard cases (Section 5.2).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

from repro.common.errors import BookkeepingError, MetastateError, TokenError


class Meta:
    """Immutable (Sum, TID) metastate summary.

    ``tid`` is meaningful only when ``total`` is 1 or T; anonymous
    reader counts carry ``tid=None``.  ``total == 0`` is the
    transactionally-inactive state ``(0, -)``.

    A value type built on every token decode, so a ``__slots__``
    class: a frozen dataclass costs several times as much to build
    ("Per-access object cost" in docs/performance.md).  Nothing
    assigns its fields after construction.
    """

    __slots__ = ("total", "tid")

    def __init__(self, total: int, tid: Optional[int] = None) -> None:
        if total < 0:
            raise MetastateError(f"negative token sum {total}")
        if tid is not None and total == 0:
            raise MetastateError("(0, X) is not a legal metastate")
        self.total = total
        self.tid = tid

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Meta:
            return NotImplemented
        return self.total == other.total and self.tid == other.tid

    def __hash__(self) -> int:
        return hash((self.total, self.tid))

    def __repr__(self) -> str:
        return f"Meta(total={self.total!r}, tid={self.tid!r})"

    def __str__(self) -> str:
        owner = "-" if self.tid is None else str(self.tid)
        return f"({self.total}, {owner})"


#: The transactionally-inactive metastate (0, -).
META_ZERO = Meta(0, None)


class AccessVerdict(Enum):
    """Result category of a token acquisition attempt."""

    #: Access may proceed; tokens (possibly zero) were acquired.
    GRANTED = "granted"
    #: Conflict with a transactional writer.
    WRITER_CONFLICT = "writer-conflict"
    #: Conflict with one or more transactional readers.
    READER_CONFLICT = "reader-conflict"


#: Verdicts as module constants: an ``Enum`` class-attribute lookup
#: costs several times a global read on the per-access path.
GRANTED = AccessVerdict.GRANTED
WRITER_CONFLICT = AccessVerdict.WRITER_CONFLICT
READER_CONFLICT = AccessVerdict.READER_CONFLICT


class AcquireResult:
    """Outcome of :func:`acquire_read` / :func:`acquire_write`.

    Attributes
    ----------
    verdict:
        Granted or the conflict category.
    meta:
        Metastate after the operation (unchanged on conflict).
    acquired:
        Tokens newly debited (0 when the thread already held enough).
    owner_hint:
        TID of a conflicting transaction when the metastate identifies
        one (the contention manager's "easy case"); None otherwise.
    granted:
        Whether ``verdict`` is :attr:`AccessVerdict.GRANTED`.

    A ``__slots__`` value type like :class:`Meta`: one is built per
    token acquisition attempt.
    """

    __slots__ = ("verdict", "meta", "acquired", "owner_hint", "granted")

    def __init__(self, verdict: AccessVerdict, meta: Meta,
                 acquired: int = 0,
                 owner_hint: Optional[int] = None) -> None:
        self.verdict = verdict
        self.meta = meta
        self.acquired = acquired
        self.owner_hint = owner_hint
        self.granted = verdict is GRANTED

    def _key(self) -> tuple:
        return (self.verdict, self.meta, self.acquired, self.owner_hint)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AcquireResult:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"AcquireResult(verdict={self.verdict!r}, "
                f"meta={self.meta!r}, acquired={self.acquired!r}, "
                f"owner_hint={self.owner_hint!r})")


def acquire_read(meta: Meta, tid: int, tokens_per_block: int) -> AcquireResult:
    """Attempt to acquire one token for a transactional load.

    Implements Table 2's load rows plus the fission/fusion-aware
    local-copy rules of Section 4.2: the reader completes if it
    already holds a token or the writer is itself, acquires one token
    from ``(0,-)`` or joins an anonymous count, and conflicts only
    with a foreign writer ``(T, Y)``.
    """
    total = tokens_per_block
    if meta.total == total:
        if meta.tid == tid:
            return AcquireResult(GRANTED, meta)  # own write set
        return AcquireResult(
            WRITER_CONFLICT, meta, owner_hint=meta.tid
        )
    if meta.total == 0:
        return AcquireResult(GRANTED, Meta(1, tid), acquired=1)
    if meta.total == 1 and meta.tid == tid:
        # Already in this transaction's read set (e.g. re-read after
        # the R bit travelled through a context switch).
        return AcquireResult(GRANTED, meta)
    if meta.total + 1 >= total:
        # Reader counts may never reach T (that would masquerade as a
        # writer).  With T = 2**14 this needs ~16K concurrent readers
        # of one block; real hardware falls back to the "limitless"
        # software overflow, which we model as a hard error here
        # because no workload can legitimately reach it.
        raise TokenError(
            f"reader count would reach writer territory on {meta}"
        )
    # Join an anonymous reader count, losing any single-reader identity
    # (fusion rule (1, X) + (1, Y) -> (2, -)).
    return AcquireResult(
        GRANTED, Meta(meta.total + 1, None), acquired=1
    )


def acquire_write(meta: Meta, tid: int, tokens_per_block: int) -> AcquireResult:
    """Attempt to acquire all T tokens for a transactional store.

    The store succeeds from ``(0,-)`` (acquire T), from the thread's
    own ``(1, tid)`` (upgrade: acquire the remaining T-1), or when the
    thread already holds all tokens.  Any foreign reader or writer is
    a conflict; Table 2's "Conflicting Store" rows.
    """
    total = tokens_per_block
    if meta.total == total:
        if meta.tid == tid:
            return AcquireResult(GRANTED, meta)
        return AcquireResult(
            WRITER_CONFLICT, meta, owner_hint=meta.tid
        )
    if meta.total == 0:
        return AcquireResult(
            GRANTED, Meta(total, tid), acquired=total
        )
    if meta.total == 1 and meta.tid == tid:
        # Read-to-write upgrade: acquire the remaining T-1 tokens.
        return AcquireResult(
            GRANTED, Meta(total, tid), acquired=total - 1
        )
    hint = meta.tid if meta.total == 1 else None
    return AcquireResult(READER_CONFLICT, meta, owner_hint=hint)


def release(meta: Meta, tid: int, count: int,
            tokens_per_block: int) -> Meta:
    """Return ``count`` previously-acquired tokens to the metastate.

    Table 2's release rows: releasing the identified single token
    ``(1, X) -> (0, -)``, releasing from an anonymous count
    ``(v, -) -> (v-count, -)``, and releasing a write set
    ``(T, X) -> (0, -)``.  Raises :class:`BookkeepingError` if the
    metastate does not hold that many tokens — the double-entry books
    would not balance.

    Tokens are *fungible*: a release may consume tokens whose TID
    label names another thread.  Labels are conflict-detection hints,
    not ownership records — once fission/fusion anonymizes counts and
    threads release against anonymous pools, a surviving ``(1, Y)``
    label can physically be any thread's token.  The bookkeeping
    invariant is about counts (debits == credits per block), which
    fungible release preserves exactly; a writer's ``(T, X)`` can
    never be nibbled by a foreign reader release because balance
    forbids any other thread from holding credits on that block.
    """
    if count <= 0:
        raise TokenError(f"release count must be positive, got {count}")
    if meta.total < count:
        raise BookkeepingError(
            f"releasing {count} tokens from {meta}: insufficient debits"
        )
    remaining = meta.total - count
    if remaining == 0:
        return META_ZERO
    # A remainder keeps no identity: e.g. a writer can only release
    # all T at once (its log holds one T-sized credit, or a 1 + (T-1)
    # pair whose partial release passes through an anonymous count).
    return Meta(remaining, None)


def transition_table(tokens_per_block: int, x: int = 0,
                     y: int = 1) -> Tuple[Tuple[str, str, str], ...]:
    """Reproduce the rows of the paper's Table 2 for display.

    Returns (action, before, after) string triples using thread ids
    ``x`` (the acting thread) and ``y`` (a conflicting thread).
    """
    t = tokens_per_block
    rows = []

    def fmt(meta: Meta) -> str:
        if meta.total == t:
            return f"(T, {meta.tid})" if meta.tid is not None else "(T, -)"
        return str(meta)

    before = META_ZERO
    after = acquire_read(before, x, t).meta
    rows.append(("Transaction Load", fmt(before), fmt(after)))

    after = acquire_write(META_ZERO, x, t).meta
    rows.append(("Transaction Store", fmt(META_ZERO), fmt(after)))

    rows.append(("Release one Token", fmt(Meta(1, x)),
                 fmt(release(Meta(1, x), x, 1, t))))
    v = 3
    rows.append(("Release one Token", fmt(Meta(v, None)),
                 fmt(release(Meta(v, None), x, 1, t))))
    rows.append(("Release T tokens", fmt(Meta(t, x)),
                 fmt(release(Meta(t, x), x, t, t))))

    writer = Meta(t, y)
    res = acquire_read(writer, x, t)
    rows.append(("Conflicting Load", fmt(writer), fmt(res.meta)))
    readers = Meta(v, None)
    res = acquire_write(readers, x, t)
    rows.append(("Conflicting Store", fmt(readers), fmt(res.meta)))
    res = acquire_write(writer, x, t)
    rows.append(("Conflicting Store", fmt(writer), fmt(res.meta)))
    return tuple(rows)
