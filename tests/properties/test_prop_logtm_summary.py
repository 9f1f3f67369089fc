"""Property tests: LogTM-SE's summary never changes a conflict check.

``LogTMSE._check`` answers a clear miss from a machine-wide summary of
the live signatures and walks the other transactions only on a
summary hit.  Random begin/read/write/commit/abort/non-transactional
sequences drive 2xH3, 4xH3 (with a 64-bit signature, so false
positives are common) and exact machines.  After every step, every
thread's check of the step's block, as a load and as a store, must
equal a full walk over the other live transactions: same conflict
kind, same hint order, same false-positive flag and the same counter
moves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.common.config import HTMConfig, SignatureConfig
from repro.coherence.protocol import MemorySystem
from repro.htm.base import ConflictKind
from repro.htm.logtm_se import LogTMSE
from tests.conftest import small_system

THREADS = 4

SIGNATURES = {
    "2xH3": SignatureConfig(bits=64, num_hashes=2),
    "4xH3": SignatureConfig(bits=64, num_hashes=4),
    "Perf": SignatureConfig(perfect=True),
}

OPS = ("begin", "read", "write", "commit", "abort", "nontxn_read",
       "nontxn_write")

#: Scattered blocks: H3 is linear, so dense sequential keys would
#: rarely collide in the small signatures.
ops_strategy = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, THREADS - 1),
              st.integers(0, 47).map(lambda i: 0x4000 + i * 977)),
    min_size=1, max_size=80,
)


def full_walk(htm, tid, block, is_write):
    """The check without a summary: probe every other live txn."""
    writers, readers, real = [], [], False
    for other_tid, other in htm._txns.items():
        if other_tid == tid:
            continue
        if other.write_sig.test(block):
            writers.append(other_tid)
            real = real or block in other.write_set
        elif is_write and other.read_sig.test(block):
            readers.append(other_tid)
            real = real or block in other.read_set
    if writers:
        return ConflictKind.WRITER, tuple(writers + readers), not real
    if readers:
        return ConflictKind.READERS, tuple(readers), not real
    return None


def assert_check_matches(htm, tid, block, is_write):
    expected = full_walk(htm, tid, block, is_write)
    conflicts = htm.stats.conflicts
    false_positives = htm.stats.false_positive_conflicts
    got = htm._check(tid, block, is_write)
    if expected is None:
        assert got is None
        assert htm.stats.conflicts == conflicts
        assert htm.stats.false_positive_conflicts == false_positives
        return
    assert got is not None
    assert (got.kind, got.hints, got.false_positive) == expected
    assert htm.stats.conflicts == conflicts + 1
    assert htm.stats.false_positive_conflicts \
        == false_positives + int(got.false_positive)


def step(htm, op, tid, block):
    live = tid in htm._txns
    if op == "begin":
        if not live:
            htm.begin(tid, tid)
    elif op in ("read", "write"):
        if not live:
            htm.begin(tid, tid)
        getattr(htm, op)(tid, tid, block)
    elif op in ("commit", "abort"):
        if live:
            getattr(htm, op)(tid, tid)
    else:
        getattr(htm, op)(tid, tid, block)


@pytest.mark.parametrize("variant", sorted(SIGNATURES))
@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy)
def test_summary_check_equals_full_walk(variant, ops):
    sig = SIGNATURES[variant]
    htm = LogTMSE(MemorySystem(small_system(cores=THREADS)),
                  HTMConfig(signature=sig), signature=sig)
    for op, tid, block in ops:
        step(htm, op, tid, block)
        htm.check_invariants()
        for probe_tid in range(THREADS):
            for is_write in (False, True):
                assert_check_matches(htm, probe_tid, block, is_write)
