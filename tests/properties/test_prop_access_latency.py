"""Property tests: ``access_latency`` is ``access(...).latency`` exactly.

Two fresh machines receive the same request sequence; one answers
through ``access`` and reads the latency off the result, the other
through ``access_latency``.  After every request the machines must
agree on the latency, the protocol counters, every resident line's
MESI state and LRU stamp, and every directory entry — so the
latency-only probe can stand in for ``access`` without moving any
simulated number.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.coherence.cache import MODIFIED
from repro.coherence.protocol import MemorySystem
from tests.conftest import small_system

CORES = 4

#: A small block pool maximizes sharing, stealing and upgrades; the
#: tiny L1s of ``small_system`` alias many of these blocks into one
#: set, so evictions occur too.
ops_strategy = st.lists(
    st.tuples(st.integers(0, CORES - 1), st.integers(0, 47), st.booleans()),
    min_size=1, max_size=150,
)


def lines_of(mem):
    """Per-core map of resident block -> (MESI state, LRU stamp)."""
    return [
        {line.block: (line.state, line.lru) for line in mem.cache(c).lines()}
        for c in range(CORES)
    ]


def directory_of(mem):
    """Block -> (state, owner, sharers): the directory's holders."""
    return {
        block: (entry.state, entry.owner, frozenset(entry.sharers))
        for block, entry in mem.directory.blocks()
    }


@pytest.mark.parametrize("fast_path", [True, False])
@settings(max_examples=80, deadline=None)
@given(ops=ops_strategy)
def test_access_latency_in_lockstep_with_access(fast_path, ops):
    full = MemorySystem(small_system(), fast_path=fast_path)
    probe = MemorySystem(small_system(), fast_path=fast_path)
    for core, block, is_write in ops:
        expected = full.access(core, block, is_write).latency
        assert probe.access_latency(core, block, is_write) == expected
        assert probe.stats.snapshot() == full.stats.snapshot()
        assert lines_of(probe) == lines_of(full)
        assert directory_of(probe) == directory_of(full)
    probe.audit()


def test_pure_hits_skip_access(sys4):
    """Hits are answered without an ``access`` call; misses delegate."""
    mem = MemorySystem(sys4)
    calls = []
    original = mem.access

    def counting_access(core, block, is_write):
        calls.append((core, block, is_write))
        return original(core, block, is_write)

    mem.access = counting_access
    l1_hit = sys4.latency.l1_hit
    assert mem.access_latency(0, 5, False) > l1_hit   # miss -> E
    assert mem.access_latency(0, 5, True) == l1_hit   # silent E->M
    assert mem.access_latency(0, 5, False) == l1_hit
    assert len(calls) == 1
    assert mem.cache(0).lookup(5).state is MODIFIED
    mem.access_latency(1, 5, False)                   # downgrade to S
    assert mem.access_latency(1, 5, True) > l1_hit    # S upgrade
    assert calls[-1] == (1, 5, True)
