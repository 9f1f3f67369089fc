"""Bloom-filter signatures with parallel H3 hash functions.

These model LogTM-SE's hardware signatures: a bit vector of
``SignatureConfig.bits`` bits indexed by ``num_hashes`` parallel H3
functions.  The variants evaluated in the paper are 2 Kbit filters
with 2 hashes (LogTM-SE_2xH3) and 4 hashes (LogTM-SE_4xH3).

Following Sanchez et al., the *parallel* organization partitions the
bit vector into ``num_hashes`` equal banks, one per hash function —
each hash indexes only its own bank.  This is cheaper in hardware
than a true Bloom filter and performs as well or better.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

from repro.common.config import SignatureConfig
from repro.signatures.base import Signature
from repro.signatures.h3 import H3Hash, make_h3_family


class BloomSignature(Signature):
    """Parallel-banked Bloom filter over block addresses."""

    def __init__(self, config: SignatureConfig, seed: int = 0,
                 hashes: Optional[List[H3Hash]] = None,
                 index_cache: Optional[dict] = None):
        if config.perfect:
            raise ValueError(
                "config requests a perfect signature; use PerfectSignature"
            )
        if config.bits % config.num_hashes != 0:
            raise ValueError("signature bits must divide evenly into banks")
        self._config = config
        self._bank_bits = config.bits // config.num_hashes
        bank_index_bits = int(math.log2(self._bank_bits))
        if (1 << bank_index_bits) != self._bank_bits:
            raise ValueError("per-bank size must be a power of two")
        if hashes is not None:
            if len(hashes) != config.num_hashes:
                raise ValueError("hash family size mismatch")
            self._hashes = hashes
        else:
            self._hashes = make_h3_family(
                config.num_hashes, bank_index_bits, seed=seed
            )
        # Hash results per block are deterministic, so machines that
        # build many signatures over one family share an index cache.
        self._index_cache = index_cache if index_cache is not None else {}
        # One Python int per bank as a bit vector: set/test are O(1)
        # big-int ops and clear is a constant store, mirroring the
        # hardware flash-clear.
        self._banks: List[int] = [0] * config.num_hashes
        self._exact: Set[int] = set()

    @property
    def config(self) -> SignatureConfig:
        return self._config

    def _indices(self, block_addr: int):
        indices = self._index_cache.get(block_addr)
        if indices is None:
            indices = tuple(h(block_addr) for h in self._hashes)
            self._index_cache[block_addr] = indices
        return indices

    def insert(self, block_addr: int) -> None:
        banks = self._banks
        for bank, index in enumerate(self._indices(block_addr)):
            banks[bank] |= 1 << index
        self._exact.add(block_addr)

    def test(self, block_addr: int) -> bool:
        banks = self._banks
        for bank, index in enumerate(self._indices(block_addr)):
            if not (banks[bank] >> index) & 1:
                return False
        return True

    def clear(self) -> None:
        for bank in range(len(self._banks)):
            self._banks[bank] = 0
        self._exact.clear()

    def is_empty(self) -> bool:
        return not self._exact

    @property
    def inserted_count(self) -> int:
        return len(self._exact)

    @property
    def exact_set(self) -> frozenset:
        return frozenset(self._exact)

    @property
    def fill_ratio(self) -> float:
        """Fraction of filter bits set (diagnostic for saturation)."""
        set_bits = sum(bin(bank).count("1") for bank in self._banks)
        return set_bits / self._config.bits

    def expected_false_positive_rate(self) -> float:
        """Analytic FP probability for a uniformly random probe.

        For the parallel-banked design with n insertions and per-bank
        size m/k, each bank independently has
        ``1 - (1 - k/m)^n`` of its probed bit set.
        """
        n = len(self._exact)
        k = self._config.num_hashes
        m = self._config.bits
        per_bank = 1.0 - (1.0 - k / m) ** n
        return per_bank ** k
