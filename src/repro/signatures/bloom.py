"""Bloom-filter signatures with parallel H3 hash functions.

These model LogTM-SE's hardware signatures: a bit vector of
``SignatureConfig.bits`` bits indexed by ``num_hashes`` parallel H3
functions.  The variants evaluated in the paper are 2 Kbit filters
with 2 hashes (LogTM-SE_2xH3) and 4 hashes (LogTM-SE_4xH3).

Following Sanchez et al., the *parallel* organization partitions the
bit vector into ``num_hashes`` equal banks, one per hash function —
each hash indexes only its own bank.  This is cheaper in hardware
than a true Bloom filter and performs as well or better.

The whole vector is one Python int: bank ``b`` holds bits
``[b * bank_bits, (b + 1) * bank_bits)``.  A block's *mask* is the
one bit it sets in every bank, so insert is an OR, test is one
AND/compare and clear is a constant store (the hardware flash-clear).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Set

from repro.common.config import SignatureConfig
from repro.signatures.base import Signature
from repro.signatures.h3 import H3Hash, make_h3_family


class BlockMasks(dict):
    """Memoized block -> mask map of one hash family.

    Indexing computes a missing mask on first use.  Masks depend only
    on the family and the bank size, so every signature built over the
    same family can share one map.
    """

    def __init__(self, hashes: Sequence[H3Hash], bank_bits: int):
        super().__init__()
        index_bits = int(math.log2(bank_bits))
        if (1 << index_bits) != bank_bits:
            raise ValueError("per-bank size must be a power of two")
        for h in hashes:
            if h.out_bits != index_bits:
                # A wider hash would set bits in the next bank.
                raise ValueError(
                    f"hash out_bits {h.out_bits} != bank index width "
                    f"{index_bits}"
                )
        self.hashes = tuple(hashes)
        self.bank_bits = bank_bits

    def __missing__(self, block_addr: int) -> int:
        mask = 0
        offset = 0
        for h in self.hashes:
            mask |= 1 << (offset + h(block_addr))
            offset += self.bank_bits
        self[block_addr] = mask
        return mask


class BloomSignature(Signature):
    """Parallel-banked Bloom filter over block addresses."""

    def __init__(self, config: SignatureConfig, seed: int = 0,
                 hashes: Optional[Sequence[H3Hash]] = None,
                 masks: Optional[BlockMasks] = None):
        if config.perfect:
            raise ValueError(
                "config requests a perfect signature; use PerfectSignature"
            )
        if config.bits % config.num_hashes != 0:
            raise ValueError("signature bits must divide evenly into banks")
        self._config = config
        bank_bits = config.bits // config.num_hashes
        if masks is None:
            if hashes is None:
                hashes = make_h3_family(
                    config.num_hashes, int(math.log2(bank_bits)), seed=seed
                )
            masks = BlockMasks(hashes, bank_bits)
        elif hashes is not None:
            raise ValueError("pass hashes or masks, not both")
        if len(masks.hashes) != config.num_hashes:
            raise ValueError("hash family size mismatch")
        if masks.bank_bits != bank_bits:
            raise ValueError("mask map bank size mismatch")
        self._masks = masks
        self._bits = 0
        self._exact: Set[int] = set()

    @property
    def config(self) -> SignatureConfig:
        return self._config

    @property
    def bits(self) -> int:
        """The packed bit vector (bank ``b`` at ``b * bank_bits``)."""
        return self._bits

    def insert(self, block_addr: int) -> None:
        self._bits |= self._masks[block_addr]
        self._exact.add(block_addr)

    def test(self, block_addr: int) -> bool:
        mask = self._masks[block_addr]
        return self._bits & mask == mask

    def clear(self) -> None:
        self._bits = 0
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
        return bin(self._bits).count("1") / self._config.bits

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
