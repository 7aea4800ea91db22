"""Bloom filter for SSTable key membership.

One filter per table keeps point lookups from touching disk for tables
that cannot contain the key — the standard LSM read-amplification
control; its false-positive rate directly shapes YCSB read latency.

Every filter derives its ``num_hashes`` bit positions from the same
128-bit digest of the key (double hashing, ``h1 + i * h2``), so a
lookup that probes several tables hashes the key once
(:meth:`BloomFilter.key_hashes`) and hands the pair to each filter.
"""

from __future__ import annotations

import hashlib
from typing import Optional

__all__ = ["BloomFilter"]

_LOW64 = (1 << 64) - 1


class BloomFilter:
    """Classic k-hash bloom filter over a bit array."""

    def __init__(self, expected_items: int, bits_per_key: int = 10):
        self.num_bits = max(64, expected_items * bits_per_key)
        self.num_hashes = max(1, int(bits_per_key * 0.69))  # ln2 * bits/key
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.items = 0

    @staticmethod
    def key_hashes(key: bytes) -> tuple[int, int]:
        """The ``(h1, h2)`` pair every filter's positions derive from."""
        both = int.from_bytes(
            hashlib.blake2b(key, digest_size=16).digest(), "little")
        return both & _LOW64, (both >> 64) | 1

    def add(self, key: bytes) -> None:
        h1, h2 = self.key_hashes(key)
        bits, num_bits = self._bits, self.num_bits
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
        self.items += 1

    def might_contain(self, key: bytes,
                      hashes: Optional[tuple[int, int]] = None) -> bool:
        """False only if ``key`` was never added; ``hashes`` is
        :meth:`key_hashes` of ``key`` when the caller already has it."""
        h1, h2 = self.key_hashes(key) if hashes is None else hashes
        bits, num_bits = self._bits, self.num_bits
        # position i is (h1 + i * h2) % num_bits, stepped in reduced form
        pos, step = h1 % num_bits, h2 % num_bits
        for _ in range(self.num_hashes):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            pos += step
            if pos >= num_bits:
                pos -= num_bits
        return True

    @property
    def size_bytes(self) -> int:
        return len(self._bits)
