"""How fast the host is right now, from a fixed CPU loop.

On a shared host the same round of work can take anywhere from 1x to
1.7x its quiet-host time, in phases lasting a few seconds, because
other tenants contend for the cores and caches.  Raw times then differ
more between runs than any regression bound worth having.

The loop below touches none of the library.  It mixes interpreter work
with NumPy passes over 4096-element integer arrays (sort-based unique,
scatter-add, integer hashing, prefix sums), the same mix a round of
ingest performs, so contention slows it about as much as it slows a
round.  ``run.py`` times it before and after each round and scales the
round's times by ``REFERENCE_SECONDS`` over the mean of the two
samples.  A program change cannot move the loop, so the scaled times
move only with the program.
"""

from __future__ import annotations

import time

import numpy as np

#: The loop's median time on the reference host (2 vCPUs of an x86-64
#: Firecracker VM, CPython 3.11, NumPy 2.4) in a quiet phase.  Scaled
#: times read as that host's times when quiet.
REFERENCE_SECONDS = 0.007


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(20180611)
        self._keys = [rng.zipf(1.3, 4096) % 65536 for _ in range(8)]
        self._table = np.zeros(65536, dtype=np.int64)

    def sample(self) -> float:
        """Seconds one pass of the loop takes now."""
        start = time.perf_counter()
        x = 0
        for i in range(30000):
            x = (x * 31 + i) % 1000003
        prime, width = np.uint64(4294967291), np.uint64(65536)
        for j in range(24):
            keys = self._keys[j % 8]
            unique, inverse = np.unique(keys, return_inverse=True)
            sums = np.zeros(len(unique), dtype=np.int64)
            np.add.at(sums, inverse, 1)
            hashed = (keys.astype(np.uint64) * np.uint64(2654435761)
                      + np.uint64(j)) % prime
            self._table[hashed % width] += 1
            np.cumsum(hashed)
        return time.perf_counter() - start

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor taking times measured between two samples to the
        reference host's quiet-phase times."""
        return REFERENCE_SECONDS / ((before + after) / 2)
