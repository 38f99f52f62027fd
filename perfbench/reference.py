"""A fixed reference workload that measures how fast the host is right now.

The benchmark shares a few vCPUs with other tenants, and their load moves
the speed of pure-Python code by tens of percent over a minute.  Such a
swing hits the simulator and this reference alike, so a worker runs short
reference chunks interleaved with the simulation (timed separately and
left out of the simulation's timed region) and ``run.py`` scales host
times to a fixed reference speed.

The reference work never changes with the repository: it touches no
``repro`` code.  It mixes what the simulator spends its time on --
dictionary lookups over an object table larger than the CPU caches,
attribute access, interval-overlap tests and heap scheduling -- so that
interference slows both by about the same factor.
"""

from __future__ import annotations

import heapq
import random
import time

#: Seconds one chunk takes at the reference speed.  Only a scale: host
#: times are reported as ``measured * REFERENCE_CHUNK_S / chunk_s``.
REFERENCE_CHUNK_S = 0.003


class _Entry:
    __slots__ = ("start", "end", "owner")

    def __init__(self, start: int, end: int, owner: int):
        self.start = start
        self.end = end
        self.owner = owner


class Reference:
    """A seeded table of entries and a fixed chunk of work on it."""

    TABLE_SIZE = 8192
    STEPS = 2_000

    def __init__(self):
        rng = random.Random(7)
        self.table = {}
        for i in range(self.TABLE_SIZE):
            start = rng.randrange(1 << 20)
            self.table[f"r{i}"] = _Entry(start, start + rng.randrange(
                1, 1 << 14), i % 16)
        self.keys = [f"r{rng.randrange(self.TABLE_SIZE)}"
                     for _ in range(4096)]
        self.overlaps = None

    def chunk(self) -> float:
        """Run one chunk; return its host seconds."""
        t0 = time.perf_counter()
        table, keys, heap, overlaps = self.table, self.keys, [], 0
        for i in range(self.STEPS):
            a = table[keys[i & 4095]]
            b = table[keys[(i * 7 + 3) & 4095]]
            if a.start < b.end and b.start < a.end and a.owner != b.owner:
                overlaps += 1
            heapq.heappush(heap, (a.start, i, a))
            if len(heap) > 64:
                heapq.heappop(heap)
        elapsed = time.perf_counter() - t0
        # The work is deterministic: a different answer means a broken
        # reference, not a slow host.
        if self.overlaps is None:
            self.overlaps = overlaps
        elif overlaps != self.overlaps:
            raise RuntimeError("reference chunk changed its result")
        return elapsed
