"""The benchmark's yardstick for the host's speed.

On a shared host the same pass of a workload runs in a fast or a slow
phase, about 1.6 times apart, each lasting seconds.  `Pace` times a
workload in segments of at most a few seconds and runs a fixed reference
kernel between two segments, so the kernel samples the host's phases as
the workload meets them.  The workload's time divided by the mean kernel
time, times REF_S, is its time in seconds at the pace where the kernel
takes REF_S.  The kernel is benchmark code, so a change to pagiant moves
the workload's time and not the yardstick.
"""

from __future__ import annotations

import random
import time


class Pace:
    """Segments of timed work and the kernel times between them."""

    REF_S = 0.040  # the kernel's median time on the host the benchmark was built on
    SIZE, STEPS = 200_000, 20_000

    def __init__(self):
        self._init = list(range(self.SIZE))
        self._parent = list(self._init)
        self._pairs: dict = {}
        self.segments: list[float] = []
        self.refs: list[float] = []
        self._t0 = 0.0

    def kernel(self) -> float:
        """Union-find over a list plus a dict of pairs: the same kinds of
        interpreter and memory work as a process step."""
        parent, pairs, rng = self._parent, self._pairs, random.Random(1)
        parent[:] = self._init
        pairs.clear()
        t0 = time.perf_counter()
        for _ in range(self.STEPS):
            a, b = rng.randrange(self.SIZE), rng.randrange(self.SIZE)
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[a] = b
            pairs[a ^ b] = pairs.get(a ^ b, 0) + 1  # int keys: no tuples for the GC to count
        return time.perf_counter() - t0

    def start(self) -> None:
        """Open a segment; the first one is preceded by a kernel run."""
        if not self.refs:
            self.refs.append(self.kernel())
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        """Close the open segment, run the kernel, and open the next."""
        self.segments.append(time.perf_counter() - self._t0)
        self.refs.append(self.kernel())
        self._t0 = time.perf_counter()

    def at_ref_pace(self, seconds: float) -> float:
        """`seconds` of the timed work, rescaled to the reference pace."""
        return seconds * self.REF_S * len(self.refs) / sum(self.refs)
