"""Multigraph storage and incremental connected-component tracking.

A MultiGraph keeps a fixed vertex set [0, n) and an edge multiset stored as
a flat endpoint list, so that the endpoint list doubles as the draw history
of the attachment samplers.  A ComponentTracker is a size-weighted
union-find that maintains the running sum of squared component sizes, from
which the susceptibility S = sum |C|^2 / n is read off without a rescan.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np


class SimpleGraphViolation(ValueError):
    """A loop or duplicate edge was added while allow_multi is off."""


class MultiGraph:
    """Fixed vertex set, edge multiset with loops and multiplicities.

    Endpoints of edge i are ends[2i] and ends[2i+1]; a loop contributes 2 to
    the degree of its endpoint.
    """

    __slots__ = ("n", "ends", "deg", "loops", "multi_edges", "_pairs")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self.ends: list[int] = []
        self.deg = [0] * n
        self.loops = 0
        self.multi_edges = 0
        # normalized pair key (min*n + max) -> multiplicity
        self._pairs: dict[int, int] = {}

    @property
    def num_edges(self) -> int:
        return len(self.ends) // 2

    @property
    def num_distinct_pairs(self) -> int:
        return len(self._pairs)

    def edges(self):
        ends = self.ends
        for i in range(0, len(ends), 2):
            yield ends[i], ends[i + 1]

    def has_edge(self, v: int, w: int) -> bool:
        key = v * self.n + w if v <= w else w * self.n + v
        return key in self._pairs

    def multiplicity(self, v: int, w: int) -> int:
        key = v * self.n + w if v <= w else w * self.n + v
        return self._pairs.get(key, 0)

    def add_edge(self, v: int, w: int, allow_multi: bool = True) -> None:
        n = self.n
        if not (0 <= v < n and 0 <= w < n):
            raise ValueError(f"endpoint out of range: ({v}, {w})")
        key = v * n + w if v <= w else w * n + v
        if not allow_multi:
            if v == w:
                raise SimpleGraphViolation(f"loop at {v} rejected in simple mode")
            if key in self._pairs:
                raise SimpleGraphViolation(f"duplicate edge ({v}, {w}) rejected in simple mode")
        self.ends.append(v)
        self.ends.append(w)
        if v == w:
            self.deg[v] += 2
            self.loops += 1
        else:
            self.deg[v] += 1
            self.deg[w] += 1
        c = self._pairs.get(key, 0)
        self._pairs[key] = c + 1
        if c:
            self.multi_edges += 1

    def replace_edge(self, i: int, v: int, w: int) -> None:
        """Swap edge i for (v, w), keeping the edge count fixed (rewiring)."""
        n = self.n
        if not (0 <= v < n and 0 <= w < n):
            raise ValueError(f"endpoint out of range: ({v}, {w})")
        a, b = self.ends[2 * i], self.ends[2 * i + 1]
        old_key = a * n + b if a <= b else b * n + a
        c = self._pairs[old_key] - 1
        if c:
            self._pairs[old_key] = c
            self.multi_edges -= 1
        else:
            del self._pairs[old_key]
        if a == b:
            self.deg[a] -= 2
            self.loops -= 1
        else:
            self.deg[a] -= 1
            self.deg[b] -= 1
        self.ends[2 * i] = v
        self.ends[2 * i + 1] = w
        if v == w:
            self.deg[v] += 2
            self.loops += 1
        else:
            self.deg[v] += 1
            self.deg[w] += 1
        new_key = v * n + w if v <= w else w * n + v
        c = self._pairs.get(new_key, 0)
        self._pairs[new_key] = c + 1
        if c:
            self.multi_edges += 1


class MergeInfo(NamedTuple):
    merged: bool
    size_a: int
    size_b: int


class ComponentStats(NamedTuple):
    l1: int
    l2: int
    s: Fraction
    census: dict[int, int]


class ComponentTracker:
    """Union-find over [0, n) with component sizes and running sum |C|^2.

    Union by size with path halving; sum_sq is updated by the exact merge
    delta 2*s1*s2, so S(m) is available in O(1) at any time.
    """

    __slots__ = ("n", "parent", "size", "sum_sq")

    def __init__(self, n: int):
        self.n = n
        self.parent = list(range(n))
        self.size = [1] * n
        self.sum_sq = n

    def union(self, v: int, w: int) -> MergeInfo:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        size = self.size
        if v == w:
            return MergeInfo(False, size[v], size[v])
        s1, s2 = size[v], size[w]
        if s1 < s2:
            v, w = w, v
        parent[w] = v
        size[v] = s1 + s2
        self.sum_sq += 2 * s1 * s2
        return MergeInfo(True, s1, s2)

    def component_stats(self) -> ComponentStats:
        """Scan roots for (L1, L2, S, census).  L2 is 0 when one component."""
        roots = np.flatnonzero(np.asarray(self.parent) == np.arange(self.n))
        sizes, counts = np.unique(np.asarray(self.size)[roots], return_counts=True)
        l1 = int(sizes[-1])
        if counts[-1] > 1:
            l2 = l1
        else:
            l2 = int(sizes[-2]) if len(sizes) > 1 else 0
        census = dict(zip(sizes.tolist(), counts.tolist()))
        return ComponentStats(l1, l2, Fraction(self.sum_sq, self.n), census)
