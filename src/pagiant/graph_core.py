"""Multigraph storage and incremental connected-component tracking.

A MultiGraph keeps a fixed vertex set [0, n) and an edge multiset stored as
a flat endpoint list, edge i at (ends[2i], ends[2i+1]), so that the
endpoint list doubles as the draw history of the attachment samplers.  It
is built edge by edge (add_edge) for the step-level state, ProcessState,
and for nothing else: runs, configuration-model draws and the rewiring
chain keep only their endpoints.  A ComponentTracker is a size-weighted
union-find that maintains the running sum of squared component sizes, from
which the susceptibility S = sum |C|^2 / n is read off without a rescan.

merge_labels is the array counterpart for a whole batch of edges at once,
and size_stats turns any array of component sizes into (L1, L2, sum |C|^2),
the one statistic every checkpoint record is built from.
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

    __slots__ = ("n", "ends", "deg", "loops", "_pairs")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self.ends: list[int] = []
        self.deg = [0] * n
        self.loops = 0
        # normalized pair key (min*n + max) -> multiplicity
        self._pairs: dict[int, int] = {}

    @property
    def num_edges(self) -> int:
        return len(self.ends) // 2

    @property
    def num_distinct_pairs(self) -> int:
        return len(self._pairs)

    @property
    def multi_edges(self) -> int:
        """Edges beyond the first copy of each pair (loops included)."""
        return self.num_edges - len(self._pairs)

    def has_edge(self, v: int, w: int) -> bool:
        key = v * self.n + w if v <= w else w * self.n + v
        return key in self._pairs

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
        self._pairs[key] = self._pairs.get(key, 0) + 1


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

    def union(self, v: int, w: int) -> tuple[bool, int, int]:
        """Merge the components of v and w.

        Returns (merged, size_a, size_b) with the sizes before the merge;
        when v and w already share a component, both are its size.  A plain
        tuple, because it is built on every step.
        """
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        size = self.size
        if v == w:
            return False, size[v], size[v]
        s1, s2 = size[v], size[w]
        if s1 < s2:
            v, w = w, v
        parent[w] = v
        size[v] = s1 + s2
        self.sum_sq += 2 * s1 * s2
        return True, s1, s2

    def component_sizes(self) -> np.ndarray:
        """Sizes of the components, one entry per root, in root order."""
        n = self.n
        # fromiter reads a list of ints about a third faster than asarray
        roots = np.flatnonzero(np.fromiter(self.parent, np.int64, n) == np.arange(n))
        return np.fromiter(self.size, np.int64, n)[roots]

    def component_stats(self) -> ComponentStats:
        """Scan roots for (L1, L2, S, census).  L2 is 0 when one component."""
        sizes = self.component_sizes()
        l1, l2, sum_sq = size_stats(sizes)
        values, counts = np.unique(sizes, return_counts=True)
        census = dict(zip(values.tolist(), counts.tolist()))
        return ComponentStats(l1, l2, Fraction(sum_sq, self.n), census)


def size_stats(sizes: np.ndarray) -> tuple[int, int, int]:
    """(L1, L2, sum of squares) of a nonempty array of component sizes.

    L2 is the second entry of the sizes sorted in decreasing order, so it
    equals L1 when two components tie for the largest, and it is 0 when
    there is only one component.  Zero entries are ignored, so a bincount
    of component labels can be passed as it is.
    """
    i = int(sizes.argmax())
    l2 = max(sizes[:i].max(initial=0), sizes[i + 1:].max(initial=0))
    return int(sizes[i]), int(l2), int(np.dot(sizes, sizes))


def merge_labels(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join, in place, the components of every edge (a[i], b[i]).

    label[v] must be the smallest vertex of v's component (np.arange(n) for
    the empty graph), and it is again on return.  Each round hooks the
    larger root of every edge that still spans two components onto the
    smaller one; a label only ever moves down, so no cycle can form.  Only
    the hooked roots are relabelled during the rounds, and every other
    vertex follows its old root once at the end.
    """
    ra = label[a]
    rb = label[b]
    hooked = []
    while True:
        split = ra != rb
        if not split.any():
            break
        ra = ra[split]
        rb = rb[split]
        hi = np.maximum(ra, rb)
        np.minimum.at(label, hi, np.minimum(ra, rb))
        hooked.append(hi)
        _jump(label, hi)
        ra = label[ra]
        rb = label[rb]
    if hooked:
        # roots hooked in an early round may point to roots hooked later
        _jump(label, np.concatenate(hooked))
        label[:] = label[label]


def _jump(label: np.ndarray, h: np.ndarray) -> None:
    """Point label[h] at roots, when every label chain from h runs through
    h to a root."""
    cur = label[h]
    while True:
        up = label[cur]
        if (up == cur).all():
            return
        label[h] = up
        cur = up
