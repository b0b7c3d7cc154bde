import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pagiant.graph_core import (ComponentTracker, MultiGraph, SimpleGraphViolation, merge_labels,
                                size_stats)


def test_first_edge_degrees():
    g = MultiGraph(2)
    g.add_edge(0, 1)
    assert g.deg == [1, 1]
    assert g.num_edges == 1
    assert g.loops == 0 and g.multi_edges == 0


def test_loop_counts_twice():
    g = MultiGraph(2)
    g.add_edge(0, 0)
    assert g.deg[0] == 2
    assert g.loops == 1


def test_simple_mode_rejects_duplicates_and_loops():
    g = MultiGraph(3)
    g.add_edge(0, 1, allow_multi=False)
    with pytest.raises(SimpleGraphViolation):
        g.add_edge(1, 0, allow_multi=False)
    with pytest.raises(SimpleGraphViolation):
        g.add_edge(2, 2, allow_multi=False)
    # the rejected edges must not have mutated anything
    assert g.deg == [1, 1, 0]
    assert g.num_edges == 1


def test_multiplicity_tracking():
    g = MultiGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 0)
    g.add_edge(0, 1)
    g.add_edge(2, 2)
    g.add_edge(2, 2)
    assert g.num_distinct_pairs == 2
    assert g.multi_edges == 3


def test_endpoint_bounds_checked():
    g = MultiGraph(2)
    with pytest.raises(ValueError):
        g.add_edge(0, 2)


def test_degree_sum_is_twice_edges():
    rng = random.Random(0)
    g = MultiGraph(20)
    for _ in range(200):
        g.add_edge(rng.randrange(20), rng.randrange(20))
    assert sum(g.deg) == 2 * g.num_edges == 400


def test_union_merge_delta():
    t = ComponentTracker(6)
    t.union(0, 1)
    t.union(2, 3)
    t.union(3, 4)
    base = t.sum_sq
    merged, size_a, size_b = t.union(0, 2)  # sizes 2 and 3
    assert merged and {size_a, size_b} == {2, 3}
    assert t.sum_sq - base == 2 * 2 * 3


def test_union_within_component_is_noop():
    t = ComponentTracker(4)
    t.union(0, 1)
    before = t.sum_sq
    assert t.union(1, 0) == (False, 2, 2)
    assert t.sum_sq == before


def test_three_unions_merge_everything():
    t = ComponentTracker(4)
    t.union(0, 1)
    t.union(2, 3)
    t.union(0, 2)
    l1, l2, s, census = t.component_stats()
    assert t.sum_sq == 16
    assert (l1, l2) == (4, 0)
    assert s == Fraction(4)
    assert census == {4: 1}


def test_component_stats_no_edges():
    t = ComponentTracker(5)
    l1, l2, s, census = t.component_stats()
    assert (l1, l2) == (1, 1)
    assert s == 1
    assert census == {1: 5}


def test_component_stats_two_components():
    t = ComponentTracker(5)
    t.union(0, 1)
    t.union(1, 2)
    t.union(3, 4)
    l1, l2, s, census = t.component_stats()
    assert (l1, l2) == (3, 2)
    assert s == Fraction(13, 5)
    assert census == {2: 1, 3: 1}


def test_component_stats_full_merge():
    t = ComponentTracker(5)
    for v in range(4):
        t.union(v, v + 1)
    l1, l2, s, _ = t.component_stats()
    assert (l1, l2, s) == (5, 0, 5)


def test_sum_sq_matches_recompute_under_random_unions():
    rng = random.Random(42)
    for trial in range(20):
        n = rng.randrange(2, 60)
        t = ComponentTracker(n)
        for _ in range(rng.randrange(0, 3 * n)):
            t.union(rng.randrange(n), rng.randrange(n))
        sizes = [t.size[i] for i in range(n) if t.parent[i] == i]
        assert sum(sizes) == n
        assert t.sum_sq == sum(s * s for s in sizes)
        l1, l2, s, census = t.component_stats()
        top = sorted(sizes, reverse=True) + [0]
        assert (l1, l2) == (top[0], top[1])
        assert census == dict(sorted(Counter(sizes).items()))
        assert list(census) == sorted(census)
        assert s == Fraction(t.sum_sq, n)


def test_size_stats_ties_and_single_component():
    assert size_stats(np.array([7])) == (7, 0, 49)
    assert size_stats(np.array([1, 3, 3, 2])) == (3, 3, 23)
    assert size_stats(np.array([2, 5, 1])) == (5, 2, 30)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 25),
       batches=st.lists(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=30),
                        max_size=6))
def test_merge_labels_matches_union_find(n, batches):
    # small n makes loops and repeated edges common; batches may be empty
    label = np.arange(n)
    tracker = ComponentTracker(n)
    for batch in batches:
        edges = [(v % n, w % n) for v, w in batch]
        merge_labels(label, np.array([v for v, _ in edges], np.int64),
                     np.array([w for _, w in edges], np.int64))
        for v, w in edges:
            tracker.union(v, w)
        root = []
        for v in range(n):
            while tracker.parent[v] != v:
                v = tracker.parent[v]
            root.append(v)
        # the same partition, each class labelled by its smallest vertex
        assert len(set(zip(label.tolist(), root))) == len(set(root)) == len(set(label.tolist()))
        assert all(label[v] == min(u for u in range(n) if root[u] == root[v]) for v in range(n))
        sizes = np.bincount(label)
        assert sorted(sizes[sizes > 0].tolist()) == sorted(tracker.component_sizes().tolist())
        assert size_stats(sizes[sizes > 0]) == size_stats(tracker.component_sizes())
        assert size_stats(tracker.component_sizes())[2] == tracker.sum_sq


def test_replace_edge_bookkeeping_matches_rebuild():
    rng = random.Random(7)
    n = 12
    g = MultiGraph(n)
    edges = []
    for _ in range(30):
        v, w = rng.randrange(n), rng.randrange(n)
        g.add_edge(v, w)
        edges.append((v, w))
    for _ in range(200):
        i = rng.randrange(len(edges))
        v, w = rng.randrange(n), rng.randrange(n)
        g.replace_edge(i, v, w)
        edges[i] = (v, w)
        fresh = MultiGraph(n)
        for a, b in edges:
            fresh.add_edge(a, b)
        assert g.deg == fresh.deg
        assert g.loops == fresh.loops
        assert g.multi_edges == fresh.multi_edges
        assert Counter(map(tuple, map(sorted, g.edges()))) == \
            Counter(map(tuple, map(sorted, fresh.edges())))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12),
       edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
       simple_pairs=st.booleans())
def test_from_ends_matches_adding_edges(n, edges, simple_pairs):
    # small n makes loops and repeated edges common; a simple graph may
    # hand its pair counts over instead of having them counted
    edges = [(v % n, w % n) for v, w in edges]
    if simple_pairs:
        edges = list(dict.fromkeys((min(v, w), max(v, w)) for v, w in edges if v != w))
    ref = MultiGraph(n)
    for v, w in edges:
        ref.add_edge(v, w)
    ends = [x for edge in edges for x in edge]
    pairs = dict.fromkeys((v * n + w for v, w in edges), 1) if simple_pairs else None
    g = MultiGraph.from_ends(n, ends, pairs)
    assert g.ends is ends or not ends
    assert (g.n, g.ends, g.deg, g.loops, g.num_edges, g.multi_edges) == \
        (ref.n, ref.ends, ref.deg, ref.loops, ref.num_edges, ref.multi_edges)
    assert g._pairs == ref._pairs
    assert all(type(x) is int for x in g.deg + list(g._pairs.values()))
    # and it keeps growing like any graph
    g.add_edge(0, n - 1)
    ref.add_edge(0, n - 1)
    assert (g.ends, g.deg, g.loops, g._pairs) == (ref.ends, ref.deg, ref.loops, ref._pairs)


def test_from_ends_rejects_out_of_range_endpoints():
    with pytest.raises(ValueError, match="out of range"):
        MultiGraph.from_ends(3, [0, 3])


def test_from_ends_rejects_an_odd_endpoint_count():
    with pytest.raises(ValueError, match="odd endpoint count 3"):
        MultiGraph.from_ends(3, [0, 1, 2])
