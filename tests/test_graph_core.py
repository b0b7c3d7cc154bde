import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pagiant.graph_core import (ComponentTracker, MultiGraph, RunGraph, SimpleGraphViolation,
                                merge_labels, size_stats)


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


def test_multigraph_is_the_run_record_plus_degrees():
    # the step engines read a MultiGraph as the run record of the same edges
    rng = random.Random(1)
    g, record = MultiGraph(6), RunGraph(6, [], set())
    for _ in range(30):
        v, w = rng.randrange(6), rng.randrange(6)
        g.add_edge(v, w)
        record.add_edge(v, w)
    assert isinstance(g, RunGraph)
    assert (g.ends, g.keys, g.num_distinct_pairs) == (record.ends, record.keys, record.num_distinct_pairs)
    assert all(g.has_edge(v, w) == record.has_edge(v, w) for v in range(6) for w in range(6))
    assert g.multi_edges == 30 - len(record.keys)


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


def test_size_stats_ignores_zero_entries():
    # a bincount of component labels holds a zero for every non-root
    assert size_stats(np.array([0, 7, 0])) == (7, 0, 49)
    assert size_stats(np.array([0, 3, 0, 3])) == (3, 3, 18)


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
