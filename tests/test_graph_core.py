import random
from collections import Counter
from fractions import Fraction

import pytest

from pagiant.graph_core import ComponentTracker, MultiGraph, SimpleGraphViolation


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
    assert g.multiplicity(0, 1) == 3
    assert g.multi_edges == 2


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
    info = t.union(0, 2)  # sizes 2 and 3
    assert info.merged and {info.size_a, info.size_b} == {2, 3}
    assert t.sum_sq - base == 2 * 2 * 3


def test_union_within_component_is_noop():
    t = ComponentTracker(4)
    t.union(0, 1)
    before = t.sum_sq
    info = t.union(1, 0)
    assert not info.merged
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
