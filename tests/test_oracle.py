from fractions import Fraction as F

import pytest

from pagiant import oracle

THIRD = F(1, 3)


def test_canonical_key_order_invariant():
    assert oracle.canonical_key([(2, 1), (0, 0), (1, 2)]) == \
        oracle.canonical_key([(1, 2), (1, 2), (0, 0)])
    assert oracle.canonical_key([(1, 0)]) == ((0, 1),)


def test_first_multigraph_step_two_vertices():
    d = oracle.enumerate_process(2, 1, 1, "multigraph")
    assert d == {((0, 0),): THIRD, ((1, 1),): THIRD, ((0, 1),): THIRD}


def test_first_simple_step_two_vertices():
    assert oracle.enumerate_process(2, 1, 1, "simple") == {((0, 1),): F(1)}


def test_distributions_sum_to_one_exactly():
    for mode in ("multigraph", "simple"):
        for n in (2, 3):
            for m in (1, 2):
                if mode == "simple" and m > n * (n - 1) // 2:
                    continue
                for a in (F(1, 2), 1, 2):
                    d = oracle.enumerate_process(n, m, a, mode)
                    assert sum(d.values()) == 1


def test_simple_mode_rejects_unreachable_edge_counts():
    with pytest.raises(ValueError):
        oracle.enumerate_process(2, 2, 1, "simple")


def test_second_simple_step_is_symmetric():
    # after one edge the two remaining pairs are equally likely, and the
    # present pair is excluded
    d = oracle.enumerate_process(3, 2, 1, "simple")
    cond = {k: p for k, p in d.items() if (0, 1) in k}
    mass = sum(cond.values())
    probs = {k: p / mass for k, p in cond.items()}
    assert probs[oracle.canonical_key([(0, 1), (0, 2)])] == F(1, 2)
    assert probs[oracle.canonical_key([(0, 1), (1, 2)])] == F(1, 2)


def test_stub_rule_first_step_two_vertices():
    # a = -3: three stubs each, so a loop takes 3*2 of the 6*5 ordered stub
    # pairs and the edge 2*3*3 of them
    d = oracle.enumerate_process(2, 1, -3, "multigraph")
    assert d == {((0, 0),): F(1, 5), ((1, 1),): F(1, 5), ((0, 1),): F(3, 5)}


def test_stub_rule_law_sums_to_one_and_respects_the_cap():
    for mode in ("multigraph", "simple"):
        for n, m, a in ((3, 2, -3), (4, 2, -3), (3, 3, -4), (4, 3, -3)):
            d = oracle.enumerate_process(n, m, a, mode)
            assert sum(d.values()) == 1
            assert all(0 < p for p in d.values())
            assert all(max(oracle.degrees_of(k, n)) <= -a for k in d)


def test_stub_rule_without_an_addable_pair_raises():
    # one vertex with three stubs: after a loop only one stub is left
    with pytest.raises(ValueError, match="addable pair"):
        oracle.enumerate_process(1, 2, -3)


def test_shape_must_be_positive_or_an_integer_at_most_minus_three():
    for a in (0, -1, -2, F(-7, 2)):
        with pytest.raises(ValueError):
            oracle.enumerate_process(2, 1, a)


def test_bounds_enforced():
    with pytest.raises(ValueError):
        oracle.enumerate_process(5, 1, 1)
    with pytest.raises(ValueError):
        oracle.enumerate_process(2, 4, 1)
    with pytest.raises(ValueError):
        oracle.enumerate_cm((4, 4, 2))
    with pytest.raises(ValueError):
        oracle.enumerate_cm((1, 1, 1))


def test_cm_single_edge():
    assert oracle.enumerate_cm((1, 1)) == {((0, 1),): F(1)}


def test_cm_forced_loop():
    assert oracle.enumerate_cm((2, 0, 0)) == {((0, 0),): F(1)}


def test_cm_star_degrees():
    d = oracle.enumerate_cm((2, 1, 1))
    assert d == {
        oracle.canonical_key([(0, 0), (1, 2)]): THIRD,
        oracle.canonical_key([(0, 1), (0, 2)]): F(2, 3),
    }


def test_cm_two_deg_two_vertices():
    # three stub matchings: one gives two loops, two give a doubled edge
    d = oracle.enumerate_cm((2, 2))
    assert d == {
        oracle.canonical_key([(0, 0), (1, 1)]): THIRD,
        oracle.canonical_key([(0, 1), (0, 1)]): F(2, 3),
    }


def test_conditional_equivalence_trivial_cases():
    rep = oracle.verify_conditional_equivalence(2, 1, 1)
    assert rep.ok
    degs = {c.degrees for c in rep.cases}
    assert (1, 1) in degs and (2, 0) in degs


def test_conditional_equivalence_full_grid():
    for n in (2, 3):
        for m in (1, 2):
            for a in (F(1, 2), 1, 2):
                assert oracle.verify_conditional_equivalence(n, m, a).ok


def test_conditioned_degrees_equal_process_degree_marginal():
    for n in (1, 2, 3):
        for m in (0, 1, 2):
            for a in (F(1, 2), 1, 2):
                marginal = {}
                for key, pr in oracle.enumerate_process(n, m, a, "multigraph").items():
                    deg = oracle.degrees_of(key, n)
                    marginal[deg] = marginal.get(deg, 0) + pr
                assert oracle.enumerate_conditioned_degrees(n, m, a) == marginal


def test_rewiring_single_vertex_trivially_stationary():
    for m in (1, 2):
        assert oracle.verify_rewiring_stationarity(1, m, 1, "current").ok


def test_rewiring_stationary_two_vertices_one_edge():
    pi = oracle.enumerate_process(2, 1, 1, "multigraph")
    assert set(pi.values()) == {THIRD}
    states, matrix = oracle.rewiring_transition_matrix(2, 1, 1, "current")
    assert len(states) == 3
    for s in states:
        assert sum(matrix[s].values()) == 1
    assert oracle.verify_rewiring_stationarity(2, 1, 1, "current").ok


def test_rewiring_stationary_two_edges():
    for a in (F(1, 2), 1, 2):
        assert oracle.verify_rewiring_stationarity(2, 2, a, "current").ok


def test_rewiring_residual_convention_is_not_stationary():
    # arbitration of the endpoint-weight convention: weights taken after
    # removing the edge fail the exact stationarity check
    rep = oracle.verify_rewiring_stationarity(2, 1, 1, "residual")
    assert not rep.ok
    assert rep.max_deviation > 0


def _closed_form_law(n, m, alpha, mode):
    """The process law with the closed-form normalisers, (2i + an)(2i + an
    + 1) in multigraph mode and (2i + an)^2 - Q(G_i) in simple mode, as
    the oracle once computed it: the reference for the sum of terms."""
    a = F(alpha)
    dist = {(): F(1)}
    for i in range(m):
        nxt = {}
        for key, pr in dist.items():
            deg = oracle.degrees_of(key, n)
            wts = [d + a for d in deg]
            if mode == "multigraph":
                norm = (2 * i + a * n) * (2 * i + a * n + 1)
            else:
                q = 2 * sum(wts[x] * wts[y] for x, y in key) + sum(t * t for t in wts)
                norm = (2 * i + a * n) ** 2 - q
            for v in range(n):
                terms = [((v, v), wts[v] * (deg[v] + 1 + a))] if mode == "multigraph" else []
                terms += [((v, w), 2 * wts[v] * wts[w]) for w in range(v + 1, n)
                          if mode == "multigraph" or (v, w) not in key]
                for edge, t in terms:
                    out = oracle.canonical_key(key + (edge,))
                    nxt[out] = nxt.get(out, 0) + pr * t / norm
        dist = {k: p for k, p in nxt.items() if p}
    return dist


def test_sum_of_terms_keeps_the_closed_form_laws():
    # the normaliser is the sum of the step's terms; for weights d + alpha
    # and r - d that is the closed form, so every law within the bounds is
    # unchanged
    for mode in ("multigraph", "simple"):
        for n in range(1, 5):
            for m in range(4):
                if mode == "simple" and m > n * (n - 1) // 2:
                    continue
                for a in (F(1, 2), 1, 2, F(7, 4), -3, -4, -5):
                    try:
                        law = oracle.enumerate_process(n, m, a, mode)
                    except ValueError as exc:
                        assert "step" in str(exc)
                        with pytest.raises(ZeroDivisionError):
                            _closed_form_law(n, m, a, mode)
                        continue
                    assert law == _closed_form_law(n, m, a, mode), (mode, n, m, a)


def test_linear_and_capped_tables_give_the_rule_laws():
    for mode in ("multigraph", "simple"):
        assert oracle.enumerate_process(3, 2, table=(1.0, 2.0, 3.0, 4.0, 5.0), mode=mode) == \
            oracle.enumerate_process(3, 2, 1, mode)
        assert oracle.enumerate_process(4, 3, table=tuple(k + 0.5 for k in range(8)), mode=mode) == \
            oracle.enumerate_process(4, 3, F(1, 2), mode)
        assert oracle.enumerate_process(4, 3, table=(3, 2, 1, 0), mode=mode) == \
            oracle.enumerate_process(4, 3, -3, mode)


def test_general_table_law_by_hand():
    # f = (1, 2, 0.5) on two vertices: the first step weighs each loop
    # f(0) f(1) = 2 and the edge 2 f(0)^2 = 2; after the loop at 0 the loop
    # at 0 weighs f(2) f(3) = 1/4, the loop at 1 weighs 2 and the edge 1
    law = oracle.enumerate_process(2, 2, table=(1.0, 2.0, 0.5))
    assert sum(law.values()) == 1
    assert law[((0, 0), (0, 0))] == THIRD * F(1, 4) / F(13, 4)
    assert law[((0, 0), (1, 1))] == 2 * THIRD * 2 / F(13, 4)
    # entries are exact: 0.1 is the Fraction of its double, not 1/10; each
    # loop weighs f(0) f(1) = x and the edge 2 x^2
    law = oracle.enumerate_process(2, 1, table=(0.1, 1.0))
    x = F(*(0.1).as_integer_ratio())
    assert x != F(1, 10) and law[((0, 1),)] == 2 * x * x / (2 * x + 2 * x * x)


def test_zero_weight_tables_raise_at_the_step():
    # f = (1, 0): the first edge joins two vertices, the second the other
    # two, and then every weight is zero
    with pytest.raises(ValueError, match="at step 3 from"):
        oracle.enumerate_process(4, 3, table=(1.0, 0.0))
    with pytest.raises(ValueError, match="at step 1 from"):
        oracle.enumerate_process(3, 1, table=(0.0, 1.0), mode="simple")


def test_table_or_alpha_must_be_given_once_and_valid():
    for kwargs in ({}, {"alpha": 1, "table": (1.0,)}, {"table": ()}, {"table": (1.0, -0.5)}):
        with pytest.raises(ValueError):
            oracle.enumerate_process(2, 1, **kwargs)
