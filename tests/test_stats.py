import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import chdtrc

import pagiant
from pagiant import processes as P, stats as S, theory as T
from pagiant.graph_core import MultiGraph


def test_histogram_basics():
    h = S.DegreeHistogram.from_degrees([2, 1, 1])
    assert h.n == 3
    assert S.pi_k(h, 1) == 2 / 3
    assert S.mu_hat_k(h, 2) == 2.0
    assert S.breve_mu(h) == 0 - 1 - 1
    assert S.DegreeHistogram.from_counts({1: 2, 2: 1}) == h


def test_breve_mu_zero_for_all_deg_two():
    h = S.DegreeHistogram.from_degrees([2] * 10)
    assert S.breve_mu(h) == 0


def test_degree_fluctuation_centers_at_critical_density():
    # mu2 - 2 mu1 estimates E Y(Y-2): zero at m = m_c, one at m = n/2
    n = 20_000
    for m, target, tol in ((n // 4, 0.0, 0.15), (n // 2, 1.0, 0.25)):
        cfg = P.ProcessConfig(n=n, weight_rule=P.LinearAlpha(1.0), mode="multigraph",
                              m_max=m, checkpoints=(m,), seed=31)
        traj = P.run_process(cfg)
        h = S.DegreeHistogram.from_counts(dict(traj.records[-1].degree_hist))
        val = S.mu_hat_k(h, 2) - 2 * S.mu_hat_k(h, 1)
        assert abs(val - target) < tol
        assert S.breve_mu(h) == round(val * n)


def test_empirical_mean_degree_exact():
    n, m = 5000, 3000
    cfg = P.ProcessConfig(n=n, weight_rule=P.LinearAlpha(2.0), mode="multigraph",
                          m_max=m, checkpoints=(m,), seed=32)
    traj = P.run_process(cfg)
    h = S.DegreeHistogram.from_counts(dict(traj.records[-1].degree_hist))
    assert S.mu_hat_k(h, 1) == 2 * m / n


def test_tv_and_chi_square_null_case():
    rng = random.Random(33)
    model = T.NegBinomial(1.0, 0.5)
    degs = [_nb_draw(rng) for _ in range(100_000)]
    h = S.DegreeHistogram.from_degrees(degs)
    assert S.tv_distance(h, model) < 0.01
    res = S.chi_square(h, model)
    assert res.pvalue > 1e-4


def _nb_draw(rng):
    # geometric on {0,1,...} with success probability 1/2
    k = 0
    while rng.random() < 0.5:
        k += 1
    return k


def test_tv_counts_missing_tail_mass():
    h = S.DegreeHistogram.from_degrees([0] * 10)
    model = T.NegBinomial(1.0, 0.5)
    # TV between a point mass at 0 and the geometric law is exactly 1/2
    assert abs(S.tv_distance(h, model) - 0.5) < 1e-12


def test_chi_square_degenerate_rejected():
    h = S.DegreeHistogram.from_degrees([0] * 50)
    with pytest.raises(ValueError):
        S.chi_square(h, T.NegBinomial(1.0, 1e-9))


def test_chi_square_counts_pools_small_cells():
    observed = {"a": 60, "b": 40, "c": 1}
    probs = {"a": 0.6, "b": 0.39, "c": 0.01}
    res = S.chi_square_counts(observed, probs)
    assert res.dof >= 1
    assert 0 <= res.pvalue <= 1


@pytest.mark.parametrize("probs", [{"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5, "c": 0.0}])
def test_chi_square_counts_rejects_impossible_outcomes(probs):
    # an outcome the law does not list, or gives probability 0, fails the test
    res = S.chi_square_counts({"a": 5000, "b": 5000, "c": 40}, probs)
    assert res.pvalue == 0.0 and res.stat == math.inf
    assert S.chi_square_counts({"a": 5000, "b": 5000, "c": 0}, probs).pvalue > 0.5


TAIL_DOFS = [*range(1, 61), 100, 220, 500, 2000]


@pytest.mark.parametrize("dof", TAIL_DOFS)
def test_chi_square_tail_matches_scipy(dof):
    # x from 1e-6 to past the underflow of e^(-x/2) (x/2 > 745), and around
    # x = dof + 2, where the series hands over to the continued fraction
    switch = dof + 2.0
    spread = 6 * math.sqrt(2 * dof) + 2
    xs = [*np.geomspace(1e-6, 8000, 300).tolist(),
          *np.linspace(max(switch - spread, 1e-3), switch + spread, 101).tolist(),
          *(switch * (1 + d) for d in (-1e-3, -1e-9, -2 ** -52, 0, 2 ** -52, 1e-9, 1e-3))]
    for x in xs:
        want = float(chdtrc(dof, x))
        got = S.chi_square_tail(dof, x)
        if want > 1e-300:
            assert abs(got - want) <= 1e-10 * want, (dof, x, got, want)
        else:
            assert abs(got - want) <= 1e-15, (dof, x, got, want)


def test_chi_square_tail_edges_match_scipy():
    # a nan or negative statistic gives nan, so it fails every p threshold
    for dof in (1, 2, 7, 2000):
        for x in (0.0, math.inf, -1.0, math.nan):
            got, want = S.chi_square_tail(dof, x), float(chdtrc(dof, x))
            assert got == want or math.isnan(got) and math.isnan(want), (dof, x, got)
    assert S.chi_square_tail(3, 0.0) == 1.0 and S.chi_square_tail(3, math.inf) == 0.0
    assert not S.chi_square_tail(3, math.nan) > 1e-3
    for dof in (0.5, 0, -1, math.nan):
        with pytest.raises(ValueError):
            S.chi_square_tail(dof, 1.0)


@settings(max_examples=300, deadline=None)
@given(dof=st.integers(1, 3000), x=st.floats(0, 1e4), y=st.floats(0, 1e4))
def test_chi_square_tail_is_a_monotone_probability(dof, x, y):
    lo, hi = sorted((x, y))
    p_lo, p_hi = S.chi_square_tail(dof, lo), S.chi_square_tail(dof, hi)
    assert 0.0 <= p_hi <= 1.0 and 0.0 <= p_lo <= 1.0
    # non-increasing up to the tail's accuracy: adjacent doubles can swap
    # by rounding, in scipy's chdtrc too
    assert p_hi <= p_lo * (1 + 1e-10) + 1e-300


def test_runtime_imports_no_scipy():
    # pagiant's runtime needs numpy alone: scipy (and numpy.f2py, which it
    # pulls in) would double the start-up of every command; and a command
    # that starts no process pool loads no multiprocessing
    code = (
        "import sys\n"
        "import pagiant, pagiant.cli\n"
        "from pagiant import cli, stats\n"
        "assert cli.main(['theory', '--alpha', '1', '--eps', '0.2']) == 0\n"
        "assert cli.main(['verify', '--level', 'quick']) == 0\n"
        "assert stats.chi_square_counts({'a': 60, 'b': 40}, {'a': 0.5, 'b': 0.5}).pvalue > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')"
        " or m in ('numpy.f2py', 'concurrent.futures.process') or m.startswith('numpy.f2py.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pagiant.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_kcore_triangle_and_tree():
    g = MultiGraph(3)
    for v, w in ((0, 1), (1, 2), (0, 2)):
        g.add_edge(v, w)
    assert S.kcore_census(g, 2) == 3
    tree = MultiGraph(5)
    for v, w in ((0, 1), (1, 2), (2, 3), (2, 4)):
        tree.add_edge(v, w)
    assert S.kcore_census(tree, 2) == 0
    assert S.kcore_census(tree, 1) == 5
    assert S.kcore_census(tree, 0) == 5


def test_kcore_loop_counts_toward_own_degree():
    g = MultiGraph(2)
    g.add_edge(0, 0)
    assert S.kcore_census(g, 2) == 1


def _brute_kcore_size(n, edges, k):
    # the k-core is the largest vertex set in which every vertex has at
    # least k edge ends on the edges inside the set, a loop counting twice
    best = 0
    for mask in range(1 << n):
        deg = [0] * n
        for v, w in edges:
            if (mask >> v) & (mask >> w) & 1:
                deg[v] += 1
                deg[w] += 1
        inside = [v for v in range(n) if mask >> v & 1]
        if all(deg[v] >= k for v in inside):
            best = max(best, len(inside))
    return best


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(0, 6), data=st.data())
def test_kcore_matches_brute_force_definition(n, k, data):
    # few vertices make loops, multi-edges and isolated vertices common
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=16))
    g = MultiGraph(n)
    for v, w in edges:
        g.add_edge(v, w)
    assert S.kcore_census(g, k) == _brute_kcore_size(n, edges, k)


def test_kcore_onset_within_five_percent_of_threshold():
    # the empirical 3-core onset brackets c_3 * n tightly at desk scale
    n = 100_000
    c3 = T.kcore_threshold(1.0, 3)
    fractions = {}
    for factor in (0.95, 1.05):
        m = int(round(factor * c3 * n))
        cfg = P.ProcessConfig(n=n, weight_rule=P.LinearAlpha(1.0), mode="multigraph",
                              m_max=m, checkpoints=(m,), seed=55)
        ends, _, _ = P.sample_edges(cfg, random.Random(55 + int(100 * factor)))
        fractions[factor] = S.kcore_census(MultiGraph.from_ends(n, ends.tolist()), 3) / n
    assert fractions[0.95] < 1e-3
    assert fractions[1.05] > 0.01


def test_kcore_antitone_in_k():
    rng = random.Random(34)
    g = MultiGraph(300)
    for _ in range(700):
        g.add_edge(rng.randrange(300), rng.randrange(300))
    sizes = [S.kcore_census(g, k) for k in range(6)]
    assert all(x >= y for x, y in zip(sizes, sizes[1:]))


def test_susceptibility_matches_component_census():
    rng = random.Random(35)
    cfg = P.ProcessConfig(n=1000, weight_rule=P.LinearAlpha(1.0), mode="multigraph",
                          m_max=200, checkpoints=(200,), seed=36)
    state = P.ProcessState(cfg)
    for _ in range(200):
        state.step(rng)
    l1, l2, s, census = state.tracker.component_stats()
    assert s == Fraction(sum(c * size * size for size, c in census.items()), 1000)


def test_aggregate_trivial_cases():
    recs = []
    for value in (0.0, 1.0):
        rec = P.CheckpointRecord(m=5, l1=int(value * 10), l2=0, s=1.0, loops=0,
                                 multi_edges=0, degree_hist=((0, 10),))
        recs.append(P.Trajectory((rec,), 5, False))
    summary = S.aggregate(recs, n=10)
    stat = summary.stat_at("L1_over_n", 5)
    assert stat.mean == 0.5
    assert abs(stat.stderr - 0.5) < 1e-12
    assert stat.ci_low <= stat.mean <= stat.ci_high

    same = [recs[0], recs[0], recs[0]]
    summary = S.aggregate(same, n=10)
    assert summary.stat_at("L1_over_n", 5).stderr == 0.0


def test_aggregate_requires_matching_schedules():
    rec_a = P.CheckpointRecord(m=1, l1=1, l2=1, s=1.0, loops=0, multi_edges=0,
                               degree_hist=((0, 2),))
    rec_b = P.CheckpointRecord(m=2, l1=1, l2=1, s=1.0, loops=0, multi_edges=0,
                               degree_hist=((0, 2),))
    with pytest.raises(ValueError):
        S.aggregate([P.Trajectory((rec_a,), 1, False),
                     P.Trajectory((rec_b,), 2, False)], n=2)
    with pytest.raises(ValueError):
        S.aggregate([P.Trajectory((rec_a,), 1, False)], n=2)
