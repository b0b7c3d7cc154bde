import dataclasses
import math
import random
import time
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pagiant import oracle, processes as P, stats as S, theory as T
from pagiant.graph_core import MultiGraph


def lin_cfg(n, alpha, mode, m_max, checkpoints=(), seed=0):
    return P.ProcessConfig(n=n, weight_rule=P.LinearAlpha(alpha), mode=mode,
                           m_max=m_max, checkpoints=tuple(checkpoints), seed=seed)


# ---------------------------------------------------------------------------
# exact tiny-instance laws (the oracle is the reference)
# ---------------------------------------------------------------------------


RUNS_FULL = 1_000_000


@pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(2)])
@pytest.mark.parametrize("mode", ["multigraph", "simple"])
def test_tiny_instance_law_matches_oracle(alpha, mode):
    rng = random.Random(20_260_100 + int(alpha * 4))
    cfg = lin_cfg(3, float(alpha), mode, 2)
    counts = P.sample_process_outcomes(cfg, RUNS_FULL, rng)
    exact = {k: float(v) for k, v in oracle.enumerate_process(3, 2, alpha, mode).items()}
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3, f"law mismatch: chi2={res.stat:.1f} dof={res.dof} p={res.pvalue:.2e}"


# ---------------------------------------------------------------------------
# bulk linear-alpha multigraph runs (run_process without a step loop)
# ---------------------------------------------------------------------------


def _stepped(cfg, rng):
    """run_process by hand: ProcessState steps plus a record per checkpoint."""
    state = P.ProcessState(cfg)
    cps = set(cfg.checkpoints)
    records = [P._checkpoint_record(state, 0)] if 0 in cps else []
    for m in range(1, cfg.m_max + 1):
        state.step(rng)
        if m in cps:
            records.append(P._checkpoint_record(state, m))
    return records


@pytest.mark.parametrize("alpha", [0.5, 1.0, 10.0, 1e6])
@pytest.mark.parametrize("n, m_max", [(1, 6), (2, 6), (3, 6), (50, 80), (1000, 700),
                                      (100_000, 20_000)])
def test_bulk_run_matches_stepping(n, m_max, alpha):
    dense = tuple(range(0, m_max + 1, max(1, m_max // 20)))
    for m, cps in ((m_max, ()), (m_max, (0,)), (m_max, dense), (0, ()), (0, (0,))):
        cfg = lin_cfg(n, alpha, "multigraph", m, cps)
        bulk_rng = random.Random(f"bulk:{n}:{alpha}:{len(cps)}")
        step_rng = random.Random(f"bulk:{n}:{alpha}:{len(cps)}")
        traj = P.run_process(cfg, bulk_rng)
        stepped = _stepped(cfg, step_rng)
        assert traj.m_reached == m and not traj.exhausted
        assert len(traj.records) == len(stepped)
        for got, want in zip(traj.records, stepped):
            assert got == want
        assert bulk_rng.getstate() == step_rng.getstate()


def test_numpy_draws_continue_the_python_stream():
    rng = random.Random(2024)
    rng.gauss(0.0, 1.0)  # leaves a cached normal in the state, which must survive
    ref = random.Random()
    ref.setstate(rng.getstate())
    u = P._mt_uniforms(rng, 100_000)
    assert u.tolist() == [ref.random() for _ in range(100_000)]
    assert rng.getstate() == ref.getstate()
    assert rng.random() == ref.random()


class _SteppedRandom(random.Random):
    """A subclass may override random(), so sample_process_outcomes steps it."""


@pytest.mark.parametrize("rule", [P.LinearAlpha(0.5), P.LinearAlpha(1.0), P.LinearAlpha(2.0),
                                  P.LinearAlpha(1e6), P.NegativeInteger(3), P.NegativeInteger(4)],
                         ids=lambda rule: repr(rule))
def test_batched_outcomes_match_stepping(rule):
    cases = [(n, m, runs) for n in (1, 2, 3, 5) for m in (0, 1, 2, 4) for runs in (0, 1, 3, 500)]
    # more runs than one chunk, the last chunk partial; and (n^2)^m past 2^63,
    # where the outcome codes no longer fit an int64
    cases += [(3, 2, P._OUTCOME_CHUNK + 5), (8, 11, 200)]
    for n, m, runs in cases:
        if isinstance(rule, P.NegativeInteger) and m > rule.r * n // 2:
            continue
        cfg = P.ProcessConfig(n=n, weight_rule=rule, m_max=m)
        seed = f"outcomes:{rule}:{n}:{m}:{runs}"
        batched_rng, stepped_rng = random.Random(seed), _SteppedRandom(seed)
        batched = P.sample_process_outcomes(cfg, runs, batched_rng)
        stepped = P.sample_process_outcomes(cfg, runs, stepped_rng)
        # the same counts, first seen in the same order, and the same state after
        assert list(batched.items()) == list(stepped.items()), (n, m, runs)
        assert batched_rng.getstate() == stepped_rng.getstate(), (n, m, runs)


def _record_key(rec):
    return rec.degree_hist, rec.loops, rec.multi_edges, rec.l1, rec.l2


@pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(2)])
def test_bulk_run_final_record_matches_oracle(alpha):
    # the oracle's edge-multiset law, mapped through the checkpoint record
    exact = Counter()
    for key, pr in oracle.enumerate_process(3, 2, alpha).items():
        state = P.ProcessState(lin_cfg(3, float(alpha), "multigraph", 2))
        for v, w in key:
            state.graph.add_edge(v, w)
            state.tracker.union(v, w)
        exact[_record_key(P._checkpoint_record(state, 2))] += float(pr)
    rng = random.Random(20_260_500 + int(alpha * 4))
    cfg = lin_cfg(3, float(alpha), "multigraph", 2, checkpoints=(2,))
    counts = Counter(_record_key(P.run_process(cfg, rng).records[-1]) for _ in range(4000))
    res = S.chi_square_counts(counts, dict(exact))
    assert res.pvalue > 1e-3, f"law mismatch: chi2={res.stat:.1f} dof={res.dof} p={res.pvalue:.2e}"


def test_single_vertex_only_loops():
    traj = P.run_process(lin_cfg(1, 1.0, "multigraph", 5, checkpoints=(5,)))
    rec = traj.records[-1]
    assert rec.loops == 5
    assert dict(rec.degree_hist) == {10: 1}


def test_simple_two_vertices_first_edge_then_exhausted():
    cfg = lin_cfg(2, 1.0, "simple", 2, checkpoints=(1,), seed=4)
    with pytest.raises(P.ProcessExhausted) as err:
        P.run_process(cfg)
    traj = err.value.trajectory
    assert err.value.m_reached == 1
    assert traj.exhausted
    assert dict(traj.records[0].degree_hist) == {1: 2}


def test_simple_mode_emits_no_loops_or_multi_edges():
    cfg = lin_cfg(300, 0.7, "simple", 900, checkpoints=(900,), seed=5)
    traj = P.run_process(cfg)
    rec = traj.records[-1]
    assert rec.loops == 0 and rec.multi_edges == 0


def test_degree_sum_exact_at_checkpoints():
    cfg = lin_cfg(500, 2.0, "multigraph", 800, checkpoints=(0, 123, 800), seed=6)
    traj = P.run_process(cfg)
    for rec in traj.records:
        assert sum(d * c for d, c in rec.degree_hist) == 2 * rec.m


def test_l1_nondecreasing_and_deterministic():
    cfg = lin_cfg(400, 1.0, "multigraph", 600, checkpoints=tuple(range(0, 601, 50)), seed=7)
    traj1 = P.run_process(cfg)
    traj2 = P.run_process(cfg)
    assert traj1 == traj2
    l1s = [rec.l1 for rec in traj1.records]
    assert all(x <= y for x, y in zip(l1s, l1s[1:]))
    traj3 = P.run_process(dataclasses.replace(cfg, seed=8))
    assert traj3 != traj1


def test_m_max_zero_gives_initial_stats_only():
    traj = P.run_process(lin_cfg(10, 1.0, "multigraph", 0, checkpoints=(0,)))
    assert traj.records[0].l1 == 1
    assert traj.records[0].s == 1.0
    assert traj.m_reached == 0


def test_supercritical_giant_and_subcritical_smallness():
    n = 100_000
    mc = int(T.m_crit(1.0, n))
    cfg = lin_cfg(n, 1.0, "multigraph", int(1.5 * mc), checkpoints=(mc, int(1.5 * mc)), seed=9)
    traj = P.run_process(cfg)
    at_mc, at_sup = traj.records
    # at the critical edge count the largest component is still sublinear
    assert at_mc.l1 < 0.05 * n
    assert abs(at_sup.l1 / n - T.rho(1.0, 0.5)) < 0.02


def test_config_validation_errors():
    with pytest.raises(ValueError):
        lin_cfg(0, 1.0, "multigraph", 1).validate()
    with pytest.raises(ValueError):
        lin_cfg(5, 1.0, "ring", 1).validate()
    with pytest.raises(ValueError):
        lin_cfg(5, -1.0, "simple", 1).validate()
    with pytest.raises(ValueError):
        lin_cfg(5, 1.0, "simple", 2, checkpoints=(3,)).validate()
    with pytest.raises(ValueError):
        lin_cfg(5, 1.0, "simple", 2, checkpoints=(2, 1)).validate()
    with pytest.raises(ValueError):
        P.ProcessConfig(n=4, weight_rule=P.NegativeInteger(2), mode="simple", m_max=1).validate()
    with pytest.raises(ValueError):
        P.ProcessConfig(n=4, weight_rule=P.NegativeInteger(3), mode="simple", m_max=7).validate()


# ---------------------------------------------------------------------------
# general attachment functions
# ---------------------------------------------------------------------------


def test_uniform_rule_first_edge_uniform_over_pairs():
    rng = random.Random(11)
    cfg = P.ProcessConfig(n=3, weight_rule=P.GeneralF(table=(1.0,)), mode="simple", m_max=1)
    counts = P.sample_process_outcomes(cfg, 60_000, rng)
    for pair in (((0, 1),), ((0, 2),), ((1, 2),)):
        assert abs(counts[pair] / 60_000 - 1 / 3) < 0.01


@pytest.mark.parametrize("mode", ["multigraph", "simple"])
def test_affine_table_matches_linear_rule_law(mode):
    # f(k) = k + 1 must reproduce the alpha = 1 law in either mode
    rng = random.Random(12)
    cfg = P.ProcessConfig(n=3, weight_rule=P.GeneralF(fn=lambda k: k + 1.0),
                          mode=mode, m_max=2)
    counts = P.sample_process_outcomes(cfg, 300_000, rng)
    exact = {k: float(v) for k, v in oracle.enumerate_process(3, 2, 1, mode).items()}
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3


def test_capped_table_never_exceeds_cap():
    cfg = P.ProcessConfig(n=40, weight_rule=P.GeneralF(table=(3.0, 2.0, 1.0, 0.0)),
                          mode="multigraph", m_max=58, checkpoints=(58,), seed=13)
    traj = P.run_process(cfg)
    assert max(d for d, _ in traj.records[-1].degree_hist) <= 3


def test_d_process_caps_degree():
    d = 2
    cfg = P.ProcessConfig(n=30, weight_rule=P.GeneralF(fn=lambda k: 1.0 if k < d else 0.0),
                          mode="simple", m_max=20, checkpoints=(20,), seed=14)
    traj = P.run_process(cfg)
    assert max(k for k, _ in traj.records[-1].degree_hist) <= d


def test_general_f_exhausts_when_weights_vanish():
    cfg = P.ProcessConfig(n=4, weight_rule=P.GeneralF(table=(1.0, 0.0)),
                          mode="multigraph", m_max=3, seed=15)
    # every vertex saturates at degree 1, so no third edge exists
    with pytest.raises(P.ProcessExhausted):
        P.run_process(cfg)


def test_general_f_simple_reports_complete_graph():
    # K3 holds three simple edges; the fourth step must not burn the
    # rejection budget
    cfg = P.ProcessConfig(n=3, weight_rule=P.GeneralF(table=(1.0,)), mode="simple",
                          m_max=4, seed=15)
    with pytest.raises(P.ProcessExhausted, match="complete") as err:
        P.run_process(cfg)
    assert err.value.m_reached == 3


def test_general_f_simple_endgame_matches_oracle(monkeypatch):
    # the exact enumeration that ends a run of rejections, taken at once
    monkeypatch.setattr(P, "_EXACT_AFTER_REJECTIONS", 0)
    rng = random.Random(30)
    cfg = P.ProcessConfig(n=4, weight_rule=P.GeneralF(table=(1.0, 2.0, 3.0)),
                          mode="simple", m_max=2)
    counts = P.sample_process_outcomes(cfg, 200_000, rng)
    exact = {k: float(v) for k, v in oracle.enumerate_process(4, 2, 1, "simple").items()}
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3, f"law mismatch: chi2={res.stat:.1f} dof={res.dof} p={res.pvalue:.2e}"


def test_general_f_simple_reports_no_addable_pair_without_spending_the_budget():
    # f = (1, 1, 0) on five vertices: some runs reach a state whose only two
    # positive-weight vertices are adjacent; after a short run of rejections
    # the exact enumeration must report it, not the rejection budget
    started = time.monotonic()
    stuck = 0
    for seed in range(40):
        cfg = P.ProcessConfig(n=5, weight_rule=P.GeneralF(table=(1.0, 1.0, 0.0)),
                              mode="simple", m_max=6, seed=seed)
        with pytest.raises(P.ProcessExhausted) as err:
            P.run_process(cfg)
        assert "budget" not in str(err.value)
        stuck += "no addable pair" in str(err.value)
    assert stuck > 0
    assert time.monotonic() - started < 1.0


@settings(max_examples=200, deadline=None)
@given(table=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=6),
       n=st.integers(1, 40), steps=st.integers(0, 60),
       mode=st.sampled_from(["multigraph", "simple"]), seed=st.integers(0, 2 ** 32))
def test_degree_classes_track_the_graph(table, n, steps, mode, seed):
    # every vertex sits in the class of its degree, at the index pos says
    state = P.ProcessState(P.ProcessConfig(n=n, weight_rule=P.GeneralF(table=tuple(table)),
                                           mode=mode, m_max=steps))
    engine = state.engine
    rng = random.Random(seed)
    for _ in range(steps):
        try:
            state.step(rng)
        except P.ProcessExhausted:
            break
        assert all(vs for vs in engine.members.values())
        assert sum(len(vs) for vs in engine.members.values()) == n
        for k, vs in engine.members.items():
            for i, v in enumerate(vs):
                assert state.graph.deg[v] == k
                assert engine.pos[v] == i


def test_class_draw_past_the_end_skips_zero_weight_classes():
    # a class draw at the very top of the cumulative mass (float round-off)
    # must fall back to the last positive-weight class, never to degree 3
    # where f = 0, even when that class comes last
    state = P.ProcessState(P.ProcessConfig(n=4, weight_rule=P.GeneralF(table=(3.0, 2.0, 1.0, 0.0)),
                                           mode="multigraph", m_max=3))
    for v, w in ((0, 1), (0, 0)):
        state.graph.add_edge(v, w)
        state.engine.sync(v, w)
    assert list(state.engine.members) == [0, 1, 3]
    # non-loop branch; v: class draw 1.0, then member 0; w: class 0, member 0
    draws = iter([0.99, 1.0, 0.0, 0.0, 0.0])
    v, w = state.engine.sample(SimpleNamespace(random=draws.__next__))
    assert state.graph.deg[v] == 1 and state.graph.deg[w] == 0


def test_general_f_rejects_bad_tables():
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            P.GeneralF(table=(1.0, bad)).validate()
    with pytest.raises(ValueError):
        P.GeneralF().validate()
    with pytest.raises(ValueError):
        P.GeneralF(table=(1.0,), fn=lambda k: 1.0).validate()


# ---------------------------------------------------------------------------
# bounded-degree (negative shape) rule
# ---------------------------------------------------------------------------


def test_stub_rule_multigraph_runs_to_the_last_pair():
    n, r = 500, 3
    cfg = P.ProcessConfig(n=n, weight_rule=P.NegativeInteger(r), mode="multigraph",
                          m_max=r * n // 2, checkpoints=(r * n // 2,), seed=16)
    traj = P.run_process(cfg)
    assert traj.m_reached == r * n // 2
    assert max(d for d, _ in traj.records[-1].degree_hist) <= r


def test_stub_rule_simple_nearly_saturates():
    n, r = 2000, 3
    for rep in range(3):
        cfg = P.ProcessConfig(n=n, weight_rule=P.NegativeInteger(r), mode="simple",
                              m_max=r * n // 2, seed=17 + rep)
        try:
            traj = P.run_process(cfg)
        except P.ProcessExhausted as err:
            traj = err.trajectory
        assert traj.m_reached >= r * n // 2 - 50


def test_stub_rule_simple_tiny_instance_exhausts():
    # three vertices support at most three simple edges, m_max asks for four
    cfg = P.ProcessConfig(n=3, weight_rule=P.NegativeInteger(3), mode="simple",
                          m_max=4, seed=18)
    with pytest.raises(P.ProcessExhausted) as err:
        P.run_process(cfg)
    assert err.value.m_reached == 3


def test_stub_rule_simple_reports_complete_graph():
    # r = 30 on 20 vertices reaches K20 at m = 190 with 220 stubs still free
    cfg = P.ProcessConfig(n=20, weight_rule=P.NegativeInteger(30), mode="simple",
                          m_max=300, seed=18)
    with pytest.raises(P.ProcessExhausted, match="complete") as err:
        P.run_process(cfg)
    assert err.value.m_reached == 190


def test_stub_rule_matches_linear_negative_shape_law():
    # the stub formulation realises the same step law as weights r - d
    rng = random.Random(19)
    cfg = P.ProcessConfig(n=3, weight_rule=P.NegativeInteger(3), mode="multigraph", m_max=2)
    counts = P.sample_process_outcomes(cfg, 300_000, rng)
    exact = {k: float(v) for k, v in oracle.enumerate_process(3, 2, -3).items()}
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3


@pytest.mark.parametrize("threshold", [P._EXACT_THRESHOLD, 0], ids=["enumeration", "rejection"])
def test_stub_rule_simple_matches_oracle(monkeypatch, threshold):
    # simple mode takes an addable pair with weight s_v s_w (free stubs), by
    # the exact enumeration at this size, or by rejection when it is off
    monkeypatch.setattr(P, "_EXACT_THRESHOLD", threshold)
    rng = random.Random(29)
    cfg = P.ProcessConfig(n=4, weight_rule=P.NegativeInteger(3), mode="simple", m_max=2)
    counts = P.sample_process_outcomes(cfg, 200_000, rng)
    exact = {k: float(v) for k, v in oracle.enumerate_process(4, 2, -3, "simple").items()}
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3, f"law mismatch: chi2={res.stat:.1f} dof={res.dof} p={res.pvalue:.2e}"


def test_capped_table_matches_stub_rule_law():
    # f(k) = max(r-k, 0) as a table reproduces the stub-rule step law
    rng = random.Random(20)
    cfg = P.ProcessConfig(n=3, weight_rule=P.GeneralF(table=(3.0, 2.0, 1.0, 0.0)),
                          mode="multigraph", m_max=2)
    counts = P.sample_process_outcomes(cfg, 300_000, rng)
    exact = {k: float(v) for k, v in oracle.enumerate_process(3, 2, -3).items()}
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3


# ---------------------------------------------------------------------------
# rewiring chain
# ---------------------------------------------------------------------------


def test_rewiring_single_loop_is_invariant():
    g = MultiGraph(1)
    g.add_edge(0, 0)
    P.rewiring_step(g, 1.0, random.Random(0))
    assert list(g.edges()) == [(0, 0)]


def test_rewiring_empty_graph_rejected():
    with pytest.raises(ValueError):
        P.rewiring_step(MultiGraph(3), 1.0, random.Random(0))


def test_rewiring_transitions_match_oracle_kernel():
    # empirical single-step transition frequencies from each 1-edge state on
    # two vertices against the exact kernel under the current-degree rule
    states, matrix = oracle.rewiring_transition_matrix(2, 1, 1, "current")
    rng = random.Random(21)
    for start in states:
        counts = Counter()
        for _ in range(60_000):
            g = MultiGraph(2)
            g.add_edge(*start[0])
            P.rewiring_step(g, 1.0, rng)
            counts[oracle.canonical_key(g.edges())] += 1
        probs = {k: float(v) for k, v in matrix[start].items()}
        res = S.chi_square_counts(counts, probs)
        assert res.pvalue > 1e-3, f"kernel mismatch from {start}"


def test_rewiring_preserves_edge_count_and_degree_sum():
    g = MultiGraph(30)
    rng = random.Random(22)
    for _ in range(40):
        g.add_edge(rng.randrange(30), rng.randrange(30))
    for _ in range(2000):
        P.rewiring_step(g, 0.5, rng)
    assert g.num_edges == 40
    assert sum(g.deg) == 80


# ---------------------------------------------------------------------------
# configuration model and degree samplers
# ---------------------------------------------------------------------------


def test_cm_forced_loop_and_single_edge():
    rng = random.Random(23)
    g = P.sample_configuration_model([2, 0, 0], rng)
    assert list(g.edges()) == [(0, 0)]
    g = P.sample_configuration_model([1, 1], rng)
    assert oracle.canonical_key(g.edges()) == ((0, 1),)


def test_cm_odd_sum_rejected():
    with pytest.raises(ValueError):
        P.sample_configuration_model([2, 1], random.Random(0))


def test_cm_law_matches_enumeration():
    rng = random.Random(24)
    exact = {k: float(v) for k, v in oracle.enumerate_cm((2, 1, 1)).items()}
    counts = Counter()
    for _ in range(100_000):
        g = P.sample_configuration_model([2, 1, 1], rng)
        counts[oracle.canonical_key(g.edges())] += 1
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3


def test_birth_degrees_zero_time():
    assert P.sample_birth_degrees(50, 1.0, 0.0, random.Random(0)) == [0] * 50


def test_birth_degrees_geometric_marginal():
    # alpha=1, t=log 2 gives NB(1, 1/2), i.e. P(k) = 2^{-(k+1)}
    degs = P.sample_birth_degrees(100_000, 1.0, math.log(2), random.Random(25))
    hist = S.DegreeHistogram.from_degrees(degs)
    res = S.chi_square(hist, T.NegBinomial(1.0, 0.5))
    assert res.pvalue > 1e-3


def test_birth_degrees_mean_at_matched_time():
    n, m = 50_000, 40_000
    t_m = math.log(1 + 2 * m / n)
    degs = P.sample_birth_degrees(n, 1.0, t_m, random.Random(26))
    mean = sum(degs) / n
    # sd of the mean is sqrt(Var/n) with Var = mu + mu^2/alpha
    mu = 2 * m / n
    sd = math.sqrt((mu + mu * mu) / n)
    assert abs(mean - mu) < 5 * sd


def test_conditioned_degrees_zero_edges():
    assert P.sample_conditioned_degrees(7, 1.0, 0, random.Random(0)) == [0] * 7


@pytest.mark.parametrize("n, alpha, m", [(2, F(1), 1), (3, F(1, 2), 2), (3, F(2), 2)],
                         ids=["n2_a1_m1", "n3_a0.5_m2", "n3_a2_m2"])
def test_conditioned_degrees_tiny_exact_law(n, alpha, m):
    rng = random.Random(27)
    counts = Counter(tuple(P.sample_conditioned_degrees(n, float(alpha), m, rng))
                     for _ in range(60_000))
    exact = {k: float(v) for k, v in oracle.enumerate_conditioned_degrees(n, m, alpha).items()}
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3, f"law mismatch: chi2={res.stat:.1f} dof={res.dof} p={res.pvalue:.2e}"


def test_conditioned_degrees_large_scale_marginal():
    n = 100_000
    degs = P.sample_conditioned_degrees(n, 1.0, n // 2, random.Random(28))
    assert sum(degs) == n
    hist = S.DegreeHistogram.from_degrees(degs)
    assert S.tv_distance(hist, T.NegBinomial(1.0, 0.5)) < 0.01


def test_conditioned_degrees_reject_bad_alpha():
    for alpha in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            P.sample_conditioned_degrees(3, alpha, 2, random.Random(0))
