import dataclasses
import math
import random
import time
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
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
# bulk linear-alpha runs (run_process and sample_process_outcomes without a
# step loop)
# ---------------------------------------------------------------------------


class _SteppedRandom(random.Random):
    """A subclass may override random(), so run_process and
    sample_process_outcomes step it."""


def _outcome(run, cfg, *args):
    """What a run gives: its result, or the exhaustion it ends in."""
    try:
        return run(cfg, *args)
    except P.ProcessExhausted as exc:
        return "exhausted", str(exc), exc.m_reached, exc.trajectory


@pytest.mark.parametrize("alpha", [0.5, 1.0, 10.0, 1e6])
@pytest.mark.parametrize("n, m_max", [(1, 6), (2, 6), (3, 6), (50, 80), (1000, 700),
                                      (100_000, 20_000)])
def test_bulk_run_matches_stepping(n, m_max, alpha):
    # both modes; the simple runs on n <= 3 reach the complete graph
    dense = tuple(range(0, m_max + 1, max(1, m_max // 20)))
    for mode in ("multigraph", "simple"):
        for m, cps in ((m_max, ()), (m_max, (0,)), (m_max, dense), (0, ()), (0, (0,))):
            cfg = lin_cfg(n, alpha, mode, m, cps)
            seed = f"bulk:{n}:{alpha}:{len(cps)}" + (":simple" if mode == "simple" else "")
            bulk_rng, step_rng = random.Random(seed), _SteppedRandom(seed)
            bulk = _outcome(P.run_process, cfg, bulk_rng)
            assert bulk == _outcome(P.run_process, cfg, step_rng), (mode, m, cps)
            assert bulk_rng.getstate() == step_rng.getstate(), (mode, m, cps)
            if mode == "multigraph":
                assert bulk.m_reached == m and not bulk.exhausted


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1e6])
@pytest.mark.parametrize("n, m_max", [(4, 6), (12, 66), (20, 250), (30, 300), (200, 4000)])
def test_bulk_simple_run_hands_dense_runs_to_stepping(monkeypatch, n, m_max, alpha):
    # dense runs accept short batches, so they step on from a graph rebuilt
    # from the accepted edges; K12 is reached exactly, and K20 before m_max
    built = _spy_on_handovers(monkeypatch)
    batches = _spy_on_batches(monkeypatch)
    cps = tuple(range(0, m_max + 1, max(1, m_max // 10)))
    for m, checkpoints in ((m_max, cps), (m_max, ())):
        cfg = lin_cfg(n, alpha, "simple", m, checkpoints)
        seed = f"handover:{n}:{alpha}:{len(checkpoints)}"
        bulk_rng, step_rng = random.Random(seed), _SteppedRandom(seed)
        built.clear()
        bulk = _outcome(P.run_process, cfg, bulk_rng)
        assert len(built) == 1
        assert bulk == _outcome(P.run_process, cfg, step_rng)
        assert bulk_rng.getstate() == step_rng.getstate()
        if m_max > n * (n - 1) // 2:
            assert bulk[:3] == ("exhausted", "graph is complete", n * (n - 1) // 2)
    # the runs of 64 steps or more to batch went through the batches
    assert bool(batches) == (min(m_max, n * (n - 1) // 2) >= P._HANDOVER)


def _spy_on_batches(monkeypatch) -> list:
    """The sizes of the speculative batches of the bulk paths, as they are
    drawn."""
    sizes = []
    speculate = P._speculate

    def counting(rng, per, stop, cap, batch):
        def spied(j, u):
            sizes.append(len(u) // per)
            return batch(j, u)
        return speculate(rng, per, stop, cap, spied)

    monkeypatch.setattr(P, "_speculate", counting)
    return sizes


def _spy_on_handovers(monkeypatch) -> list:
    """The graphs the bulk paths build for a stepped tail, as they are built."""
    built = []
    from_ends = MultiGraph.from_ends.__func__

    def counting(cls, n, ends, pairs=None):
        built.append(len(ends) // 2)
        return from_ends(cls, n, ends, pairs)

    monkeypatch.setattr(MultiGraph, "from_ends", classmethod(counting))
    return built


def test_bulk_simple_run_keeps_the_rejection_cap(monkeypatch):
    # a step past the cap exhausts the budget where stepping does, even
    # when the batches rejected some of its proposals before the hand-over
    monkeypatch.setattr(P, "_REJECTION_CAP", 3)
    budget = 0
    for alpha, n, m in ((0.5, 10, 45), (1.0, 30, 300), (1e6, 200, 3000), (1e6, 2000, 1500)):
        for seed in range(4):
            cfg = lin_cfg(n, alpha, "simple", m, checkpoints=(m // 2,))
            bulk_rng, step_rng = random.Random(seed), _SteppedRandom(seed)
            bulk = _outcome(P.run_process, cfg, bulk_rng)
            assert bulk == _outcome(P.run_process, cfg, step_rng), (alpha, n, m, seed)
            assert bulk_rng.getstate() == step_rng.getstate(), (alpha, n, m, seed)
            budget += isinstance(bulk, tuple) and "budget" in bulk[1]
    assert budget


def stub_cfg(n, r, mode, m_max, checkpoints=(), seed=0):
    return P.ProcessConfig(n=n, weight_rule=P.NegativeInteger(r), mode=mode, m_max=m_max,
                           checkpoints=tuple(checkpoints), seed=seed)


@pytest.mark.parametrize("r, n, m_max", [
    (3, 1, 1), (3, 2, 3), (3, 3, 4), (4, 3, 6),  # simple runs of n <= 3 exhaust
    (3, 51, 76), (4, 51, 102),  # rn = 153 is odd: the last step leaves one stub
    (3, 1000, 1500), (4, 1000, 2000), (4, 500, 700),
    (30, 20, 300),  # simple runs reach K20 at m = 190 with 220 stubs free
])
def test_bulk_stub_run_matches_stepping(monkeypatch, r, n, m_max):
    batches = _spy_on_batches(monkeypatch)
    dense = tuple(range(0, m_max + 1, max(1, m_max // 20)))
    for mode in ("multigraph", "simple"):
        for m, cps in ((m_max, ()), (m_max, (0,)), (m_max, dense), (m_max, (m_max,)),
                       (0, ()), (0, (0,))):
            cfg = stub_cfg(n, r, mode, m, cps)
            seed = f"stub:{r}:{n}:{m}:{len(cps)}:{mode}"
            bulk_rng, step_rng = random.Random(seed), _SteppedRandom(seed)
            bulk = _outcome(P.run_process, cfg, bulk_rng)
            assert bulk == _outcome(P.run_process, cfg, step_rng), (mode, m, cps)
            assert bulk_rng.getstate() == step_rng.getstate(), (mode, m, cps)
            if mode == "multigraph":
                assert bulk.m_reached == m and not bulk.exhausted
            elif n <= 3 and m:
                assert bulk[0] == "exhausted" and bulk[2] < m
            elif r == 30 and m:
                assert bulk[:3] == ("exhausted", "graph is complete", 190)
    # the runs of 64 steps or more went through the batches
    assert bool(batches) == (m_max >= P._HANDOVER)


@pytest.mark.parametrize("mode", ["multigraph", "simple"])
def test_bulk_stub_run_matches_stepping_at_scale(monkeypatch, mode):
    # the r = 3 run to saturation at n = 10^5, as in C09: a simple run
    # hands over once, to the exact endgame of the last 64 stubs
    built = _spy_on_handovers(monkeypatch)
    n = 100_000
    cps = (0, 9 * n // 10) + tuple(range(140_000, 3 * n // 2 + 1, 500))
    cfg = stub_cfg(n, 3, mode, 3 * n // 2, cps)
    bulk_rng, step_rng = random.Random(f"stub-scale:{mode}"), _SteppedRandom(f"stub-scale:{mode}")
    bulk = _outcome(P.run_process, cfg, bulk_rng)
    # (the stepped run builds its empty start graph the same way)
    assert built == ([(3 * n - P._EXACT_THRESHOLD + 1) // 2] if mode == "simple" else [])
    assert bulk == _outcome(P.run_process, cfg, step_rng)
    assert bulk_rng.getstate() == step_rng.getstate()


def test_bulk_stub_run_keeps_the_rejection_cap(monkeypatch):
    # a step past the cap exhausts the budget where stepping does, even
    # when the batches rejected some of its proposals before the hand-over
    monkeypatch.setattr(P, "_REJECTION_CAP", 3)
    budget = 0
    for r, n, m in ((30, 20, 300), (20, 30, 300), (12, 40, 240), (3, 2000, 3000)):
        for seed in range(4):
            cfg = stub_cfg(n, r, "simple", m, checkpoints=(m // 2,))
            bulk_rng, step_rng = random.Random(seed), _SteppedRandom(seed)
            bulk = _outcome(P.run_process, cfg, bulk_rng)
            assert bulk == _outcome(P.run_process, cfg, step_rng), (r, n, m, seed)
            assert bulk_rng.getstate() == step_rng.getstate(), (r, n, m, seed)
            budget += isinstance(bulk, tuple) and "budget" in bulk[1]
    assert budget


def test_numpy_draws_continue_the_python_stream():
    rng = random.Random(2024)
    rng.gauss(0.0, 1.0)  # leaves a cached normal in the state, which must survive
    ref = random.Random()
    ref.setstate(rng.getstate())
    u = P._mt_uniforms(rng, 100_000)
    assert u.tolist() == [ref.random() for _ in range(100_000)]
    assert rng.getstate() == ref.getstate()
    assert rng.random() == ref.random()


@pytest.mark.parametrize("rule", [P.LinearAlpha(0.5), P.LinearAlpha(1.0), P.LinearAlpha(2.0),
                                  P.LinearAlpha(1e6), P.NegativeInteger(3), P.NegativeInteger(4)],
                         ids=lambda rule: repr(rule))
def test_batched_outcomes_match_stepping(rule, monkeypatch):
    cases = [(n, m, runs) for n in (1, 2, 3, 5) for m in (0, 1, 2, 4) for runs in (0, 1, 3, 500)]
    # more runs than one chunk, the last chunk partial (in simple mode a
    # chunk holds proposals, and runs cross its end); and (n^2)^m past
    # 2^63, where the outcome codes no longer fit an int64
    cases += [(3, 2, P._OUTCOME_CHUNK + 5), (8, 11, 200)]
    cases_by_mode = {"multigraph": cases}
    if isinstance(rule, P.LinearAlpha):
        # simple runs of n <= 3 past the n(n-1)/2 pairs end in the complete
        # graph; K4 is reached exactly, and one run of it outgrows its
        # first chunk of about m proposals
        cases_by_mode["simple"] = cases + [(4, 6, 1), (4, 6, 500)]
    else:
        # r-stub simple runs go one by one through run_process's r-stub
        # path; those of n <= 3 past the pairs end in exhaustion
        cases_by_mode["simple"] = cases
    chunks = []
    chunk = P._urn_simple_chunk

    def spy(n, an, m, u, want):
        ends, used = chunk(n, an, m, u, want)
        chunks.append((len(u), used))
        return ends, used

    monkeypatch.setattr(P, "_urn_simple_chunk", spy)
    for mode, mode_cases in cases_by_mode.items():
        for n, m, runs in mode_cases:
            if isinstance(rule, P.NegativeInteger) and m > rule.r * n // 2:
                continue
            cfg = P.ProcessConfig(n=n, weight_rule=rule, mode=mode, m_max=m)
            seed = f"outcomes:{rule}:{n}:{m}:{runs}" + (":simple" if mode == "simple" else "")
            batched_rng, stepped_rng = random.Random(seed), _SteppedRandom(seed)
            batched = _outcome(_counts, cfg, runs, batched_rng)
            stepped = _outcome(_counts, cfg, runs, stepped_rng)
            # the same counts, first seen in the same order, and the same state after
            assert batched == stepped, (mode, n, m, runs)
            assert batched_rng.getstate() == stepped_rng.getstate(), (mode, n, m, runs)
    if isinstance(rule, P.LinearAlpha):
        # a chunk that holds no whole run is drawn again, twice as long
        assert any(used == 0 and grown == 2 * size
                   for (size, used), (grown, _) in zip(chunks, chunks[1:]))


def _counts(cfg, runs, rng):
    return list(P.sample_process_outcomes(cfg, runs, rng).items())


def _record_key(rec):
    return rec.degree_hist, rec.loops, rec.multi_edges, rec.l1, rec.l2


def _final_record(n, key):
    """The record builder's record of the edge multiset key, at its end."""
    return P._records(n, np.array([x for edge in key for x in edge], np.int64), [len(key)])[0]


@pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(2)])
def test_bulk_run_final_record_matches_oracle(alpha):
    # the oracle's edge-multiset law, mapped through the checkpoint record
    exact = Counter()
    for key, pr in oracle.enumerate_process(3, 2, alpha).items():
        exact[_record_key(_final_record(3, key))] += float(pr)
    rng = random.Random(20_260_500 + int(alpha * 4))
    cfg = lin_cfg(3, float(alpha), "multigraph", 2, checkpoints=(2,))
    counts = Counter(_record_key(P.run_process(cfg, rng).records[-1]) for _ in range(4000))
    res = S.chi_square_counts(counts, dict(exact))
    assert res.pvalue > 1e-3, f"law mismatch: chi2={res.stat:.1f} dof={res.dof} p={res.pvalue:.2e}"


@pytest.mark.parametrize("n, m, alpha", [(4, 2, F(1, 2)), (4, 3, F(2))])
def test_bulk_simple_run_final_record_matches_oracle(n, m, alpha):
    # (every simple run of n = 3, m = 2 is a path, with one record)
    exact = Counter()
    for key, pr in oracle.enumerate_process(n, m, alpha, "simple").items():
        rec = _final_record(n, key)
        exact[rec.degree_hist, rec.l1, rec.l2] += float(pr)
    rng = random.Random(20_260_700 + n)
    cfg = lin_cfg(n, float(alpha), "simple", m, checkpoints=(m,))
    counts = Counter()
    for _ in range(3000):
        rec = P.run_process(cfg, rng).records[-1]
        counts[rec.degree_hist, rec.l1, rec.l2] += 1
    res = S.chi_square_counts(counts, dict(exact))
    assert res.pvalue > 1e-3, f"law mismatch: chi2={res.stat:.1f} dof={res.dof} p={res.pvalue:.2e}"


@pytest.mark.parametrize("mode", ["multigraph", "simple"])
@pytest.mark.parametrize("m", [2, 3])
def test_bulk_stub_run_final_record_matches_oracle(monkeypatch, m, mode):
    # at n = 4 a run would step; with no hand-over threshold and no exact
    # endgame, every proposal goes through the batches of the bulk path
    monkeypatch.setattr(P, "_HANDOVER", 0)
    monkeypatch.setattr(P, "_EXACT_THRESHOLD", 0)
    built = _spy_on_handovers(monkeypatch)
    exact = Counter()
    for key, pr in oracle.enumerate_process(4, m, -3, mode).items():
        exact[_record_key(_final_record(4, key))] += float(pr)
    rng = random.Random(20_260_800 + 2 * m + (mode == "simple"))
    cfg = stub_cfg(4, 3, mode, m, checkpoints=(m,))
    counts = Counter(_record_key(P.run_process(cfg, rng).records[-1]) for _ in range(3000))
    assert not built
    res = S.chi_square_counts(counts, dict(exact))
    assert res.pvalue > 1e-3, f"law mismatch: chi2={res.stat:.1f} dof={res.dof} p={res.pvalue:.2e}"


@pytest.mark.parametrize("rule, a, factor, runs, seed", [
    (P.LinearAlpha(1.0), 1.0, 1.5, 400, 1), (P.LinearAlpha(0.5), 0.5, 1.5, 400, 2),
    (P.NegativeInteger(3), -3, 1.2, 200, 3)], ids=["alpha1", "alpha0.5", "r3"])
def test_loops_given_degrees_match_the_configuration_model(rule, a, factor, runs, seed):
    # given its degrees d, a multigraph run at edge m is the configuration
    # model on d, so E[loops | d] = sum d_i (d_i - 1) / (2 (2m - 1)); the
    # observed excess over the runs is scaled by its Poisson variance
    n = 10_000
    m = int(factor * T.m_crit(a, n))
    cfg = P.ProcessConfig(n=n, weight_rule=rule, m_max=m)
    rng = random.Random(20_261_000 + seed)
    excess = variance = 0.0
    for _ in range(runs):
        ends, reached, _ = P.sample_edges(cfg, rng)
        assert reached == m
        d = np.bincount(ends, minlength=n)
        expected = float(np.dot(d, d - 1)) / (2 * (2 * m - 1))
        excess += np.count_nonzero(ends[0::2] == ends[1::2]) - expected
        variance += expected
    z = excess / math.sqrt(variance)
    assert abs(z) < 3.29, f"loops given degrees off the configuration model: z = {z:.2f}"


# the ids are spelled out, so that a change to a rule's fields renames no test
RULES = {"LinearAlpha(alpha=1.0)": P.LinearAlpha(1.0),
         "NegativeInteger(r=3)": P.NegativeInteger(3),
         "GeneralF(table=(1.0, 2.0, 3.0, 0.5))": P.GeneralF(table=(1.0, 2.0, 3.0, 0.5))}


@pytest.mark.parametrize("rule", list(RULES.values()), ids=list(RULES))
@pytest.mark.parametrize("mode", ["multigraph", "simple"])
@pytest.mark.parametrize("n, m_max", [(10, 15), (300, 400)])
def test_record_builder_matches_the_step_state(rule, mode, n, m_max):
    # the one record builder, against what ProcessState.step keeps: the
    # union-find's components and the graph's loops, multi-edges and degrees
    cps = tuple(sorted({*range(0, m_max + 1, 7), m_max}))
    cfg = P.ProcessConfig(n=n, weight_rule=rule, mode=mode, m_max=m_max, checkpoints=cps)
    state = P.ProcessState(cfg)
    rng = random.Random(f"builder:{rule}:{mode}:{n}")
    expected = []
    for m in range(m_max + 1):
        if m in cps:
            l1, l2, s, _ = state.tracker.component_stats()
            g = state.graph
            expected.append(P.CheckpointRecord(m=m, l1=l1, l2=l2, s=float(s), loops=g.loops,
                                               multi_edges=g.multi_edges,
                                               degree_hist=tuple(sorted(Counter(g.deg).items()))))
        if m < m_max:
            state.step(rng)
    assert P._records(n, np.array(state.graph.ends, np.int64), cps) == expected
    # run_process makes the same run from the same stream, in bulk or
    # stepped (a multigraph steps on a _Multiset, with no pair dict), and
    # leaves rng where ProcessState.step does
    again = random.Random(f"builder:{rule}:{mode}:{n}")
    assert P.run_process(cfg, again).records == tuple(expected)
    assert again.getstate() == rng.getstate()
    stepped = _SteppedRandom(f"builder:{rule}:{mode}:{n}")
    assert P.run_process(cfg, stepped).records == tuple(expected)
    assert stepped.getstate() == rng.getstate()


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
    # (a table of f up to degree 4, past the top reachable degree + 1 = 3)
    cfg = P.ProcessConfig(n=3, weight_rule=P.GeneralF(table=(1.0, 2.0, 3.0, 4.0, 5.0)),
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
    cfg = P.ProcessConfig(n=30, weight_rule=P.GeneralF(table=(1.0, 1.0, 0.0)),
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
        # one class per degree up to the top one, which is occupied
        assert engine.members[-1] and len(engine.members) == max(state.graph.deg) + 1
        assert sum(len(vs) for vs in engine.members) == n
        for k, vs in enumerate(engine.members):
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
    assert [len(vs) for vs in state.engine.members] == [2, 1, 0, 1]
    # non-loop branch; v: class draw 1.0, then member 0; w: class 0, member 0
    draws = iter([0.99, 1.0, 0.0, 0.0, 0.0])
    v, w = state.engine.sample(SimpleNamespace(random=draws.__next__))
    assert state.graph.deg[v] == 1 and state.graph.deg[w] == 0


@settings(max_examples=200, deadline=None)
@given(table=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 7.3]), min_size=1, max_size=6),
       n=st.integers(2, 40), steps=st.integers(1, 60),
       mode=st.sampled_from(["multigraph", "simple"]), seed=st.integers(0, 2 ** 32))
def test_class_draws_follow_the_degree_order_cumsum(table, n, steps, mode, seed):
    # the engine sums its class masses in degree order, so each endpoint's
    # class is where its draw falls in np.cumsum over the degree histogram
    state = P.ProcessState(P.ProcessConfig(n=n, weight_rule=P.GeneralF(table=tuple(table)),
                                           mode=mode, m_max=steps))
    engine, g = state.engine, state.graph
    source = random.Random(seed)
    for _ in range(steps):
        deg = np.array(g.deg)
        f = np.array([table[min(k, len(table) - 1)] for k in range(deg.max() + 2)])
        draws: list[float] = []

        def record():
            draws.append(source.random())
            return draws[-1]

        try:
            v, w = engine.sample(SimpleNamespace(random=record))
        except P.ProcessExhausted:
            break

        def drawn_class(weights, u):
            cum = np.cumsum(np.bincount(deg) * weights)
            k = np.searchsorted(cum, u * cum[-1], side="right")
            # round-off past the end falls back to the last positive class
            return np.searchsorted(cum, cum[-1]) if k == len(cum) else k

        if mode == "multigraph" and v == w:
            # a loop: one draw for the branch, then a class draw with
            # weights f(k) f(k + 1) and a member draw
            assert len(draws) == 3
            assert deg[v] == drawn_class(f[:-1] * f[1:], draws[1])
        elif len(draws) % 4 == (mode == "multigraph"):
            # the accepted pair is the last two (class, member) draws; a
            # simple step that reached the exact endgame draws once more
            assert deg[v] == drawn_class(f[:-1], draws[-4])
            assert deg[w] == drawn_class(f[:-1], draws[-2])
        g.add_edge(v, w, mode == "multigraph")
        engine.sync(v, w)


def test_general_f_rejects_bad_tables():
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            P.GeneralF(table=(1.0, bad)).validate()
    with pytest.raises(ValueError, match="nonempty"):
        P.GeneralF(table=()).validate()


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


def test_rewiring_rejects_infinite_alpha():
    # u * inf < inf is false, so an infinite alpha would always copy an
    # endpoint, the opposite of its uniform limit
    g = MultiGraph(4)
    g.add_edge(0, 1)
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="alpha"):
        P.rewiring_step(g, math.inf, rng)
    assert rng.getstate() == state


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


@pytest.mark.parametrize("deg, index", [([-1, 1], 0), ([3, -1], 1)])
def test_cm_rejects_negative_degrees(deg, index):
    with pytest.raises(ValueError, match=rf"deg\[{index}\]"):
        P.sample_configuration_model(deg, random.Random(0))


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


@pytest.mark.parametrize("alpha, t, name", [(math.inf, 1.0, "alpha"), (1.0, math.inf, "t"),
                                           (1.0, math.nan, "t")])
def test_birth_degrees_reject_non_finite_arguments(alpha, t, name):
    # an infinite alpha or t never ends the holding-time loop, and a nan t
    # gave all zeros
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        P.sample_birth_degrees(5, alpha, t, rng)
    assert rng.getstate() == state


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
