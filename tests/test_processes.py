import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pagiant import oracle, processes as P, stats as S, theory as T
from pagiant.graph_core import RunGraph


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
                # the bulk runner itself, which _runner takes only from
                # _HANDOVER steps on
                bulk_rng = random.Random(seed)
                ends, reached, reason = P._run_urn(cfg, bulk_rng)
                assert (reached, reason) == (m, None)
                assert tuple(P._records(n, ends, cps)) == bulk.records, (m, cps)
                assert bulk_rng.getstate() == step_rng.getstate(), (m, cps)


def test_runner_steps_urn_multigraph_runs_below_the_crossover(monkeypatch):
    # a linear-alpha multigraph run of fewer than _HANDOVER = 64 steps
    # steps, on the draws the bulk runner would take, and so does a table
    # affine to K = 31, f(d) = d + 1 below 32, whose longer runs take the
    # same urn runner; a simple run's own runner hands short runs over,
    # and a Random subclass always steps
    assert P._HANDOVER == 64
    affine = P.GeneralF(tuple(float(d + 1) for d in range(32)))
    assert P._urn_form(P.ProcessConfig(1000, affine, m_max=64)) == (1.0, 31)
    for m_max, bulk in ((63, P._run_stepped), (64, P._run_urn)):
        for mode, runner in (("multigraph", bulk), ("simple", P._run_urn_simple)):
            cfg = lin_cfg(1000, 1.0, mode, m_max)
            assert P._runner(cfg, random.Random(0)) is runner, (m_max, mode)
            assert P._runner(cfg, _SteppedRandom(0)) is P._run_stepped, (m_max, mode)
        table_cfg = P.ProcessConfig(1000, affine, m_max=m_max)
        assert P._runner(table_cfg, random.Random(0)) is bulk, m_max
    # a linear-alpha bulk run is one draw of its 4 m draws, and nothing more
    draws = _spy_on_draws(monkeypatch)
    for m in (64, 5000):
        draws.clear()
        P.sample_edges(lin_cfg(1000, 1.0, "multigraph", m), random.Random(m))
        assert draws == [("draw", 4 * m)], m
    # the outcome counts of short runs still draw a chunk of runs at a time
    draws.clear()
    P.sample_process_outcomes(lin_cfg(3, 1.0, "multigraph", 2), 20_000, random.Random(0))
    chunks = [P._OUTCOME_CHUNK] * 2 + [20_000 - 2 * P._OUTCOME_CHUNK]
    assert draws == [("draw", 8 * runs) for runs in chunks]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1e6])
@pytest.mark.parametrize("n, m_max", [(4, 6), (12, 66), (20, 250), (30, 300), (200, 4000)])
def test_bulk_simple_run_hands_dense_runs_to_stepping(monkeypatch, n, m_max, alpha):
    # dense runs accept short batches, so they step on from the accepted
    # edges and pair keys; K12 is reached exactly, and K20 before m_max
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
    """The sizes of the numpy batches of the bulk runners' one driver, as
    they are made: the speculative proposals of linear-alpha simple runs,
    the pairs read off an r-stub simple run's shuffled stubs, and the steps
    of a general-f multigraph batch."""
    sizes = []
    batches = P._batches

    def counting(cfg, rng, ends, stop, per, cap, batch, special, handover, j=0):
        def spied(j, u):
            sizes.append(len(u))
            return batch(j, u)
        return batches(cfg, rng, ends, stop, per, cap, spied, special, handover, j)

    monkeypatch.setattr(P, "_batches", counting)
    return sizes


def test_batch_driver_leaves_rng_at_the_draws_it_used(monkeypatch):
    # the bulk runners' one driver with scripted rules: batch i keeps
    # kept[i] steps and a special step makes its own draws; each batch's
    # rows are the draws after those of the steps made, and a run ends or
    # is handed over with rng past exactly those draws
    handed = []

    def stepped(cfg, rng, g, state):
        handed.append((len(g.ends) // 2, rng.getstate(), state))
        return g.ends, len(g.ends) // 2, None

    monkeypatch.setattr(P, "_run_stepped", stepped)
    source = random.Random("driver")
    draws = [source.random() for _ in range(1000)]

    def advanced(k):
        ref = random.Random("driver")
        for _ in range(k):
            ref.random()
        return ref.getstate()

    def drive(per, stop, cap, kept, special_draws, made, j=0):
        rng, seen, kept = random.Random("driver"), [], iter(kept)
        handed.clear()

        def batch(j, u):
            seen.append((j, len(u), u[0, 0]))
            return next(kept)

        def special(j):
            for _ in range(special_draws):
                rng.random()
            if made is None:
                raise P.ProcessExhausted("no step")
            return made

        run = P._batches(SimpleNamespace(m_max=stop), rng, np.arange(2 * stop), stop, per,
                         lambda: cap, batch, special,
                         lambda j: (RunGraph(10, [0] * (2 * j), None), "state"), j)
        return run[1:], seen, rng.getstate()

    # a kept prefix, then a special step of two draws: the next batch's
    # rows start after them, and the last batch stops at `stop`
    run, seen, state = drive(3, 200, 100, [70, 100, 29], 2, True)
    assert seen == [(0, 100, draws[0]), (71, 100, draws[212]), (171, 29, draws[512])]
    assert run == (200, None) and state == advanced(599) and not handed
    # the same special step, then a batch that keeps nothing: handed over
    # at the step after it, with rng past its draws
    run, seen, state = drive(3, 200, 100, [70, 0], 2, True)
    assert seen == [(0, 100, draws[0]), (71, 100, draws[212])]
    assert handed == [(71, advanced(212), "state")] and run == (71, None)
    # a consumed proposal of step 70, which the next batch rejects again:
    # the run is handed over at that step's first draw, in the first batch
    run, seen, state = drive(4, 300, 300, [70, 0], 4, False)
    assert seen == [(0, 300, draws[0]), (70, 142, draws[284])]
    assert handed == [(70, advanced(280), "state")] and run == (70, None)
    # a special step that raises after three draws ends the run
    run, seen, state = drive(5, 400, 100, [80], 3, None)
    assert seen == [(0, 100, draws[0])]
    assert run == (80, "no step") and state == advanced(403) and not handed
    # fewer than _HANDOVER steps to batch: handed over at once, no draw made
    run, seen, state = drive(4, P._HANDOVER - 1, 100, [], 0, True)
    assert seen == [] and handed == [(0, advanced(0), "state")]
    # a run that starts at step 50 batches from there, and one with fewer
    # than _HANDOVER steps left from its start is handed over at once
    run, seen, state = drive(3, 200, 100, [100, 50], 0, True, j=50)
    assert seen == [(50, 100, draws[0]), (150, 50, draws[300])]
    assert run == (200, None) and state == advanced(450) and not handed
    run, seen, state = drive(3, 200, 100, [], 0, True, j=200 - P._HANDOVER + 1)
    assert seen == [] and handed == [(200 - P._HANDOVER + 1, advanced(0), "state")]


def _spy_on_handovers(monkeypatch) -> list:
    """The edge counts of the runs the bulk paths hand to stepping with
    steps left, as they are handed over."""
    built = []
    run_stepped = P._run_stepped

    def counting(cfg, rng, g=None, stubs=None):
        if g is not None and len(g.ends) // 2 < cfg.m_max:
            built.append(len(g.ends) // 2)
        return run_stepped(cfg, rng, g, stubs)

    monkeypatch.setattr(P, "_run_stepped", counting)
    return built


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
        batches.clear()
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
        # a simple run starts in bulk when it has a step to make and r n >=
        # 8 _HANDOVER = 512 stubs to shuffle, and goes through the batches
        # when it also has 64 steps or more to make before the endgame of
        # the last 64 stubs; a multigraph run is its reversed shuffle, and
        # never does
        batchable = min(m_max, (r * n - P._EXACT_THRESHOLD + 1) // 2)
        bulk = m_max >= 1 and r * n >= 8 * P._HANDOVER
        assert bool(batches) == (mode == "simple" and bulk and batchable >= P._HANDOVER), mode


@pytest.mark.parametrize("mode", ["multigraph", "simple"])
def test_stub_runs_start_in_bulk_from_512_stubs(monkeypatch, mode):
    # a shuffle costs its r n draws whatever m is, so a run with a step to
    # make draws it in one numpy call from r n = 8 _HANDOVER = 512 stubs
    # on, and steps below; a run of no steps draws nothing
    assert P._HANDOVER == 64
    draws = _spy_on_draws(monkeypatch)
    for n, m, calls in ((127, 10, []), (128, 10, [("draw", 512)]), (10_000, 0, [])):
        cfg = stub_cfg(n, 4, mode, m, (m,))
        bulk_rng, step_rng = random.Random(n), _SteppedRandom(n)
        draws.clear()
        bulk = _outcome(P.run_process, cfg, bulk_rng)
        assert draws == calls, (n, m)
        assert bulk == _outcome(P.run_process, cfg, step_rng), (n, m)
        assert bulk_rng.getstate() == step_rng.getstate(), (n, m)
    assert bulk_rng.getstate() == random.Random(10_000).getstate()


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
    assert built == ([(3 * n - P._EXACT_THRESHOLD + 1) // 2] if mode == "simple" else [])
    assert bulk == _outcome(P.run_process, cfg, step_rng)
    assert bulk_rng.getstate() == step_rng.getstate()


def test_stub_simple_run_draws_only_its_shuffle(monkeypatch):
    # the r-stub batches draw nothing, so the r = 3 simple run to
    # saturation makes one _mt_uniforms call, its shuffle's (and one more
    # per tie in the shuffle's draws, which this seed's hold none of); the
    # endgame steps on rng.random()
    draws = _spy_on_draws(monkeypatch)
    n = 100_000
    P.sample_edges(stub_cfg(n, 3, "simple", 3 * n // 2), random.Random("stub-draws"))
    assert draws == [("draw", 3 * n)]


@pytest.mark.parametrize("cap, cfgs, seeds", [
    (3, [lin_cfg(n, alpha, "simple", m, (m // 2,)) for alpha, n, m in
         ((0.5, 10, 45), (1.0, 30, 300), (1e6, 200, 3000), (1e6, 2000, 1500))], range(4)),
    (3, [stub_cfg(n, r, "simple", m, (m // 2,)) for r, n, m in
         ((30, 20, 300), (20, 30, 300), (12, 40, 240), (3, 2000, 3000))], range(4)),
    # a repeated vertex is rejected: seeds 0 and 1 exhaust at m = 581 and 1066
    (2, [P.ProcessConfig(n=1000, weight_rule=P.GeneralF((1.0, 10.0, 100.0)), m_max=1500,
                         checkpoints=(750,))], range(2)),
], ids=["linear-simple", "stub-simple", "general-f"])
def test_bulk_run_keeps_the_rejection_cap(monkeypatch, cap, cfgs, seeds):
    # a step past the cap exhausts the budget where stepping does, even
    # when the batches rejected some of its proposals before the hand-over
    monkeypatch.setattr(P, "_REJECTION_CAP", cap)
    budget = 0
    for cfg in cfgs:
        for seed in seeds:
            bulk_rng, step_rng = random.Random(seed), _SteppedRandom(seed)
            bulk = _outcome(P.run_process, cfg, bulk_rng)
            assert bulk == _outcome(P.run_process, cfg, step_rng), (cfg, seed)
            assert bulk_rng.getstate() == step_rng.getstate(), (cfg, seed)
            budget += isinstance(bulk, tuple) and "budget" in bulk[1]
    assert budget


def test_stub_rejection_leaves_the_order_uniform(monkeypatch):
    # a rejected proposal goes back by two inside-out shuffle swaps: the
    # stubs before it are in uniform order, and the list is then again a
    # uniform permutation; with a cap of one proposal, it is kept
    monkeypatch.setattr(P, "_REJECTION_CAP", 1)
    g = RunGraph(4, [], {0 * 4 + 1})  # (0, 1) is an edge, so (1, 0) is rejected
    rng = random.Random(31)
    counts = Counter()
    for _ in range(24_000):
        stubs = rng.sample([2, 3], 2) + [0, 1]
        with pytest.raises(P.ProcessExhausted, match="budget"):
            P._stub_proposals(stubs, 4, g, rng)
        counts[tuple(stubs)] += 1
    res = S.chi_square_counts(counts, {perm: 1 / 24 for perm in itertools.permutations(range(4))})
    assert res.pvalue > 1e-3, f"repaired order not uniform: chi2={res.stat:.1f} p={res.pvalue:.2e}"


def test_stub_shuffle_drops_a_tied_row():
    # distinct draws sort each row; a row that holds a tie is dropped, the
    # rows after it move up, and one more row is drawn in its place
    script = [[[0.125, 0.375, 0.375], [0.5, 0.25, 0.75]], [[0.625, 0.0, 0.5]]]
    calls = []

    def draw(k):
        calls.append(k)
        return np.array(script.pop(0)).ravel()

    assert P._shuffled_stubs(3, 1, 2, draw).tolist() == [[1, 0, 2], [1, 2, 0]]
    assert calls == [6, 3]
    # one row, drawn again while it holds a tie, and r stubs per vertex
    script = [[[0.5, 0.5, 0.25, 0.75]], [[0.5, 0.25, 0.75, 0.0]]]
    assert P._shuffled_stubs(2, 2, 1, draw).tolist() == [[1, 0, 0, 1]]
    assert calls == [6, 3, 4, 4]


def _tie_at(monkeypatch, draw: float) -> list:
    """Make every row of a stub shuffle's draws that holds `draw` a tie, all
    of its entries `draw`; returns, row by row, whether it did."""
    ties = []
    shuffled = P._shuffled_stubs

    def tied(n, r, runs, draws):
        def drawing(k):
            u = draws(k).reshape(-1, r * n)
            hit = (u == draw).any(axis=1)
            ties.extend(hit.tolist())
            u[hit] = draw
            return u.ravel()
        return shuffled(n, r, runs, drawing)

    monkeypatch.setattr(P, "_shuffled_stubs", tied)
    return ties


@pytest.mark.parametrize("mode", ["multigraph", "simple"])
def test_bulk_stub_run_draws_again_on_a_tie(monkeypatch, mode):
    # draws with a tie would order the stubs non-uniformly, so bulk and
    # stepping both draw the shuffle again
    n, r, m = 200, 3, 250
    cfg = stub_cfg(n, r, mode, m, (m // 2, m))
    seed = f"stub-tie:{mode}"
    ties = _tie_at(monkeypatch, random.Random(seed).random())
    bulk_rng, step_rng = random.Random(seed), _SteppedRandom(seed)
    bulk = _outcome(P.run_process, cfg, bulk_rng)
    assert ties == [True, False]
    assert bulk == _outcome(P.run_process, cfg, step_rng)
    assert bulk_rng.getstate() == step_rng.getstate()
    assert ties == [True, False] * 2
    if mode == "multigraph":
        # a multigraph run makes no draw but its shuffles
        ref = random.Random(seed)
        for _ in range(2 * r * n):
            ref.random()
        assert bulk_rng.getstate() == ref.getstate()


def test_batched_stub_outcomes_draw_one_more_row_on_a_tie(monkeypatch):
    # a chunk of tiny multigraph runs drops a tied run's row and draws one
    # more row at its end, which makes the runs that stepping makes: the
    # tied run draws again; the next chunk is drawn at once
    n, r, m = 3, 3, 2
    runs = P._OUTCOME_CHUNK + 300
    cfg = stub_cfg(n, r, "multigraph", m)
    seed = "stub-tie:outcomes"
    ref = random.Random(seed)
    draws = [ref.random() for _ in range(8 * r * n)]
    ties = _tie_at(monkeypatch, draws[7 * r * n])
    made = _spy_on_draws(monkeypatch)
    batched_rng, stepped_rng = random.Random(seed), _SteppedRandom(seed)
    batched = _counts(cfg, runs, batched_rng)
    # the chunk's rows with the eighth tied, the one more row, then the next chunk
    assert ties == [False] * 7 + [True] + [False] * (P._OUTCOME_CHUNK - 8) + [False] + [False] * 300
    assert made == [("draw", P._OUTCOME_CHUNK * r * n), ("draw", r * n), ("draw", 300 * r * n)]
    assert batched == _counts(cfg, runs, stepped_rng) == _reference_counts(cfg, runs, _SteppedRandom(seed))
    assert batched_rng.getstate() == stepped_rng.getstate()
    ref = random.Random(seed)
    for _ in range((runs + 1) * r * n):
        ref.random()
    assert batched_rng.getstate() == ref.getstate()


def test_outcomes_of_a_random_subclass_step(monkeypatch):
    # the one dispatcher of outcome chunks keys on a plain random.Random:
    # a subclass may override random(), so none of its runs draws in numpy
    draws = _spy_on_draws(monkeypatch)
    for cfg in (lin_cfg(3, 1.0, "multigraph", 2), lin_cfg(3, 1.0, "simple", 2),
                stub_cfg(3, 3, "multigraph", 2), stub_cfg(200, 3, "multigraph", 2),
                stub_cfg(200, 3, "simple", 100), P.ProcessConfig(200, P.GeneralF((1.0, 2.0, 3.0)), m_max=64)):
        P.sample_process_outcomes(cfg, 3, _SteppedRandom(0))
    assert draws == []


def test_numpy_draws_continue_the_python_stream():
    rng = random.Random(2024)
    rng.gauss(0.0, 1.0)  # leaves a cached normal in the state, which must survive
    ref = random.Random()
    ref.setstate(rng.getstate())
    u = P._mt_uniforms(rng, 100_000)
    assert u.tolist() == [ref.random() for _ in range(100_000)]
    assert rng.getstate() == ref.getstate()
    assert rng.random() == ref.random()


def test_mt_state_view_is_numpys_state_struct():
    # _mt_uniforms hands the state over through a view of numpy's MT19937
    # struct, assumed to be 625 uint32 words: the 624 of the key, then pos
    gen, words = P._mt19937()
    key = np.random.default_rng(7).integers(0, 2 ** 32, 624, dtype=np.uint32).tolist()
    with gen.bit_generator.lock:
        words[:624], words[624] = key, 17
        state = gen.bit_generator.state["state"]
        assert state["key"].tolist() == key and state["pos"] == 17
        # and numpy's own setter writes where the view reads
        gen.bit_generator.state = {"bit_generator": "MT19937",
                                   "state": {"key": np.array(key[::-1], np.uint32), "pos": 3}}
        assert words[:] == [*key[::-1], 3]


@pytest.mark.parametrize("rule", [P.LinearAlpha(0.5), P.LinearAlpha(1.0), P.LinearAlpha(2.0),
                                  P.LinearAlpha(1e6), P.NegativeInteger(3), P.NegativeInteger(4),
                                  P.GeneralF((1.0, 2.0, 0.5))],
                         ids=lambda rule: repr(rule))
def test_batched_outcomes_match_stepping(rule):
    # both sides count with one keyer, so each is also checked against runs
    # made one by one by sample_edges and keyed by the oracle's canonical_key
    cases = [(n, m, runs) for n in (1, 2, 3, 5) for m in (0, 1, 2, 4) for runs in (0, 1, 3, 500)]
    # more runs than one chunk, the last chunk partial (in simple mode a
    # chunk holds proposals, and runs cross its end); and (n^2)^m past
    # 2^63, where the outcome codes no longer fit an int64
    cases += [(3, 2, P._OUTCOME_CHUNK + 5), (8, 11, 200)]
    cases_by_mode = {"multigraph": cases}
    if isinstance(rule, P.LinearAlpha):
        # simple runs of n <= 3 past the n(n-1)/2 pairs end in the complete
        # graph; K4 is reached exactly
        cases_by_mode["simple"] = cases + [(4, 6, 1), (4, 6, 500)]
    else:
        # r-stub and general-f simple runs are made one by one by their
        # runner; those of n <= 3 past the pairs end in exhaustion
        cases_by_mode["simple"] = cases
    for mode, mode_cases in cases_by_mode.items():
        for n, m, runs in mode_cases:
            if isinstance(rule, P.NegativeInteger) and m > rule.r * n // 2:
                continue
            cfg = P.ProcessConfig(n=n, weight_rule=rule, mode=mode, m_max=m)
            seed = f"outcomes:{rule}:{n}:{m}:{runs}" + (":simple" if mode == "simple" else "")
            batched_rng, stepped_rng = random.Random(seed), _SteppedRandom(seed)
            reference_rng = _SteppedRandom(seed)
            batched = _outcome(_counts, cfg, runs, batched_rng)
            stepped = _outcome(_counts, cfg, runs, stepped_rng)
            reference = _outcome(_reference_counts, cfg, runs, reference_rng)
            # the same counts, first seen in the same order, and the same state after
            assert batched == stepped == reference, (mode, n, m, runs)
            assert batched_rng.getstate() == stepped_rng.getstate() == reference_rng.getstate(), \
                (mode, n, m, runs)


def _spy_on_draws(monkeypatch) -> list:
    """The numpy draws and linear-alpha simple outcome chunks, in order:
    ("draw", k) for an _mt_uniforms call of k draws, and ("chunk",
    proposals, used) for a chunk."""
    events = []
    mt_uniforms, chunk = P._mt_uniforms, P._urn_simple_chunk

    def drawing(rng, k):
        events.append(("draw", k))
        return mt_uniforms(rng, k)

    def chunking(n, an, m, u, want):
        ends, used = chunk(n, an, m, u, want)
        events.append(("chunk", len(u), used))
        return ends, used

    monkeypatch.setattr(P, "_mt_uniforms", drawing)
    monkeypatch.setattr(P, "_urn_simple_chunk", chunking)
    return events


@pytest.mark.parametrize("n, m, alpha, runs", [(3, 2, 0.5, 20_000), (3, 2, 2.0, 20_000),
                                                (5000, 2, 1.0, 300)])
def test_simple_outcome_chunks_draw_once_each(monkeypatch, n, m, alpha, runs):
    # a chunk carries the proposals the last one left unused and draws only
    # the rest; rng is rewound once, at the end.  At n = 5000 the lane
    # tables, n + 2 + 2m numbers each, make the chunks shorter
    events = _spy_on_draws(monkeypatch)
    cfg = lin_cfg(n, alpha, "simple", m)
    seed = f"chunk-draws:{n}:{alpha}"
    batched_rng, stepped_rng = random.Random(seed), _SteppedRandom(seed)
    batched = _counts(cfg, runs, batched_rng)
    chunks = [e for e in events if e[0] == "chunk"]
    draws = [e for e in events if e[0] == "draw"]
    assert len(chunks) > 2 and len(draws) <= len(chunks) + 1
    assert max(size for _, size, _ in chunks) * (n + 2 + 2 * m) <= 2 * 64 * P._OUTCOME_CHUNK
    assert batched == _counts(cfg, runs, stepped_rng)
    assert batched_rng.getstate() == stepped_rng.getstate()


def test_simple_outcome_chunk_of_carried_proposals(monkeypatch):
    # at n = 3 and alpha = 10^6 the first chunk's bound, 3.75 proposals per
    # run, is the expected count, so a chunk can fall short.  Here the
    # first chunk makes one of two runs from 3 of its 8 proposals; the last
    # chunk's estimate, 1.05 x 3 proposals for the run left, is within the
    # 5 it carries, and they hold no whole run (their first run left the
    # first chunk), so it draws as many again.  A single run whose first
    # chunk holds none of it is drawn again, twice as long.  Either way the
    # runs and the state rng is set back to are stepping's own
    events = _spy_on_draws(monkeypatch)
    cfg = lin_cfg(3, 1e6, "simple", 2)
    cases = ((2, "carried:0", [("draw", 32), ("chunk", 8, 3), ("draw", 20), ("chunk", 10, 7)]),
             (1, "grown:0", [("draw", 16), ("chunk", 4, 0), ("draw", 16), ("chunk", 8, 6)]))
    for runs, seed, first in cases:
        events.clear()
        batched_rng, stepped_rng = random.Random(seed), _SteppedRandom(seed)
        batched = _counts(cfg, runs, batched_rng)
        assert events[:4] == first
        assert batched == _counts(cfg, runs, stepped_rng)
        assert batched_rng.getstate() == stepped_rng.getstate()


@pytest.mark.parametrize("runs", [1, 10, 100])
def test_few_simple_outcome_runs_take_one_chunk(monkeypatch, runs):
    # the first chunk holds 1.05 times a bound on the runs' expected
    # proposals: at n = 3, alpha = 0.5 and m = 2, 1.5 + 12.25 per run, where
    # a run takes about 6, so one chunk serves every run
    events = _spy_on_draws(monkeypatch)
    cfg = lin_cfg(3, 0.5, "simple", 2)
    seed = f"few-runs:{runs}"
    batched_rng, stepped_rng = random.Random(seed), _SteppedRandom(seed)
    batched = _counts(cfg, runs, batched_rng)
    size = math.ceil(1.05 * 13.75 * runs)
    assert [e for e in events if e[0] == "chunk"] == [("chunk", size, events[1][2])]
    assert events[0] == ("draw", 4 * size)
    assert batched == _counts(cfg, runs, stepped_rng)
    assert batched_rng.getstate() == stepped_rng.getstate()


def test_simple_outcomes_of_runs_longer_than_any_chunk(monkeypatch):
    # at n = 60 a chunk's lane tables leave room for fewer proposals than a
    # run of 1500 edges needs, so every run is made on its own, and the
    # runs after the first are still sized from the chunks' proposals
    events = _spy_on_draws(monkeypatch)
    cfg = lin_cfg(60, 1.0, "simple", 1500)
    batched_rng, stepped_rng = random.Random("longer"), _SteppedRandom("longer")
    batched = _counts(cfg, 3, batched_rng)
    chunks = [e for e in events if e[0] == "chunk"]
    assert sum(count for _, count in batched) == 3
    assert chunks and all(used == 0 for _, _, used in chunks)
    assert batched == _counts(cfg, 3, stepped_rng)
    assert batched_rng.getstate() == stepped_rng.getstate()


def _counts(cfg, runs, rng):
    return list(P.sample_process_outcomes(cfg, runs, rng).items())


def _reference_counts(cfg, runs, rng):
    """The outcome counts of runs made one by one, keyed by the oracle."""
    out = Counter()
    for _ in range(runs):
        ends, _, reason = P.sample_edges(cfg, rng)
        if reason is not None:
            raise P.ProcessExhausted(reason)
        out[oracle.canonical_key(zip(ends[0::2].tolist(), ends[1::2].tolist()))] += 1
    return list(out.items())


def test_sampler_imports_no_oracle():
    # the exact oracles are the tests' reference, so no sampler loads them
    code = (
        "import random, sys\n"
        "import pagiant\n"
        "from pagiant import processes as P\n"
        "for rule in (P.LinearAlpha(1.0), P.NegativeInteger(3), P.GeneralF((1.0,))):\n"
        "    for mode in ('multigraph', 'simple'):\n"
        "        cfg = P.ProcessConfig(n=3, weight_rule=rule, mode=mode, m_max=2)\n"
        "        P.sample_process_outcomes(cfg, 10, random.Random(1))\n"
        "print(sorted(m for m in sys.modules if m == 'pagiant.oracle'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(P.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
    # the bulk runner itself: _runner steps runs this short
    rng = random.Random(20_260_500 + int(alpha * 4))
    cfg = lin_cfg(3, float(alpha), "multigraph", 2, checkpoints=(2,))
    counts = Counter(_record_key(P._records(3, P._run_urn(cfg, rng)[0], [2])[0])
                     for _ in range(4000))
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


@pytest.mark.parametrize("rule, a, factor, runs, seed", [
    (P.LinearAlpha(1.0), 1.0, 1.5, 400, 1), (P.NegativeInteger(3), -3, 1.2, 200, 3)],
    ids=["alpha1", "r3"])
def test_multi_edges_given_degrees_match_the_configuration_model(rule, a, factor, runs, seed):
    # given its degrees d, a multigraph run at edge m is the configuration
    # model on d, where two of i's d_i stubs meet two of j's with
    # probability 2 / ((2m - 1)(2m - 3)): so the pairs of parallel edges,
    # sum_{i<j} C(M_ij, 2) over the multiplicities M_ij of the pairs, have
    # mean sum_{i<j} d_i (d_i - 1) d_j (d_j - 1) / (2 (2m - 1)(2m - 3)); the
    # observed excess over the runs is scaled by its Poisson variance
    n = 10_000
    m = int(factor * T.m_crit(a, n))
    cfg = P.ProcessConfig(n=n, weight_rule=rule, m_max=m)
    rng = random.Random(20_261_300 + seed)
    excess = variance = 0.0
    for _ in range(runs):
        ends, reached, _ = P.sample_edges(cfg, rng)
        assert reached == m
        d = np.bincount(ends, minlength=n)
        x = (d * (d - 1)).astype(np.float64)
        expected = (x.sum() ** 2 - np.dot(x, x)) / 2 / (2 * (2 * m - 1) * (2 * m - 3))
        v, w = ends[0::2], ends[1::2]
        keep = v != w
        mult = np.unique(np.minimum(v, w)[keep] * n + np.maximum(v, w)[keep], return_counts=True)[1]
        excess += int(np.sum(mult * (mult - 1) // 2)) - expected
        variance += expected
    z = excess / math.sqrt(variance)
    assert abs(z) < 3.29, f"parallel edges given degrees off the configuration model: z = {z:.2f}"


def _betabinomial_pmf(k, trials, a, b):
    return math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                    + math.lgamma(k + a) + math.lgamma(trials - k + b) - math.lgamma(trials + a + b)
                    + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))


@pytest.mark.parametrize("rule, factor, runs, seed", [
    (P.LinearAlpha(1.0), 1.5, 1000, 1), (P.NegativeInteger(3), 1.0, 200, 2)], ids=["alpha1", "r3"])
def test_vertex_degree_law_is_exact_at_n_1e4(rule, factor, runs, seed):
    # across independent multigraph runs at edge m, vertex 0's degree is
    # BetaBinomial(2m; alpha, (n - 1) alpha), the Polya urn's count of one
    # colour, and for r stubs Hypergeometric(rn, r, 2m): r of the rn stubs
    # are vertex 0's, and 2m of them are drawn
    n = 10_000
    a = getattr(rule, "alpha", None) or -rule.r
    m = int(factor * T.m_crit(a, n))
    cfg = P.ProcessConfig(n=n, weight_rule=rule, m_max=m)
    rng = random.Random(20_261_100 + seed)
    top = 8  # cell 8 holds every degree from 8 on
    counts = Counter(min(int(np.count_nonzero(P.sample_edges(cfg, rng)[0] == 0)), top)
                     for _ in range(runs))
    if isinstance(rule, P.LinearAlpha):
        exact = {k: _betabinomial_pmf(k, 2 * m, a, (n - 1) * a) for k in range(top)}
        exact[top] = 1.0 - sum(exact.values())
    else:
        r = rule.r
        exact = {k: math.comb(r, k) * math.comb(r * n - r, 2 * m - k) / math.comb(r * n, 2 * m)
                 for k in range(r + 1)}
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3, f"vertex 0's degree off its law: chi2={res.stat:.1f} p={res.pvalue:.2e}"


def test_degrees_then_configuration_model_match_the_bulk_process_at_n_1e4():
    # given its degrees, the linear-alpha multigraph run at edge m is the
    # configuration model on them, and its degrees are
    # Dirichlet-multinomial(2m; alpha, ..., alpha): so sample_conditioned_degrees
    # followed by sample_configuration_model makes the run's law.  Both
    # sides' records come from _records; each statistic's means are compared
    # by a two-sample z with the Welch variance
    n, runs = 10_000, 150
    m = int(1.5 * T.m_crit(1.0, n))
    cfg = P.ProcessConfig(n=n, weight_rule=P.LinearAlpha(1.0), m_max=m)
    rng = random.Random(20_261_200)
    bulk = [P._records(n, P.sample_edges(cfg, rng)[0], [m])[0] for _ in range(runs)]
    cm = [P._records(n, P.sample_configuration_model(P.sample_conditioned_degrees(n, 1.0, m, rng),
                                                     rng), [m])[0] for _ in range(runs)]
    for stat in ("l1", "loops", "multi_edges"):
        x = np.array([getattr(rec, stat) for rec in bulk], np.float64)
        y = np.array([getattr(rec, stat) for rec in cm], np.float64)
        z = (x.mean() - y.mean()) / math.sqrt(x.var(ddof=1) / runs + y.var(ddof=1) / runs)
        p = math.erfc(abs(z) / math.sqrt(2))
        assert p > 1e-3, f"{stat}: bulk {x.mean():.3f} vs DM+CM {y.mean():.3f}, p = {p:.2e}"


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
    # stepped (on a RunGraph, which keeps no degrees), and
    # leaves rng where ProcessState.step does
    again = random.Random(f"builder:{rule}:{mode}:{n}")
    assert P.run_process(cfg, again).records == tuple(expected)
    assert again.getstate() == rng.getstate()
    stepped = _SteppedRandom(f"builder:{rule}:{mode}:{n}")
    assert P.run_process(cfg, stepped).records == tuple(expected)
    assert stepped.getstate() == rng.getstate()


def _reference_records(n, edges, checkpoints):
    """The checkpoint records of an edge list in plain Python: a union-find,
    and Counters of pairs and degrees."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pairs, deg, loops, records = Counter(), [0] * n, 0, []
    for m in range(len(edges) + 1):
        if m in checkpoints:
            sizes = sorted(Counter(find(x) for x in range(n)).values(), reverse=True)
            records.append(P.CheckpointRecord(
                m=m, l1=sizes[0], l2=(sizes + [0])[1], s=sum(c * c for c in sizes) / n,
                loops=loops, multi_edges=m - len(pairs),
                degree_hist=tuple(sorted(Counter(deg).items()))))
        if m < len(edges):
            v, w = edges[m]
            parent[find(v)] = find(w)
            pairs[min(v, w), max(v, w)] += 1
            deg[v] += 1
            deg[w] += 1
            loops += v == w
    return records


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12),
       raw=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
       data=st.data())
def test_records_match_a_plain_reference(n, raw, data):
    # small n makes loops, repeated pairs in either orientation and
    # isolated vertices common; any sorted set of checkpoints in [0, m]
    edges = [(v % n, w % n) for v, w in raw]
    keep = data.draw(st.lists(st.booleans(), min_size=len(edges) + 1, max_size=len(edges) + 1))
    cps = [m for m, kept in enumerate(keep) if kept]
    ends = np.array([x for edge in edges for x in edge], np.int64)
    assert P._records(n, ends, cps) == _reference_records(n, edges, cps)


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
    # the trajectory keeps the exhaustion message: two vertices and one
    # edge make a complete graph
    assert traj.reason == str(err.value) == "graph is complete"
    assert dict(traj.records[0].degree_hist) == {1: 2}
    assert P.run_process(lin_cfg(2, 1.0, "simple", 1, checkpoints=(1,), seed=4)).reason is None


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


def test_config_bounds_n_so_pair_keys_fit_in_int64():
    # a pair key min*n + max is at most n^2 - 1, so n^2 must not pass 2^63
    top = math.isqrt(2 ** 63 - 1)
    assert (top + 1) ** 2 - 1 > 2 ** 63 - 1 >= top ** 2 - 1
    lin_cfg(top, 1.0, "multigraph", 1).validate()
    with pytest.raises(ValueError, match="^n: must be at most 3037000499, got 3037000500$"):
        lin_cfg(top + 1, 1.0, "multigraph", 1).validate()


class _NoDraws(random.Random):
    """A generator that fails the test on its first draw."""

    def random(self):
        raise AssertionError("drew before the input was checked")


def _sized(**fields):
    cfg = dict(n=4, weight_rule=P.LinearAlpha(1.0), mode="multigraph", m_max=2, checkpoints=(1,))
    return P.ProcessConfig(**{**cfg, **fields})


@pytest.mark.parametrize("call, field", [
    (lambda rng: P.run_process(_sized(n=4.0), rng), "n: "),
    (lambda rng: P.run_process(_sized(n=True), rng), "n: "),
    (lambda rng: P.run_process(_sized(m_max=2.0), rng), "m_max: "),
    (lambda rng: P.run_process(_sized(checkpoints=(1.5,)), rng), "checkpoints[0]: "),
    (lambda rng: P.run_process(_sized(checkpoints=(-1, 1)), rng), "checkpoints[0]: "),
    (lambda rng: P.run_process(_sized(weight_rule=P.NegativeInteger(3.0)), rng), "weight_rule.r: "),
    (lambda rng: P.sample_process_outcomes(_sized(), -1, rng), "runs "),
    (lambda rng: P.sample_process_outcomes(_sized(), 2.5, rng), "runs "),
    (lambda rng: P.sample_process_outcomes(_sized(), True, rng), "runs "),
    (lambda rng: P.sample_birth_degrees(-1, 1.0, 1.0, rng), "n "),
    (lambda rng: P.sample_birth_degrees(2.0, 1.0, 1.0, rng), "n "),
], ids=["n_float", "n_bool", "m_max_float", "checkpoint_float", "checkpoint_negative",
        "r_float", "runs_negative", "runs_float", "runs_bool", "birth_n_negative", "birth_n_float"])
def test_sizes_must_be_integers(call, field):
    # each once ran (n = True as n = 1), returned nothing, or ended in a
    # TypeError inside a runner; now a ValueError names the field first
    with pytest.raises(ValueError, match=f"^{re.escape(field)}must be an integer"):
        call(_NoDraws(0))


def test_sizes_may_be_numpy_integers():
    cfg = _sized(n=np.int64(4), m_max=np.int64(2), checkpoints=(np.int64(1),))
    assert P.run_process(cfg, random.Random(0)) == P.run_process(_sized(), random.Random(0))
    assert P.sample_process_outcomes(_sized(), np.int64(3), random.Random(0)).total() == 3
    assert len(P.sample_birth_degrees(np.int64(3), 1.0, 1.0, random.Random(0))) == 3


def test_checkpoints_may_be_a_list():
    # a sorted list once failed as unsorted: it was compared with a tuple
    cfg = _sized(checkpoints=[1])
    cfg.validate()
    assert P.run_process(cfg, random.Random(0)) == P.run_process(_sized(), random.Random(0))
    with pytest.raises(ValueError, match="^checkpoints: must be sorted$"):
        _sized(checkpoints=[2, 1]).validate()
    with pytest.raises(ValueError, match="^checkpoints: must be distinct$"):
        _sized(checkpoints=[1, 1]).validate()


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


@pytest.mark.parametrize("table, mode, n, m, endgame, seed", [
    # affine to K = 1: the first step is the alpha = 1 urn's, the second a
    # class step, so this also anchors the hand-over
    ((1.0, 2.0, 0.5), "multigraph", 3, 2, False, 41),
    ((1.0, 1.0, 0.0), "multigraph", 3, 2, False, 42),
    ((1.0, 2.0, 0.5), "simple", 4, 2, False, 43),
    ((1.0, 1.0, 0.0), "simple", 4, 3, False, 44),
    ((1.0, 2.0, 0.5), "simple", 4, 2, True, 45),
    ((1.0, 1.0, 0.0), "simple", 4, 3, True, 46),
    # affine to K = 2: a run leaves the urn after a loop or at its third step
    ((1.0, 2.0, 3.0, 0.5), "multigraph", 3, 3, False, 47),
])
def test_general_f_law_matches_oracle(monkeypatch, table, mode, n, m, endgame, seed):
    # the class engine's steps, and the urn's before the hand-over, against
    # the oracle's law for the table; tiny runs step, and with `endgame`
    # every simple step is the exact enumeration
    if endgame:
        monkeypatch.setattr(P, "_EXACT_AFTER_REJECTIONS", 0)
    cfg = P.ProcessConfig(n=n, weight_rule=P.GeneralF(table), mode=mode, m_max=m)
    counts = P.sample_process_outcomes(cfg, 100_000, random.Random(seed))
    exact = {k: float(v) for k, v in oracle.enumerate_process(n, m, table=table, mode=mode).items()}
    res = S.chi_square_counts(counts, exact)
    assert res.pvalue > 1e-3, f"law mismatch: chi2={res.stat:.1f} dof={res.dof} p={res.pvalue:.2e}"


def test_reduced_outcomes_are_the_linear_rule_outcomes(monkeypatch):
    # f(k) = k + 1 to degree 4: runs of 2 edges never start a step at
    # degree 4, so their outcome chunk is the alpha = 1 urn's one draw, with
    # the linear rule's counts, order and final state, and stepping's
    draws = _spy_on_draws(monkeypatch)
    cfg = P.ProcessConfig(n=3, weight_rule=P.GeneralF((1.0, 2.0, 3.0, 4.0, 5.0)), m_max=2)
    seed = "reduced-outcomes"
    reduced_rng, linear_rng, stepped_rng = random.Random(seed), random.Random(seed), _SteppedRandom(seed)
    reduced = _counts(cfg, 20_000, reduced_rng)
    chunks = [P._OUTCOME_CHUNK] * 2 + [20_000 - 2 * P._OUTCOME_CHUNK]
    assert draws == [("draw", 8 * runs) for runs in chunks]
    assert reduced == _counts(lin_cfg(3, 1.0, "multigraph", 2), 20_000, linear_rng)
    assert reduced == _counts(cfg, 20_000, stepped_rng)
    assert reduced_rng.getstate() == linear_rng.getstate() == stepped_rng.getstate()


def test_general_f_simple_endgame_draws_heavy_pairs_exactly(monkeypatch):
    # f = (1, 1e200) on five vertices: the first edge makes two heavy
    # vertices, the second (heavy-light, all but 1e-200 of the mass) a path
    # of three, and the third closes its triangle, whose pair weighs 1e400
    # against at most 1e200 for any other.  Float sums once made that mass
    # inf, and a draw past every cumulative weight took the last pair.
    monkeypatch.setattr(P, "_EXACT_AFTER_REJECTIONS", 0)
    cfg = P.ProcessConfig(n=5, weight_rule=P.GeneralF((1.0, 1e200)), mode="simple", m_max=3)
    rng = random.Random(1)
    for _ in range(300):
        ends, m, reason = P.sample_edges(cfg, rng)
        assert (m, reason) == (3, None)
        assert len(set(ends.tolist())) == 3, ends.tolist()


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


def test_heavy_tables_run_their_exact_law():
    # float class masses once overflowed past f of about 1.4e154: the loop
    # branch read nan, was never taken, and a multigraph run stopped at
    # m = 1 or 2 with a spent rejection budget.  Under the exact law nearly
    # every step (all but about 1e-198) is a loop on the first vertex to
    # reach the heavy class, from the edge that puts it there on
    started = time.monotonic()
    for table, heavy in (((1.0, 1e200), 1), ((1.0, 2.0, 1e160), 2),
                         ((1e-300, 1.0), None), ((5e-324, 1.0, 2.0), None)):
        for seed in range(3):
            cfg = P.ProcessConfig(n=50, weight_rule=P.GeneralF(table=table), m_max=20, seed=seed)
            ends, m, reason = P.sample_edges(cfg)
            assert (m, reason) == (20, None)
            if heavy is None:
                continue
            pairs = ends.reshape(-1, 2).tolist()
            deg = [0] * cfg.n
            for i, (v, w) in enumerate(pairs):
                deg[v] += 1
                deg[w] += 1
                if max(deg) >= heavy:
                    break
            assert max(deg) >= heavy and all(e == [v, v] for e in pairs[i:])
    assert time.monotonic() - started < 1.0


def _scaled(table, top):
    """[f(0) D, ..., f(top) D] as ints, D the common denominator of the
    table's entries."""
    fs = [F(x) for x in table]
    d = math.lcm(*(f.denominator for f in fs))
    return [int(fs[min(k, len(fs) - 1)] * d) for k in range(top + 1)]


@settings(max_examples=200, deadline=None)
@given(table=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=6),
       n=st.integers(1, 40), steps=st.integers(0, 60),
       mode=st.sampled_from(["multigraph", "simple"]), seed=st.integers(0, 2 ** 32))
@example(table=[1.0, 2.0, 3.0], n=6, steps=40, mode="multigraph", seed=1)
@example(table=[1.0, 2.0, 3.0], n=6, steps=12, mode="simple", seed=1)
def test_degree_classes_track_the_graph(table, n, steps, mode, seed):
    # every vertex sits in the class of its degree, at the index pos says.
    # A multigraph run of a table affine to K (such as (1, 2, 3), K = 2)
    # makes the urn's steps, with its degrees only, until a degree reaches
    # K; from then on it keeps the classes, first listed in vertex order
    cfg = P.ProcessConfig(n=n, weight_rule=P.GeneralF(table=tuple(table)), mode=mode, m_max=steps)
    state = P.ProcessState(cfg)
    engine = state.engine
    form = P._urn_form(cfg)
    rng = random.Random(seed)
    for _ in range(steps):
        urn_step = engine.urn is not None
        try:
            state.step(rng)
        except P.ProcessExhausted:
            break
        assert engine.deg == state.graph.deg
        assert (engine.urn is not None) == (form is not None and max(state.graph.deg) < form[1])
        if engine.urn is not None:
            continue
        if urn_step:
            assert all(vs == sorted(vs) for vs in engine.members)
        # one class per degree up to the top one, which is occupied
        assert engine.members[-1] and len(engine.members) == max(state.graph.deg) + 1
        assert sum(len(vs) for vs in engine.members) == n
        for k, vs in enumerate(engine.members):
            for i, v in enumerate(vs):
                assert state.graph.deg[v] == k
                assert engine.pos[v] == i
        # the integer masses of the classes, kept by sync, as summed afresh
        sizes = [len(vs) for vs in engine.members]
        f = _scaled(table, len(sizes))
        assert engine.T == sum(c * f[k] for k, c in enumerate(sizes))
        assert engine.Q == sum(c * f[k] ** 2 for k, c in enumerate(sizes))
        assert engine.L == sum(c * f[k] * f[k + 1] for k, c in enumerate(sizes))
        assert all(type(x) is int for x in (engine.T, engine.Q, engine.L))


@pytest.mark.parametrize("mode", ["multigraph", "simple"])
def test_general_f_engine_keeps_its_own_degrees(mode):
    # a stepped run's graph keeps no degrees, so the engine's own must follow
    # the graph's, a loop adding 2, and place every vertex in its class
    # (in multigraph mode, once a degree reaches K = 2 and the urn's steps end)
    n, steps = 8, 28
    state = P.ProcessState(P.ProcessConfig(n=n, weight_rule=P.GeneralF(table=(1.0, 2.0, 3.0, 0.5)),
                                           mode=mode, m_max=steps))
    engine = state.engine
    rng = random.Random(f"engine-degrees:{mode}")
    for _ in range(steps):
        state.step(rng)
        assert engine.deg == state.graph.deg
        if engine.urn is not None:
            continue
        for v in range(n):
            assert engine.members[engine.deg[v]][engine.pos[v]] == v
    assert engine.urn is None
    assert (state.graph.loops > 0) == (mode == "multigraph")


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
@example(table=[0.5, 1.0, 1.5, 7.3], n=6, steps=40, mode="multigraph", seed=2)
def test_class_draws_follow_the_degree_order_cumsum(table, n, steps, mode, seed):
    # the engine's class masses are exact integers f(k) D, so each
    # endpoint's class is the first k whose integer cumulative mass cum_k
    # has cum_k 2^53 > U T, for its draw u = U / 2^53 (float64 cumsums
    # would round: the scaled 0.1 and 7.3 entries pass 2^53).  A
    # multigraph step of a table affine to K (_urn_form) below top degree K
    # is the urn's: four draws, resolved as _UrnPairEngine resolves them
    cfg = P.ProcessConfig(n=n, weight_rule=P.GeneralF(table=tuple(table)), mode=mode, m_max=steps)
    state = P.ProcessState(cfg)
    engine, g = state.engine, state.graph
    form = P._urn_form(cfg)
    source = random.Random(seed)
    for _ in range(steps):
        urn_step = engine.urn is not None
        assert urn_step == (form is not None and max(g.deg) < form[1])
        sizes = np.bincount(g.deg).tolist()
        f = _scaled(table, len(sizes))
        draws: list[float] = []

        def record():
            draws.append(source.random())
            return draws[-1]

        try:
            v, w = engine.sample(SimpleNamespace(random=record))
        except P.ProcessExhausted:
            break

        def drawn_class(weights, u):
            cum = list(accumulate(c * x for c, x in zip(sizes, weights)))
            return next(k for k, c in enumerate(cum) if c * 2 ** 53 > int(u * 2 ** 53) * cum[-1])

        if urn_step:
            urn = P._UrnPairEngine(g, form[0], False)
            assert len(draws) == 4 and urn.sample(SimpleNamespace(random=iter(draws).__next__)) == (v, w)
        elif mode == "multigraph" and v == w:
            # a loop: one draw for the branch, then a class draw with
            # weights f(k) f(k + 1) and a member draw
            assert len(draws) == 3
            assert g.deg[v] == drawn_class([a * b for a, b in zip(f, f[1:])], draws[1])
        elif len(draws) % 4 == (mode == "multigraph"):
            # the accepted pair is the last two (class, member) draws; a
            # simple step that reached the exact endgame draws once more
            assert g.deg[v] == drawn_class(f, draws[-4])
            assert g.deg[w] == drawn_class(f, draws[-2])
        g.add_edge(v, w, mode == "multigraph")
        engine.sync(v, w)


@pytest.mark.parametrize("table, n, m_max, path", [
    # f(d) = d + 1 below degree 32, as in the benchmark: at n = 2000 no
    # degree reaches 31, so the run is the alpha = 1 urn's; and a capped
    # table with a zero entry
    (tuple(range(1, 33)), 2000, 1000, "urn"),
    ((3, 2, 1, 0), 1000, 1400, "batched"),
    # loop-heavy tables: a run of short batches, or none at all
    ((0.5, 3, 1, 7.25), 1000, 3000, "handed over"),
    ((1, 1e3), 500, 400, "handed over"),
    # every vertex saturates at degree 2: all weights vanish at m = 200
    ((1, 1, 0), 200, 300, "handed over"),
    # 0.1 brings a denominator of 2^55: the class masses leave int64
    ((0.1, 1), 1000, 500, "stepped"),
    # m_max on either side of _HANDOVER; affine to K = 1, (1, 2) leaves
    # the urn after one step, and its 63 steps left step
    ((1, 2), 1000, 63, "stepped"),
    ((1, 2), 1000, 64, "urn, stepped"),
    # tables that leave the urn for class batches: (1, 2) and (1, 2, 3),
    # and f(d) = d + 1 to degree 7, whose top degree passes 7
    ((1, 2), 1000, 200, "urn, batched"),
    ((1, 2, 3), 1000, 1500, "urn, batched"),
    (tuple(range(1, 9)), 2000, 1000, "urn, batched"),
    # the benchmark's table at n = 50 passes degree 31 at m = 82, and the
    # loops its top vertex then draws hand the batches over at once
    (tuple(range(1, 33)), 50, 2000, "urn, handed over"),
    # (0.1, 0.2) is affine to K = 1 with alpha = 1, but its class masses
    # leave int64: it steps, the urn's first step too
    ((0.1, 0.2), 1000, 300, "stepped"),
    # f(d) = 3 + 7d is affine, but alpha = 3/7 is no float
    ((3, 10, 17), 1000, 1000, "batched"),
])
def test_bulk_general_f_run_matches_stepping(monkeypatch, table, n, m_max, path):
    # the bulk runner's edges, records, exhaustion and rng state are
    # stepping's own, and a run steps on from a short batch
    batches = _spy_on_batches(monkeypatch)
    built = _spy_on_handovers(monkeypatch)
    urn = []
    urn_endpoints = P._urn_endpoints
    monkeypatch.setattr(P, "_urn_endpoints", lambda *args: urn.append(1) or urn_endpoints(*args))
    rule = P.GeneralF(tuple(float(x) for x in table))
    for cps in ((), (0, m_max // 2, m_max), tuple(range(0, m_max + 1, max(1, m_max // 20)))):
        cfg = P.ProcessConfig(n=n, weight_rule=rule, m_max=m_max, checkpoints=cps)
        seed = f"general-f:{table[:4]}:{n}:{m_max}"
        bulk_rng, step_rng = random.Random(seed), _SteppedRandom(seed)
        bulk = _outcome(P.run_process, cfg, bulk_rng)
        assert bulk == _outcome(P.run_process, cfg, step_rng), cps
        assert bulk_rng.getstate() == step_rng.getstate(), cps
    paths = {"stepped": (False, False, False), "batched": (False, True, False),
             "handed over": (False, True, True), "urn": (True, False, False),
             "urn, batched": (True, True, False), "urn, stepped": (True, False, True),
             "urn, handed over": (True, True, True)}
    assert (bool(urn), bool(batches), bool(built)) == paths[path]
    if table == (1, 1, 0):
        assert bulk[:3] == ("exhausted", "all step weights are zero", 200)


def test_bulk_general_f_run_exhausts_where_stepping_does(monkeypatch):
    # f = (2, 1, 0) saturates every vertex at degree 2; this run reaches its
    # last edge in a batch, and the special step after it finds no weight
    specials = []
    class_slots = P._class_slots

    def spied(sizes, F, n, rng):
        try:
            return class_slots(sizes, F, n, rng)
        except P.ProcessExhausted as exc:
            specials.append(str(exc))
            raise

    monkeypatch.setattr(P, "_class_slots", spied)
    built = _spy_on_handovers(monkeypatch)
    cfg = P.ProcessConfig(n=3000, weight_rule=P.GeneralF((2.0, 1.0, 0.0)), m_max=3100,
                          checkpoints=(1000, 3000, 3100))
    bulk_rng, step_rng = random.Random(13), _SteppedRandom(13)
    bulk = _outcome(P.run_process, cfg, bulk_rng)
    assert specials == ["all step weights are zero"] and not built
    assert bulk[:3] == ("exhausted", "all step weights are zero", 3000)
    assert bulk == _outcome(P.run_process, cfg, step_rng)
    assert bulk_rng.getstate() == step_rng.getstate()


def test_general_f_run_with_zero_start_mass_draws_nothing(monkeypatch):
    # with f(0) = 0 every step weight of the empty graph is zero: the run
    # steps, and ends before any draw, with stepping's message and state
    draws = _spy_on_draws(monkeypatch)
    cfg = P.ProcessConfig(n=300, weight_rule=P.GeneralF((0.0, 1.0, 2.0)), m_max=300,
                          checkpoints=(0, 300))
    bulk_rng, step_rng = random.Random(3), _SteppedRandom(3)
    before = bulk_rng.getstate()
    bulk = _outcome(P.run_process, cfg, bulk_rng)
    assert bulk[:3] == ("exhausted", "all step weights are zero", 0)
    assert bulk == _outcome(P.run_process, cfg, step_rng)
    assert bulk_rng.getstate() == step_rng.getstate() == before
    assert not draws


def test_bulk_general_f_leaves_branch_draws_near_the_loop_mass_to_integers():
    # a branch draw within float round-off of the loop mass is a special
    # step, which _DegreeClassEngine.sample decides in integers: loop iff
    # U S < L 2^53 for the draw U / 2^53 and step weight S
    n, F = 1000, P._scaled((1.0, 2.0))
    T, Q, L = n * F[0], n * F[0] ** 2, n * F[0] * F[1]
    S = T * T - Q + L
    last_loop = -(-L * 2 ** 53 // S) - 1
    for U, loop in ((last_loop, True), (last_loop + 1, False)):
        u = np.tile([0.99, 0.5, 0.25, 0.5, 0.75], (100, 1))
        u[0, 0] = U / 2 ** 53
        s, N, _, _ = P._class_draws(np.array([n]), list(F), u)
        assert s == 0 and N[:, 0].tolist() == [n, 0]
        v, w = P._class_slots([n, 0, 0], list(F), n, SimpleNamespace(random=iter(u[0]).__next__))
        assert (v == w) == loop


def test_bulk_general_f_run_matches_stepping_at_scale(monkeypatch):
    # the benchmark's general-f spec, f(d) = d + 1 below degree 32, at
    # n = 10^5 to m = n / 2: its top degree stays below 31, so it is the
    # alpha = 1 urn's run, draw for draw.  f(d) = 3 + 7d, whose alpha =
    # 3/7 is no float, runs in class batches with no hand-over
    batches = _spy_on_batches(monkeypatch)
    built = _spy_on_handovers(monkeypatch)
    n = 100_000
    for first, step, seed in ((1, 1, "general-f-scale"), (3, 7, "general-f-scale:classes")):
        batches.clear()
        cfg = P.ProcessConfig(n=n, weight_rule=P.GeneralF(tuple(float(first + step * d) for d in range(32))),
                              m_max=n // 2, checkpoints=(n // 4, n // 2))
        bulk_rng, step_rng = random.Random(seed), _SteppedRandom(seed)
        bulk = _outcome(P.run_process, cfg, bulk_rng)
        assert bool(batches) == (step > 1) and not built
        assert bulk == _outcome(P.run_process, cfg, step_rng)
        assert bulk_rng.getstate() == step_rng.getstate()
        if step == 1:
            urn_rng = random.Random(seed)
            assert bulk == P.run_process(dataclasses.replace(cfg, weight_rule=P.LinearAlpha(1.0)), urn_rng)
            assert urn_rng.getstate() == bulk_rng.getstate()


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


def _edge_list(ends):
    """The edges (ends[2i], ends[2i+1]) of an endpoint list or array."""
    ends = list(map(int, ends))
    return list(zip(ends[0::2], ends[1::2]))


def test_rewiring_single_loop_is_invariant():
    ends, deg = [0, 0], [2]
    P.rewiring_step(1, ends, deg, 1.0, random.Random(0))
    assert ends == [0, 0]
    assert deg == [2]


def test_rewiring_empty_graph_rejected():
    with pytest.raises(ValueError):
        P.rewiring_step(3, [], [0, 0, 0], 1.0, random.Random(0))


def test_rewiring_rejects_infinite_alpha():
    # u * inf < inf is false, so an infinite alpha would always copy an
    # endpoint, the opposite of its uniform limit
    ends, deg = [0, 1], [1, 1, 0, 0]
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="alpha"):
        P.rewiring_step(4, ends, deg, math.inf, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("n, ends, field", [
    (3, [0, 1, 2], "ends"), (3, [0, 3], r"ends\[1\]"), (3, [-1, 0], r"ends\[0\]"),
    (3, [], "ends"), (0, [0, 0], "n")], ids=["odd", "above", "below", "no-edges", "no-vertices"])
def test_rewiring_rejects_bad_input_before_any_draw(n, ends, field):
    rng = random.Random(0)
    state = rng.getstate()
    before = list(ends)
    with pytest.raises(ValueError, match=field):
        P.rewiring_step(n, ends, [0] * 3, 1.0, rng)
    with pytest.raises(ValueError, match=field):
        P.rewiring_degree_average(n, ends, 1.0, 10, rng)
    assert ends == before
    assert rng.getstate() == state


def test_rewiring_rejects_a_degree_list_of_the_wrong_length():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="deg"):
        P.rewiring_step(3, [0, 1], [1, 1], 1.0, rng)
    assert rng.getstate() == state


def test_rewiring_transitions_match_oracle_kernel():
    # empirical single-step transition frequencies from each 1-edge state on
    # two vertices against the exact kernel under the current-degree rule
    states, matrix = oracle.rewiring_transition_matrix(2, 1, 1, "current")
    rng = random.Random(21)
    for start in states:
        counts = Counter()
        for _ in range(60_000):
            ends = list(start[0])
            P.rewiring_step(2, ends, np.bincount(ends, minlength=2).tolist(), 1.0, rng)
            counts[oracle.canonical_key(_edge_list(ends))] += 1
        probs = {k: float(v) for k, v in matrix[start].items()}
        res = S.chi_square_counts(counts, probs)
        assert res.pvalue > 1e-3, f"kernel mismatch from {start}"


def test_rewiring_preserves_edge_count_and_degree_sum():
    rng = random.Random(22)
    ends = [x for _ in range(40) for x in (rng.randrange(30), rng.randrange(30))]
    deg = np.bincount(ends, minlength=30).tolist()
    for _ in range(2000):
        P.rewiring_step(30, ends, deg, 0.5, rng)
    assert len(ends) == 80
    assert sum(deg) == 80


def test_rewiring_chain_keeps_degrees_and_edge_count():
    # deg is updated in place, a loop moving 2 at once; on 12 vertices the
    # chain makes and unmakes loops often
    rng = random.Random(7)
    n = 12
    ends = [rng.randrange(n) for _ in range(60)]
    deg = np.bincount(ends, minlength=n).tolist()
    loops = made = unmade = 0
    for _ in range(10_000):
        P.rewiring_step(n, ends, deg, 0.5, rng)
        assert len(ends) == 60
        assert deg == np.bincount(ends, minlength=n).tolist()
        now = sum(v == w for v, w in _edge_list(ends))
        made += now > loops
        unmade += now < loops
        loops = now
    assert made and unmade


def test_rewiring_degree_average_rewires_in_place():
    # the long run steps the same chain as rewiring_step, on the same draws
    star = [x for v in range(1, 11) for x in (0, v)]
    ends, deg = list(star), np.bincount(star, minlength=20).tolist()
    stepped, snapshots = random.Random(5), Counter()
    for step in range(3000):
        P.rewiring_step(20, ends, deg, 1.0, stepped)
        if step in (1500, 2500):
            snapshots.update(deg)
    rng = random.Random(5)
    assert P.rewiring_degree_average(20, star, 1.0, 3000, rng) == snapshots
    assert star == ends
    assert rng.getstate() == stepped.getstate()


# ---------------------------------------------------------------------------
# configuration model and degree samplers
# ---------------------------------------------------------------------------


def test_cm_forced_loop_and_single_edge():
    rng = random.Random(23)
    ends = P.sample_configuration_model([2, 0, 0], rng)
    assert ends.dtype == np.int64
    assert ends.tolist() == [0, 0]
    ends = P.sample_configuration_model([1, 1], rng)
    assert oracle.canonical_key(_edge_list(ends)) == ((0, 1),)


def test_cm_odd_sum_rejected():
    with pytest.raises(ValueError):
        P.sample_configuration_model([2, 1], random.Random(0))


@pytest.mark.parametrize("deg, index", [([-1, 1], 0), ([3, -1], 1)])
def test_cm_rejects_negative_degrees(deg, index):
    with pytest.raises(ValueError, match=rf"deg\[{index}\]"):
        P.sample_configuration_model(deg, random.Random(0))


def test_cm_keeps_the_stream_of_its_stub_list():
    # the stub list is built in numpy, vertex by vertex as before, so the
    # shuffle of the same rng state gives the same matching
    for deg in ([], [0, 0], [2, 0, 0], [3, 1, 0, 2, 2], [5] * 40 + [0, 2]):
        rng, ref = random.Random(f"cm-stubs:{deg}"), random.Random(f"cm-stubs:{deg}")
        stubs = [v for v, d in enumerate(deg) for _ in range(d)]
        ref.shuffle(stubs)
        assert P.sample_configuration_model(deg, rng).tolist() == stubs
        assert rng.getstate() == ref.getstate()


def test_cm_law_matches_enumeration():
    rng = random.Random(24)
    exact = {k: float(v) for k, v in oracle.enumerate_cm((2, 1, 1)).items()}
    counts = Counter()
    for _ in range(100_000):
        ends = P.sample_configuration_model([2, 1, 1], rng)
        counts[oracle.canonical_key(_edge_list(ends))] += 1
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


@pytest.mark.parametrize("n, m", [(1, 5), (3, 2), (50, 63), (50, 64), (1000, 700)])
def test_conditioned_degrees_are_the_urn_run_degree_count(n, m):
    # Dirichlet-multinomial(2m; alpha, ..., alpha) is the degree count of
    # the linear-alpha multigraph run: the stepped run from the same state
    # gives the same degrees and leaves the same state, below and above
    # _HANDOVER
    for alpha in (0.5, 1.0, 1e6):
        seed = f"dm:{n}:{m}:{alpha}"
        rng, step_rng = random.Random(seed), _SteppedRandom(seed)
        degs = P.sample_conditioned_degrees(n, alpha, m, rng)
        ends = P.sample_edges(lin_cfg(n, alpha, "multigraph", m), step_rng)[0]
        assert degs == np.bincount(ends, minlength=n).tolist(), alpha
        assert rng.getstate() == step_rng.getstate(), alpha


def test_conditioned_degrees_large_scale_marginal():
    n = 100_000
    degs = P.sample_conditioned_degrees(n, 1.0, n // 2, random.Random(28))
    assert sum(degs) == n
    hist = S.DegreeHistogram.from_degrees(degs)
    assert S.tv_distance(hist, T.NegBinomial(1.0, 0.5)) < 0.01


@pytest.mark.parametrize("n, m, name", [(3, 1.5, "m"), (3, -1, "m"), (3, True, "m"),
                                         (0, 1, "n"), (-2, 1, "n"), (2.0, 1, "n")])
def test_conditioned_degrees_reject_bad_n_and_m(n, m, name):
    # a fractional m once gave an odd degree sum, and n = 0 failed inside numpy
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        P.sample_conditioned_degrees(n, 1.0, m, random.Random(0))


def test_conditioned_degrees_reject_bad_alpha():
    for alpha in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            P.sample_conditioned_degrees(3, alpha, 2, random.Random(0))
