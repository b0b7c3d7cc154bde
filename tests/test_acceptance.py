"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its runtime budget.

Statistical criteria run on fixed seeds, so every run is reproducible; the
stated tolerances were checked to hold with wide margins.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from pagiant import cli, oracle, processes as P, stats as S, theory as T
from pagiant.cli import replicate_seed, run_replicate

INF = math.inf


class budget:
    """Context manager asserting the criterion's runtime budget."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, \
                f"runtime {self.elapsed:.1f}s exceeded budget {self.limit}s"
        return False


def announce(num, name, detail):
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({detail})")


def lin_cfg(n, alpha, mode, m_max, checkpoints, seed):
    return P.ProcessConfig(n=n, weight_rule=P.LinearAlpha(alpha), mode=mode,
                           m_max=m_max, checkpoints=tuple(checkpoints), seed=seed)


def mean(xs):
    return sum(xs) / len(xs)


def test_c01_conditional_equivalence_exact():
    with budget(10) as b:
        checked = 0
        for n in (2, 3):
            for m in (1, 2):
                for alpha in (F(1, 2), F(1), F(2)):
                    report = oracle.verify_conditional_equivalence(n, m, alpha)
                    assert report.ok, f"equivalence failed at n={n} m={m} alpha={alpha}"
                    checked += len(report.cases)
    announce(1, "conditional equivalence", f"{checked} degree sequences exact, {b.elapsed:.1f}s")


def test_c02_degree_law_single_run():
    with budget(5) as b:
        n = 100_000
        m = n // 2
        cfg = lin_cfg(n, 1.0, "multigraph", m, (m,), seed=202)
        traj = run_replicate(cfg, cfg.seed, 0)
        hist = S.DegreeHistogram.from_counts(dict(traj.records[-1].degree_hist))
        tv = S.tv_distance(hist, T.NegBinomial(1.0, 0.5))
        mu1 = S.mu_hat_k(hist, 1)
        mu2 = S.mu_hat_k(hist, 2)
        # E Y^2 = E Y(Y-1) + E Y = 2 + 1 at this density
        assert tv < 0.01, f"TV = {tv}"
        assert mu1 == 1.0
        assert abs(mu2 - 3.0) < 0.05
    announce(2, "degree law", f"TV={tv:.4f}, mu1={mu1}, |mu2-3|={abs(mu2-3):.4f}, {b.elapsed:.1f}s")


def test_c03_giant_fraction_both_modes():
    with budget(120) as b:
        n = 100_000
        m = int(round(1.5 * T.m_crit(1.0, n)))
        target = T.rho(1.0, 0.5)
        details = []
        for mode in ("simple", "multigraph"):
            cfg = lin_cfg(n, 1.0, mode, m, (m,), seed=303)
            l1s, ratios = [], []
            for rep in range(30):
                rec = run_replicate(cfg, cfg.seed, rep).records[-1]
                l1s.append(rec.l1 / n)
                ratios.append(rec.l2 / rec.l1)
            assert abs(mean(l1s) - target) < 0.02, f"{mode}: mean L1/n = {mean(l1s)}"
            assert mean(ratios) < 0.05, f"{mode}: mean L2/L1 = {mean(ratios)}"
            details.append(f"{mode} L1/n={mean(l1s):.4f} L2/L1={mean(ratios):.4f}")
    announce(3, "giant fraction", f"target {target:.4f}; " + "; ".join(details) + f", {b.elapsed:.0f}s")


def test_c04_linear_slope_solver_and_simulation():
    with budget(300) as b:
        for a in (0.5, 1.0, 10.0, INF):
            slope = T.rho_slope(a)
            for eps in (1e-3, 1e-2):
                dev = abs(T.rho(a, eps) / eps - slope)
                assert dev < 5 * eps, f"a={a}, eps={eps}: dev={dev}"
        n = 1_000_000
        eps = 0.1
        m = int(round((1 + eps) * T.m_crit(1.0, n)))
        cfg = lin_cfg(n, 1.0, "multigraph", m, (m,), seed=404)
        vals = [run_replicate(cfg, cfg.seed, rep).records[-1].l1 / (eps * n)
                for rep in range(10)]
        assert 0.55 < mean(vals) < 0.80, f"mean L1/(eps n) = {mean(vals)}"
    announce(4, "linear slope", f"solver slopes ok; sim L1/(eps n)={mean(vals):.4f} in [0.55,0.80], "
                                f"{b.elapsed:.0f}s; r=3 sub-case tracked separately")


@pytest.mark.xfail(
    strict=True,
    reason="for the r=3 bounded rule the fixed point is xi = 1 - 4 eps/(1+eps)^2 "
           "exactly, giving rho = 6 eps - 18 eps^2 + O(eps^3), so "
           "|rho/eps - slope| = 18 eps + O(eps^2) exceeds 5 eps at any small eps; "
           "the 5-eps gate is unattainable for this shape",
)
def test_c04_linear_slope_negative_shape_verbatim():
    slope = T.rho_slope(-3)
    for eps in (1e-3, 1e-2):
        dev = abs(T.rho(-3, eps) / eps - slope)
        assert dev < 5 * eps, f"a=-3, eps={eps}: dev={dev}"


def test_c05_uniform_limit_giant():
    with budget(120) as b:
        # independent root of 1 - rho = exp(-2 rho)
        lo, hi = 1e-9, 1 - 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1 - mid - math.exp(-2 * mid) > 0:
                lo = mid
            else:
                hi = mid
        target = 0.5 * (lo + hi)
        assert abs(target - 0.797) < 5e-4
        n = 100_000
        cfg = lin_cfg(n, 1e6, "simple", n, (n,), seed=505)
        vals = [run_replicate(cfg, cfg.seed, rep).records[-1].l1 / n for rep in range(30)]
        assert abs(mean(vals) - target) < 0.02, f"mean L1/n = {mean(vals)}"
    announce(5, "uniform limit", f"mean L1/n={mean(vals):.4f} vs {target:.4f}, {b.elapsed:.0f}s")


def test_c06_pittel_compatibility_grid():
    with budget(1) as b:
        worst = 0.0
        points = 0
        for a in (0.5, 1.0, 2.0, 5.0, 10.0):
            for eps in (0.1, 0.3, 0.5, 1.0):
                c_a = a / (a + 1)
                c = (1 + eps) * c_a
                cstar = T.pittel_cstar(a, c)
                resid = abs(1 - ((a + cstar) / (a + c)) ** a - T.rho(a, eps))
                worst = max(worst, resid)
                points += 1
        assert points == 20
        assert worst < 1e-8, f"max residual {worst}"
    announce(6, "Pittel compatibility", f"20 points, max residual {worst:.2e}, {b.elapsed:.2f}s")


def test_c07_kinetic_time_compatibility():
    with budget(1) as b:
        worst_ratio = 0.0
        for eps in (1e-3, 1e-2, 1e-1):
            t = T.bnk_map(4.0, 1 + eps)  # m = (1+eps) n/4 at n = 4
            dev = abs(T.bnk_giant(t) - T.rho(1.0, eps))
            assert dev < 10 * eps ** 2, f"eps={eps}: dev={dev}"
            worst_ratio = max(worst_ratio, dev / eps ** 2)
    announce(7, "kinetic-time compatibility", f"max dev/eps^2 = {worst_ratio:.2f} < 10, {b.elapsed:.2f}s")


def test_c08_susceptibility_trajectory():
    with budget(180) as b:
        n = 1_000_000
        ts = (0.05, 0.10, 0.15, 0.20)
        cps = tuple(int(t * n) for t in ts)
        cfg = lin_cfg(n, 1.0, "multigraph", cps[-1], cps, seed=808)
        sums = [0.0] * len(ts)
        reps = 10
        for rep in range(reps):
            traj = run_replicate(cfg, cfg.seed, rep)
            for i, rec in enumerate(traj.records):
                sums[i] += rec.s / reps
        rels = []
        for i, t in enumerate(ts):
            closed = T.susceptibility_closed(1.0, t)
            rel = abs(sums[i] - closed) / closed
            assert rel < 0.10, f"t={t}: S={sums[i]} vs {closed}"
            rels.append(rel)
            # pointwise residual of the closed form in the mean-field equation
            h = 1e-6
            num = (T.susceptibility_closed(1.0, t + h) - T.susceptibility_closed(1.0, t - h)) / (2 * h)
            resid = abs(num - T.susceptibility_ode_rhs(1.0, t, closed))
            assert resid < 1e-6, f"t={t}: residual {resid}"
    announce(8, "susceptibility", f"max rel dev {max(rels):.4f} < 0.10, {b.elapsed:.0f}s")


def test_c09_bounded_degree_rule():
    with budget(60) as b:
        n = 100_000
        r = 3
        m_stop = r * n // 2
        m_star = int(round(1.2 * T.m_crit(-3, n)))
        target = T.rho(-3, 0.2)
        cfg = P.ProcessConfig(n=n, weight_rule=P.NegativeInteger(r), mode="simple",
                              m_max=m_stop, checkpoints=(m_star,), seed=909)
        l1s, reached = [], []
        for rep in range(10):
            traj = run_replicate(cfg, cfg.seed, rep)
            reached.append(traj.m_reached)
            rec = traj.records[-1]
            assert max(d for d, _ in rec.degree_hist) <= r
            l1s.append(rec.l1 / n)
        assert all(m >= m_stop - 50 for m in reached), f"m_reached = {reached}"
        assert abs(mean(l1s) - target) < 0.02, f"mean L1/n = {mean(l1s)} vs {target}"
    announce(9, "bounded-degree rule", f"min m_reached={min(reached)} (stop {m_stop}), "
                                       f"L1/n={mean(l1s):.4f} vs {target:.4f}, {b.elapsed:.0f}s")


def test_c10_rewiring_stationarity():
    with budget(60) as b:
        for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for alpha in (F(1, 2), F(1), F(2)):
                assert oracle.verify_rewiring_stationarity(n, m, alpha, "current").ok
        star = [x for v in range(1, 101) for x in (0, v)]
        rng = random.Random(replicate_seed(1010, 0))
        acc = P.rewiring_degree_average(200, star, 1.0, 1_000_000, rng)
        hist = S.DegreeHistogram.from_counts(acc)
        p_n = T.p_edge(1.0, 200, 100)
        tv = S.tv_distance(hist, T.NegBinomial(1.0, p_n))
        assert tv < 0.05, f"TV = {tv}"
    announce(10, "rewiring stationarity", f"exact pi P = pi; star-start TV={tv:.4f} < 0.05, {b.elapsed:.0f}s")


def test_c11_kcore_threshold():
    with budget(120) as b:
        n = 100_000
        c3 = T.kcore_threshold(1.0, 3)
        fracs = {}
        for factor in (1.2, 0.8):
            m = int(round(factor * c3 * n))
            cfg = lin_cfg(n, 1.0, "multigraph", m, (m,), seed=1111)
            vals = []
            for rep in range(10):
                rng = random.Random(replicate_seed(cfg.seed + int(10 * factor), rep))
                ends, _, _ = P.sample_edges(cfg, rng)
                vals.append(S.kcore_census(n, ends, 3) / n)
            fracs[factor] = mean(vals)
        assert fracs[1.2] > 0.01, f"supercritical core fraction {fracs[1.2]}"
        assert fracs[0.8] < 1e-3, f"subcritical core fraction {fracs[0.8]}"
    announce(11, "k-core threshold", f"c_3={c3:.4f}; core frac {fracs[1.2]:.3f} above, "
                                     f"{fracs[0.8]:.2e} below, {b.elapsed:.0f}s")


def test_c12_byte_identical_reruns(tmp_path):
    with budget(60) as b:
        spec = {
            "n": 2000,
            "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
            "mode": "multigraph",
            "m_max": 750,
            "checkpoints": [0, 500, 750],
            "seed": 1212,
            "replicates": 5,
            "outputs": {"trajectory_csv": "traj.csv", "degree_csv": "deg.csv",
                        "summary_json": "summary.json"},
            "comparison": {"eps": 0.5},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        outputs = []
        for jobs, sub in (("1", "a"), ("2", "b"), ("1", "c")):
            assert cli.main(["simulate", "--spec", str(spec_path),
                             "--out", str(tmp_path / sub), "--jobs", jobs]) == 0
            outputs.append({name: (tmp_path / sub / name).read_bytes()
                            for name in ("traj.csv", "deg.csv", "summary.json")})
        assert outputs[0] == outputs[1] == outputs[2]
    announce(12, "determinism", f"3 runs byte-identical across --jobs, {b.elapsed:.1f}s")
