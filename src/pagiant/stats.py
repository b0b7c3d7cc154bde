"""Empirical measurement: degree histograms, fit tests, k-core census,
Monte Carlo aggregation.

The p-value of every chi-square test comes from chi_square_tail, the
chi-square upper tail written with math alone, so pagiant needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .graph_core import MultiGraph
from .processes import Trajectory, _degree_pairs
from .theory import DegreeModel

_POOL_MIN_EXPECTED = 5.0
_Z_95 = 1.959963984540054
_TAIL_EPS = 2.0 ** -53
_TAIL_TINY = 1e-300


@dataclass
class DegreeHistogram:
    counts: dict[int, int]
    n: int

    @classmethod
    def from_degrees(cls, degrees: Sequence[int]) -> "DegreeHistogram":
        return cls(dict(_degree_pairs(degrees)), len(degrees))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "DegreeHistogram":
        clean = {int(k): int(c) for k, c in counts.items() if c}
        return cls(dict(sorted(clean.items())), sum(clean.values()))

    def max_degree(self) -> int:
        return max(self.counts) if self.counts else 0


def pi_k(h: DegreeHistogram, k: int) -> float:
    """Fraction of vertices with degree exactly k."""
    return h.counts.get(k, 0) / h.n


def mu_hat_k(h: DegreeHistogram, k: int) -> float:
    """k-th empirical moment of the degree of a uniform vertex."""
    return sum(c * d ** k for d, c in h.counts.items()) / h.n


def breve_mu(h: DegreeHistogram) -> int:
    """Sum of d(d-2) over vertices (an integer; zero exactly at criticality
    in expectation)."""
    return sum(c * d * (d - 2) for d, c in h.counts.items())


def tv_distance(h: DegreeHistogram, model: DegreeModel) -> float:
    """Total variation between the empirical degree law and the model,
    with all model mass above the observed maximum pooled into one bucket."""
    kmax = h.max_degree()
    core = 0.0
    cdf = 0.0
    for k in range(kmax + 1):
        p = model.pmf(k)
        cdf += p
        core += abs(h.counts.get(k, 0) / h.n - p)
    tail = max(0.0, 1.0 - cdf)
    return 0.5 * (core + tail)


def _pooled_cells(observed: Sequence[float], expected: Sequence[float]):
    """Pool trailing cells until every expected count reaches the threshold."""
    obs: list[float] = []
    exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= _POOL_MIN_EXPECTED:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp:
            obs[-1] += acc_o
            exp[-1] += acc_e
        else:
            obs.append(acc_o)
            exp.append(acc_e)
    return obs, exp


class ChiSquareResult(NamedTuple):
    stat: float
    dof: int
    pvalue: float


def chi_square(h: DegreeHistogram, model: DegreeModel) -> ChiSquareResult:
    """Pearson chi-square of the histogram against the model law, cells with
    expected count below 5 pooled, one extra cell for the upper tail."""
    kmax = h.max_degree()
    observed = [float(h.counts.get(k, 0)) for k in range(kmax + 1)]
    expected = [h.n * model.pmf(k) for k in range(kmax + 1)]
    tail = h.n - sum(expected)
    observed.append(0.0)
    expected.append(max(tail, 0.0))
    obs, exp = _pooled_cells(observed, expected)
    if len(obs) < 2:
        raise ValueError("chi-square needs at least two cells after pooling")
    return _chi_square_from_cells(obs, exp)


def chi_square_counts(observed: Mapping, probs: Mapping) -> ChiSquareResult:
    """Chi-square of categorical counts against exact category probabilities;
    an observed outcome of probability 0, listed or not, gives p = 0."""
    total = sum(observed.values())
    keys = sorted(probs, key=repr)
    obs = [float(observed.get(k, 0)) for k in keys]
    exp = [total * float(probs[k]) for k in keys]
    obs, exp = _pooled_cells(obs, exp)
    if len(obs) < 2:
        raise ValueError("chi-square needs at least two cells after pooling")
    if any(c and not probs.get(k) for k, c in observed.items()):
        return ChiSquareResult(math.inf, len(obs) - 1, 0.0)
    return _chi_square_from_cells(obs, exp)


def _chi_square_from_cells(obs: Sequence[float], exp: Sequence[float]) -> ChiSquareResult:
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    dof = len(obs) - 1
    return ChiSquareResult(stat, dof, chi_square_tail(dof, stat))


def chi_square_tail(dof: float, x: float) -> float:
    """P(X > x) for X chi-square with dof >= 1 degrees of freedom, the
    regularized upper incomplete gamma Q(dof/2, x/2).

    Below x/2 = dof/2 + 1 it is one minus the series of the lower
    incomplete gamma, above it the continued fraction of Q (modified
    Lentz), each summed to double precision.  Like scipy.special.chdtrc it
    is 1 at x = 0, 0 at x = inf and nan at a nan or negative x, so a nan
    statistic fails a test instead of passing it.
    """
    if not dof >= 1:
        raise ValueError(f"chi-square tail needs dof >= 1, got {dof}")
    a, y = 0.5 * dof, 0.5 * x
    if not y >= 0:
        return math.nan
    if y == 0:
        return 1.0
    if y == math.inf:
        return 0.0
    # y^a e^-y / Gamma(a); at most about sqrt(a), so it never overflows
    front = math.exp(a * math.log(y) - y - math.lgamma(a))
    # term k of the series is below 2^-53 of its sum by k = 100 + 9 sqrt(a);
    # the fraction stopped within 0.7 of that in a scan of dof 1 to 2e6
    steps = 100 + int(9 * math.sqrt(a))
    if y < a + 1:
        term = total = 1.0 / a
        for k in range(1, steps):
            term *= y / (a + k)
            total += term
            if term <= total * _TAIL_EPS:
                return 1.0 - front * total
    else:
        b = y + 1.0 - a
        c = 1.0 / _TAIL_TINY
        d = 1.0 / b
        h = d
        for k in range(1, steps):
            an = k * (a - k)
            b += 2.0
            d = an * d + b
            if abs(d) < _TAIL_TINY:
                d = _TAIL_TINY
            c = b + an / c
            if abs(c) < _TAIL_TINY:
                c = _TAIL_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) <= _TAIL_EPS:
                return front * h
    raise ArithmeticError(f"chi-square tail did not converge at dof = {dof}, x = {x}")


def kcore_census(g: MultiGraph, k: int) -> int:
    """Size of the k-core, peeled in rounds: each round drops every kept
    vertex with fewer than k edge ends on the edges among the kept ones,
    until none drops.  A loop adds 2 to its vertex's own degree and never
    propagates a removal."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = g.n
    ends = np.asarray(g.ends, np.int64)
    v, w = ends[0::2], ends[1::2]
    keep = np.ones(n, bool)
    while True:
        drop = keep & (np.bincount(v, minlength=n) + np.bincount(w, minlength=n) < k)
        if not drop.any():
            return int(np.count_nonzero(keep))
        keep &= ~drop
        live = keep[v] & keep[w]
        v, w = v[live], w[live]


class McStat(NamedTuple):
    mean: float
    stderr: float
    count: int
    ci_low: float
    ci_high: float


def _mc_stat(values: Sequence[float]) -> McStat:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size > 1:
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))
    else:
        stderr = 0.0
    return McStat(mean, stderr, int(arr.size), mean - _Z_95 * stderr, mean + _Z_95 * stderr)


@dataclass
class McSummary:
    """Per-checkpoint normal-theory summaries over replicates."""

    checkpoints: list[int]
    stats: dict[str, list[McStat]]

    def stat_at(self, name: str, m: int) -> McStat:
        return self.stats[name][self.checkpoints.index(m)]

    def to_json_dict(self) -> dict:
        return {
            "checkpoints": self.checkpoints,
            "stats": {
                name: [
                    {"mean": s.mean, "stderr": s.stderr, "count": s.count,
                     "ci_low": s.ci_low, "ci_high": s.ci_high}
                    for s in series
                ]
                for name, series in sorted(self.stats.items())
            },
        }


def aggregate(trajectories: Sequence[Trajectory], n: int) -> McSummary:
    """Summarize replicate trajectories checkpoint by checkpoint.

    All replicates must share one checkpoint schedule; L1, L2 are reported
    as fractions of n, and pi_k is the fraction of vertices of degree k
    for k = 0, ..., 5.
    """
    if len(trajectories) < 2:
        raise ValueError("aggregation needs at least 2 replicates")
    schedule = [rec.m for rec in trajectories[0].records]
    for t in trajectories[1:]:
        if [rec.m for rec in t.records] != schedule:
            raise ValueError("replicates have mismatched checkpoint schedules")
    names = ["L1_over_n", "L2_over_n", "S"] + [f"pi_{k}" for k in range(6)]
    stats: dict[str, list[McStat]] = {name: [] for name in names}
    for ci in range(len(schedule)):
        recs = [t.records[ci] for t in trajectories]
        stats["L1_over_n"].append(_mc_stat([r.l1 / n for r in recs]))
        stats["L2_over_n"].append(_mc_stat([r.l2 / n for r in recs]))
        stats["S"].append(_mc_stat([r.s for r in recs]))
        for k in range(6):
            stats[f"pi_{k}"].append(_mc_stat([dict(r.degree_hist).get(k, 0) / n for r in recs]))
    return McSummary(schedule, stats)
