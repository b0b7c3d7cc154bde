"""Empirical measurement: degree histograms, fit tests, k-core census,
Monte Carlo aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import chdtrc

from .graph_core import MultiGraph
from .processes import Trajectory, _degree_pairs
from .theory import DegreeModel

_POOL_MIN_EXPECTED = 5.0
_Z_95 = 1.959963984540054


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
    # chdtrc is the chi-square upper tail; scipy.special imports much
    # faster than scipy.stats
    return ChiSquareResult(stat, dof, float(chdtrc(dof, stat)))


def kcore_census(g: MultiGraph, k: int) -> int:
    """Size of the k-core by iterative peeling; loops add 2 to a vertex's
    own in-core degree and never propagate removals."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = g.n
    if k == 0:
        return n
    deg = list(g.deg)
    adj: list[list[int]] = [[] for _ in range(n)]
    ends = g.ends
    for i in range(0, len(ends), 2):
        v, w = ends[i], ends[i + 1]
        if v != w:
            adj[v].append(w)
            adj[w].append(v)
    alive = [True] * n
    stack = [v for v in range(n) if deg[v] < k]
    for v in stack:
        alive[v] = False
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] < k:
                    alive[w] = False
                    stack.append(w)
    return sum(alive)


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


def aggregate(trajectories: Sequence[Trajectory], n: int,
              pi_degrees: Iterable[int] = (0, 1, 2, 3, 4, 5)) -> McSummary:
    """Summarize replicate trajectories checkpoint by checkpoint.

    All replicates must share one checkpoint schedule; L1, L2 are reported
    as fractions of n.
    """
    if len(trajectories) < 2:
        raise ValueError("aggregation needs at least 2 replicates")
    schedule = [rec.m for rec in trajectories[0].records]
    for t in trajectories[1:]:
        if [rec.m for rec in t.records] != schedule:
            raise ValueError("replicates have mismatched checkpoint schedules")
    pi_degrees = list(pi_degrees)
    names = ["L1_over_n", "L2_over_n", "S"] + [f"pi_{k}" for k in pi_degrees]
    stats: dict[str, list[McStat]] = {name: [] for name in names}
    for ci in range(len(schedule)):
        recs = [t.records[ci] for t in trajectories]
        stats["L1_over_n"].append(_mc_stat([r.l1 / n for r in recs]))
        stats["L2_over_n"].append(_mc_stat([r.l2 / n for r in recs]))
        stats["S"].append(_mc_stat([r.s for r in recs]))
        for k in pi_degrees:
            vals = []
            for r in recs:
                count = dict(r.degree_hist).get(k, 0)
                vals.append(count / n)
            stats[f"pi_{k}"].append(_mc_stat(vals))
    return McSummary(schedule, stats)
