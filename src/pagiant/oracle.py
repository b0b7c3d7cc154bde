"""Exact reference distributions on tiny instances, in rational arithmetic.

Everything here enumerates rather than samples: process laws are expanded
step by step from the one-step conditional probabilities, the stub-matching
model is enumerated over all stub orderings, and the rewiring chain gets a
full transition matrix.  All probabilities are Fractions; no floats enter,
so equality assertions are exact.  Bounds are deliberately tiny.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from typing import NamedTuple

GraphKey = tuple[tuple[int, int], ...]

_MAX_PROCESS_N = 4
_MAX_PROCESS_M = 3
_MAX_CM_STUBS = 8


def canonical_key(edges) -> GraphKey:
    """Order-invariant multigraph encoding: sorted multiset of sorted pairs."""
    return tuple(sorted((v, w) if v <= w else (w, v) for v, w in edges))


def degrees_of(key: GraphKey, n: int) -> tuple[int, ...]:
    deg = [0] * n
    for v, w in key:
        deg[v] += 1
        deg[w] += 1
    return tuple(deg)


def enumerate_process(n: int, m: int, alpha=None, mode: str = "multigraph", *,
                      table=None) -> dict[GraphKey, Fraction]:
    """Exact outcome distribution of the m-step attachment process.

    Vertex weights are f(d_v), from the table f(0), f(1), ... extended
    with its last entry, as GeneralF reads it; each entry becomes its exact
    Fraction (a float through as_integer_ratio).  Given alpha instead, f(d)
    is d + alpha for alpha > 0, and r - d (0 from r on) for an integer
    alpha = -r <= -3, the r-stub rule.  A step takes a loop at v with
    weight f(d_v) f(d_v + 1) (multigraph mode only) and a pair v != w with
    weight 2 f(d_v) f(d_w) (in simple mode, only a pair not yet joined),
    normalised by the sum of the terms.  Outcomes of probability 0 are
    left out; a state with no positive term raises.
    """
    if n > _MAX_PROCESS_N or m > _MAX_PROCESS_M or n < 1 or m < 0:
        raise ValueError(f"instance out of oracle bounds: n={n}, m={m}")
    if mode not in ("multigraph", "simple"):
        raise ValueError(f"unknown mode: {mode}")
    if mode == "simple" and m > n * (n - 1) // 2:
        raise ValueError(f"a simple graph on {n} vertices cannot reach {m} edges")
    if (alpha is None) == (table is None):
        raise ValueError("give one of alpha and table")
    if table is None:
        a = Fraction(alpha)
        if not (a > 0 or (a.denominator == 1 and a <= -3)):
            raise ValueError("alpha must be positive or an integer <= -3")
        # no degree passes 2m, and a loop reads f(d + 1)
        f = [a + k for k in range(2 * m + 2)] if a > 0 else [-a - k for k in range(1 - int(a))]
    else:
        f = [Fraction(x) for x in table]
        if not f or min(f) < 0:
            raise ValueError("table must be nonempty and nonnegative")
    top = len(f) - 1
    multigraph = mode == "multigraph"
    dist: dict[GraphKey, Fraction] = {(): Fraction(1)}
    for i in range(m):
        nxt: dict[GraphKey, Fraction] = defaultdict(Fraction)
        for key, pr in dist.items():
            deg = degrees_of(key, n)
            wts = [f[min(d, top)] for d in deg]
            present = set(key)
            terms = []
            for v in range(n):
                if multigraph:
                    terms.append(((v, v), wts[v] * f[min(deg[v] + 1, top)]))
                for w in range(v + 1, n):
                    if multigraph or (v, w) not in present:
                        terms.append(((v, w), 2 * wts[v] * wts[w]))
            norm = sum(t for _, t in terms)
            if norm == 0:
                raise ValueError(f"no positive-weight addable pair at step {i + 1} from {key}")
            scale = pr / norm
            for edge, t in terms:
                if t:
                    nxt[canonical_key(key + (edge,))] += scale * t
        dist = dict(nxt)
    return dist


def enumerate_conditioned_degrees(n: int, m: int, alpha) -> dict[tuple[int, ...], Fraction]:
    """Exact law of iid NB(alpha, p) degrees conditioned on total 2m.

    P(x) is proportional to prod_i (alpha)_{x_i} / x_i!, for any p; this is
    also the degree marginal of the m-step multigraph process.
    """
    if n > _MAX_PROCESS_N or m > _MAX_PROCESS_M or n < 1 or m < 0:
        raise ValueError(f"instance out of oracle bounds: n={n}, m={m}")
    a = Fraction(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    # term[k] = (a)_k / k!
    term = [Fraction(1)]
    for k in range(2 * m):
        term.append(term[-1] * (a + k) / (k + 1))
    weights = {x: math.prod(term[k] for k in x)
               for x in product(range(2 * m + 1), repeat=n) if sum(x) == 2 * m}
    total = sum(weights.values())
    return {x: w / total for x, w in weights.items()}


def enumerate_cm(deg) -> dict[GraphKey, Fraction]:
    """Exact configuration-model law: uniform stub sequence, paired consecutively."""
    total_deg = sum(deg)
    if total_deg % 2:
        raise ValueError("degree sum must be even")
    if total_deg > _MAX_CM_STUBS:
        raise ValueError(f"too many stubs for enumeration: {total_deg}")
    stubs = [v for v, d in enumerate(deg) for _ in range(d)]
    counts: dict[GraphKey, int] = defaultdict(int)
    total = 0
    for perm in permutations(range(len(stubs))):
        seq = [stubs[j] for j in perm]
        counts[canonical_key(zip(seq[0::2], seq[1::2]))] += 1
        total += 1
    if total == 0:
        return {(): Fraction(1)}
    return {k: Fraction(c, total) for k, c in counts.items()}


class EquivalenceCase(NamedTuple):
    degrees: tuple[int, ...]
    ok: bool


class EquivalenceReport(NamedTuple):
    ok: bool
    cases: tuple[EquivalenceCase, ...]


def verify_conditional_equivalence(n: int, m: int, alpha) -> EquivalenceReport:
    """Check that conditioning the multigraph process on each achievable
    degree sequence reproduces the stub-matching law exactly."""
    if n > 3 or m > 2:
        raise ValueError("equivalence check is limited to n <= 3, m <= 2")
    dist = enumerate_process(n, m, alpha, "multigraph")
    by_deg: dict[tuple[int, ...], dict[GraphKey, Fraction]] = defaultdict(dict)
    for key, pr in dist.items():
        by_deg[degrees_of(key, n)][key] = pr
    cases = []
    for deg, sub in sorted(by_deg.items()):
        mass = sum(sub.values())
        conditional = {k: p / mass for k, p in sub.items()}
        cases.append(EquivalenceCase(deg, conditional == enumerate_cm(deg)))
    return EquivalenceReport(all(c.ok for c in cases), tuple(cases))


def _all_states(n: int, m: int) -> list[GraphKey]:
    pairs = [(v, w) for v in range(n) for w in range(v, n)]
    return [tuple(sorted(c)) for c in combinations_with_replacement(pairs, m)]


def rewiring_transition_matrix(n: int, m: int, alpha, convention: str = "current"):
    """Exact one-step kernel of the edge-rewiring chain over all m-edge states.

    convention "current": the replacement endpoint w is drawn with weight
    d_w + alpha taken on the graph as it stands (the removed edge still
    counted); "residual": weights are taken after deleting the chosen edge.
    """
    if n > 2 or m > 2:
        raise ValueError("rewiring matrix is limited to n <= 2, m <= 2")
    if convention not in ("current", "residual"):
        raise ValueError(f"unknown convention: {convention}")
    a = Fraction(alpha)
    an = a * n
    states = _all_states(n, m)
    matrix: dict[GraphKey, dict[GraphKey, Fraction]] = {}
    for s in states:
        deg = degrees_of(s, n)
        row: dict[GraphKey, Fraction] = defaultdict(Fraction)
        for idx, (x, y) in enumerate(s):
            rest = s[:idx] + s[idx + 1:]
            if convention == "current":
                wdeg = deg
                denom = 2 * m + an
            else:
                wdeg = list(deg)
                wdeg[x] -= 1
                wdeg[y] -= 1
                denom = 2 * (m - 1) + an
            for v in (x, y):
                p_pick = Fraction(1, 2 * m)
                for w in range(n):
                    t = canonical_key(rest + ((v, w),))
                    row[t] += p_pick * (wdeg[w] + a) / denom
        matrix[s] = dict(row)
    return states, matrix


class StationarityReport(NamedTuple):
    ok: bool
    convention: str
    max_deviation: Fraction
    n_states: int


def verify_rewiring_stationarity(n: int, m: int, alpha, convention: str = "current") -> StationarityReport:
    """Check pi P = pi exactly, with pi the m-edge multigraph process law."""
    pi = enumerate_process(n, m, alpha, "multigraph")
    states, matrix = rewiring_transition_matrix(n, m, alpha, convention)
    out: dict[GraphKey, Fraction] = defaultdict(Fraction)
    for s in states:
        ps = pi.get(s, Fraction(0))
        if ps == 0:
            continue
        for t, pr in matrix[s].items():
            out[t] += ps * pr
    max_dev = Fraction(0)
    for s in states:
        dev = abs(out.get(s, Fraction(0)) - pi.get(s, Fraction(0)))
        if dev > max_dev:
            max_dev = dev
    return StationarityReport(max_dev == 0, convention, max_dev, len(states))
