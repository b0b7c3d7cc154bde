"""Random (multi)graph process generators and degree-sequence samplers.

Three step engines cover the weight rules:

  * LinearAlpha -- the exchangeable-draw trick: with probability
    alpha*n/(i + alpha*n) the next endpoint is uniform on [n], otherwise it
    is a uniform element of the endpoint history, which realises
    P(v) = (d_v(i) + alpha)/(i + alpha*n) in O(1) amortized time.
  * NegativeInteger(r) -- the free half-edge formulation: every vertex owns
    r stubs, a step pairs two uniform distinct stubs (multigraph), or
    rejects loops/duplicates (simple), with an exact endgame enumeration
    once few stubs remain.
  * GeneralF -- one member list per occupied degree class: an endpoint is
    a class k drawn with weight N_k f(k), then a uniform member, and the
    multigraph step law is sampled exactly by branching between the loop
    mass sum N_k f(k) f(k+1) and the non-loop mass.

Simple mode always works by rejection of a proportional proposal, so the
accepted edge has exactly the conditional law on addable pairs.

The degree-sequence samplers are exact too: sample_conditioned_degrees
draws iid NB(alpha, p) conditioned on its sum as the Dirichlet-multinomial
it equals, with no rejection.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .graph_core import ComponentTracker, MultiGraph

_REJECTION_CAP = 10 ** 6
_STUB_EXACT_THRESHOLD = 64


class ProcessExhausted(RuntimeError):
    """No addable edge remains (or the rejection budget ran out).

    When raised out of run_process the partial result is attached as
    .trajectory and the step count reached as .m_reached.
    """

    def __init__(self, message: str, m_reached: int | None = None, trajectory=None):
        super().__init__(message)
        self.m_reached = m_reached
        self.trajectory = trajectory


# ---------------------------------------------------------------------------
# weight rules and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearAlpha:
    alpha: float

    def validate(self):
        if not self.alpha > 0 or self.alpha == math.inf:
            raise ValueError(f"weight_rule.alpha: must be finite and positive, got {self.alpha}")


@dataclass(frozen=True)
class NegativeInteger:
    r: int

    def validate(self):
        if self.r < 3:
            raise ValueError(f"weight_rule.r: must be an integer >= 3, got {self.r}")


@dataclass(frozen=True)
class GeneralF:
    """Attachment function f(degree) -> weight, as a table or a callable.

    A table extends past its last entry with the last value, which covers
    the bounded-degree rules (the value there is usually 0 or a constant).
    """

    table: tuple[float, ...] | None = None
    fn: Callable[[int], float] | None = None

    def validate(self):
        if (self.table is None) == (self.fn is None):
            raise ValueError("weight_rule: give exactly one of table or fn")
        if self.table is not None:
            if len(self.table) == 0:
                raise ValueError("weight_rule.table: must be nonempty")
            if any(x < 0 for x in self.table):
                raise ValueError("weight_rule.table: weights must be nonnegative")

    def weight(self, k: int) -> float:
        if self.fn is not None:
            w = float(self.fn(k))
        else:
            t = self.table
            w = float(t[k]) if k < len(t) else float(t[-1])
        if w < 0:
            raise ValueError(f"attachment weight f({k}) = {w} is negative")
        return w


WeightRule = LinearAlpha | NegativeInteger | GeneralF


@dataclass(frozen=True)
class ProcessConfig:
    n: int
    weight_rule: WeightRule
    mode: str = "multigraph"
    m_max: int = 0
    checkpoints: tuple[int, ...] = ()
    seed: int = 0

    def validate(self):
        if self.n < 1:
            raise ValueError(f"n: must be >= 1, got {self.n}")
        if self.mode not in ("simple", "multigraph"):
            raise ValueError(f"mode: must be 'simple' or 'multigraph', got {self.mode!r}")
        self.weight_rule.validate()
        if self.m_max < 0:
            raise ValueError(f"m_max: must be >= 0, got {self.m_max}")
        if isinstance(self.weight_rule, NegativeInteger):
            stop = self.weight_rule.r * self.n // 2
            if self.m_max > stop:
                raise ValueError(f"m_max: cannot exceed r*n/2 = {stop} for this rule")
        cps = self.checkpoints
        if tuple(sorted(cps)) != cps:
            raise ValueError("checkpoints: must be sorted")
        if len(set(cps)) != len(cps):
            raise ValueError("checkpoints: must be distinct")
        if cps and (cps[0] < 0 or cps[-1] > self.m_max):
            raise ValueError(f"checkpoints: must lie in [0, m_max={self.m_max}]")


@dataclass(frozen=True)
class CheckpointRecord:
    m: int
    l1: int
    l2: int
    s: float
    loops: int
    multi_edges: int
    degree_hist: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Trajectory:
    records: tuple[CheckpointRecord, ...]
    m_reached: int
    exhausted: bool = False


# ---------------------------------------------------------------------------
# step engines
# ---------------------------------------------------------------------------


def _check_not_complete(g: MultiGraph):
    """Simple mode: raise before a rejection loop that no pair can end."""
    if g.num_distinct_pairs == g.n * (g.n - 1) // 2:
        raise ProcessExhausted("graph is complete")


class _UrnPairEngine:
    """LinearAlpha steps; the endpoint history is the graph's own list."""

    __slots__ = ("g", "an", "simple")

    def __init__(self, g: MultiGraph, alpha: float, simple: bool):
        self.g = g
        self.an = alpha * g.n
        self.simple = simple

    def sample(self, rng: random.Random) -> tuple[int, int]:
        g = self.g
        ends = g.ends
        n = g.n
        an = self.an
        rand = rng.random
        i = len(ends)
        if not self.simple:
            v = int(rand() * n) if rand() * (i + an) < an else ends[int(rand() * i)]
            # the second endpoint weight counts the first one already
            if rand() * (i + 1 + an) < an:
                w = int(rand() * n)
            else:
                j = int(rand() * (i + 1))
                w = v if j == i else ends[j]
            return v, w
        _check_not_complete(g)
        has_edge = g.has_edge
        t = i + an
        for _ in range(_REJECTION_CAP):
            v = int(rand() * n) if rand() * t < an else ends[int(rand() * i)]
            w = int(rand() * n) if rand() * t < an else ends[int(rand() * i)]
            if v != w and not has_edge(v, w):
                return v, w
        raise ProcessExhausted("rejection budget exhausted in simple mode")

    def sync(self, v: int, w: int):
        pass


class _StubEngine:
    """NegativeInteger(r) steps over the list of free half-edges."""

    __slots__ = ("g", "r", "simple", "stubs")

    def __init__(self, g: MultiGraph, r: int, simple: bool):
        self.g = g
        self.r = r
        self.simple = simple
        self.stubs = [v for v in range(g.n) for _ in range(r)]

    def _pop_two(self, a: int, b: int):
        stubs = self.stubs
        hi, lo = (a, b) if a > b else (b, a)
        last = len(stubs) - 1
        stubs[hi] = stubs[last]
        stubs.pop()
        last -= 1
        if lo != last:
            stubs[lo] = stubs[last]
        stubs.pop()

    def sample(self, rng: random.Random) -> tuple[int, int]:
        stubs = self.stubs
        s = len(stubs)
        if s < 2:
            raise ProcessExhausted("fewer than two free half-edges remain")
        rand = rng.random
        if not self.simple:
            a = int(rand() * s)
            b = int(rand() * (s - 1))
            if b >= a:
                b += 1
            v, w = stubs[a], stubs[b]
            self._pop_two(a, b)
            return v, w
        if s <= _STUB_EXACT_THRESHOLD:
            return self._sample_exact(rng)
        _check_not_complete(self.g)
        has_edge = self.g.has_edge
        for _ in range(_REJECTION_CAP):
            a = int(rand() * s)
            b = int(rand() * (s - 1))
            if b >= a:
                b += 1
            v, w = stubs[a], stubs[b]
            if v != w and not has_edge(v, w):
                self._pop_two(a, b)
                return v, w
        raise ProcessExhausted("rejection budget exhausted in simple mode")

    def _sample_exact(self, rng: random.Random) -> tuple[int, int]:
        """Enumerate the addable pairs among remaining stub owners and sample
        one with weight s_v * s_w; exact, and detects true exhaustion."""
        counts = Counter(self.stubs)
        verts = sorted(counts)
        has_edge = self.g.has_edge
        cumulative: list[tuple[int, int, float]] = []
        total = 0.0
        for i, v in enumerate(verts):
            sv = counts[v]
            for w in verts[i + 1:]:
                if not has_edge(v, w):
                    total += sv * counts[w]
                    cumulative.append((v, w, total))
        if not cumulative:
            raise ProcessExhausted("no addable pair among remaining half-edges")
        u = rng.random() * total
        v, w = cumulative[-1][:2]
        for cv, cw, acc in cumulative:
            if u < acc:
                v, w = cv, cw
                break
        self._pop_two(self.stubs.index(v), self.stubs.index(w))
        return v, w

    def sync(self, v: int, w: int):
        pass


class _DegreeClassEngine:
    """GeneralF steps over degree classes.

    f(d_v) depends only on the degree, so vertices of one degree are
    interchangeable: an endpoint is a class k drawn with weight N_k f(k)
    (N_k f(k) f(k+1) for a loop), then a uniform member of that class.
    members[k] lists the vertices of degree k and pos[v] is v's index in
    its list.  The masses are summed from the class sizes on every draw, so
    no round-off accumulates over a run.
    """

    __slots__ = ("g", "weight", "simple", "members", "pos", "fk")

    def __init__(self, g: MultiGraph, rule: GeneralF, simple: bool):
        self.g = g
        self.weight = rule.weight
        self.simple = simple
        self.members = {0: list(range(g.n))}
        self.pos = list(range(g.n))
        # fk[k] = f(k), filled up to the top degree + 1 as classes appear
        self.fk = [rule.weight(0), rule.weight(1)]

    def sample(self, rng: random.Random) -> tuple[int, int]:
        members = self.members
        fk = self.fk
        classes = []
        cum = []
        total = sumsq = loop_mass = 0.0
        for k, vs in members.items():
            f = fk[k]
            a = len(vs) * f
            total += a
            sumsq += a * f
            loop_mass += a * fk[k + 1]
            classes.append(vs)
            cum.append(total)
        off_diag = total * total - sumsq
        rand = rng.random

        def pick(cum: list[float]) -> int:
            i = bisect_right(cum, rand() * cum[-1])
            if i == len(cum):
                # round-off carried the draw past the end: take the last
                # class of positive weight, never a zero-weight one
                i = bisect_left(cum, cum[-1])
            vs = classes[i]
            return vs[int(rand() * len(vs))]

        if self.simple:
            if off_diag <= 0:
                raise ProcessExhausted("no positive-weight pair remains")
            _check_not_complete(self.g)
            has_edge = self.g.has_edge
            for _ in range(_REJECTION_CAP):
                v = pick(cum)
                w = pick(cum)
                if v != w and not has_edge(v, w):
                    return v, w
            raise ProcessExhausted("rejection budget exhausted in simple mode")
        z = off_diag + loop_mass
        if z <= 0:
            raise ProcessExhausted("all step weights are zero")
        if rand() * z < loop_mass:
            v = pick(list(accumulate(len(vs) * fk[k] * fk[k + 1] for k, vs in members.items())))
            return v, v
        for _ in range(_REJECTION_CAP):
            v = pick(cum)
            w = pick(cum)
            if v != w:
                return v, w
        raise ProcessExhausted("rejection budget exhausted")

    def _move(self, v: int, old: int, new: int):
        members = self.members
        pos = self.pos
        vs = members[old]
        i = pos[v]
        last = vs.pop()
        if i < len(vs):
            vs[i] = last
            pos[last] = i
        elif not vs:
            del members[old]
        dest = members.get(new)
        if dest is None:
            dest = members[new] = []
            fk = self.fk
            while len(fk) <= new + 1:
                fk.append(self.weight(len(fk)))
        pos[v] = len(dest)
        dest.append(v)

    def sync(self, v: int, w: int):
        deg = self.g.deg
        if v == w:
            self._move(v, deg[v] - 2, deg[v])
        else:
            self._move(v, deg[v] - 1, deg[v])
            self._move(w, deg[w] - 1, deg[w])


# ---------------------------------------------------------------------------
# process state and runner
# ---------------------------------------------------------------------------


class ProcessState:
    """A live process: graph, component tracker, and the step engine."""

    def __init__(self, cfg: ProcessConfig):
        cfg.validate()
        self.cfg = cfg
        self.graph = MultiGraph(cfg.n)
        self.tracker = ComponentTracker(cfg.n)
        simple = cfg.mode == "simple"
        self.allow_multi = not simple
        rule = cfg.weight_rule
        if isinstance(rule, LinearAlpha):
            self.engine = _UrnPairEngine(self.graph, rule.alpha, simple)
        elif isinstance(rule, NegativeInteger):
            self.engine = _StubEngine(self.graph, rule.r, simple)
        else:
            self.engine = _DegreeClassEngine(self.graph, rule, simple)

    def step(self, rng: random.Random) -> tuple[int, int]:
        v, w = self.engine.sample(rng)
        self.graph.add_edge(v, w, self.allow_multi)
        self.tracker.union(v, w)
        self.engine.sync(v, w)
        return v, w


def _degree_pairs(deg: list[int]) -> tuple[tuple[int, int], ...]:
    counts = np.bincount(np.asarray(deg, dtype=np.int64))
    return tuple((int(k), int(c)) for k, c in enumerate(counts) if c)


def _checkpoint_record(state: ProcessState, m: int) -> CheckpointRecord:
    l1, l2, s, _ = state.tracker.component_stats()
    g = state.graph
    return CheckpointRecord(
        m=m,
        l1=l1,
        l2=l2,
        s=state.tracker.sum_sq / state.tracker.n,
        loops=g.loops,
        multi_edges=g.multi_edges,
        degree_hist=_degree_pairs(g.deg),
    )


def run_process(cfg: ProcessConfig, rng: random.Random | None = None) -> Trajectory:
    """Run to m_max, recording stats at each checkpoint.

    Deterministic given (cfg, seed).  If the process exhausts first, a
    ProcessExhausted is raised carrying the truncated trajectory.
    """
    state = ProcessState(cfg)
    if rng is None:
        rng = random.Random(cfg.seed)
    records: list[CheckpointRecord] = []
    cps = cfg.checkpoints
    ci = 0
    m = 0
    if ci < len(cps) and cps[ci] == 0:
        records.append(_checkpoint_record(state, 0))
        ci += 1
    step = state.step
    n_cps = len(cps)
    try:
        while m < cfg.m_max:
            step(rng)
            m += 1
            if ci < n_cps and cps[ci] == m:
                records.append(_checkpoint_record(state, m))
                ci += 1
    except ProcessExhausted as exc:
        partial = Trajectory(tuple(records), m, True)
        raise ProcessExhausted(str(exc), m_reached=m, trajectory=partial) from None
    return Trajectory(tuple(records), m, False)


def sample_process_outcomes(cfg: ProcessConfig, runs: int, rng: random.Random) -> Counter:
    """Repeatedly run a tiny process and count final edge multisets.

    Used by the statistical equivalence suites; the keys match the oracle's
    canonical encoding.
    """
    out: Counter = Counter()
    m_max = cfg.m_max
    for _ in range(runs):
        state = ProcessState(cfg)
        step = state.step
        for _ in range(m_max):
            step(rng)
        ends = state.graph.ends
        key = tuple(sorted(
            (ends[i], ends[i + 1]) if ends[i] <= ends[i + 1] else (ends[i + 1], ends[i])
            for i in range(0, len(ends), 2)
        ))
        out[key] += 1
    return out


# ---------------------------------------------------------------------------
# rewiring chain
# ---------------------------------------------------------------------------


def rewiring_step(g: MultiGraph, alpha: float, rng: random.Random) -> None:
    """Replace a uniform endpoint of a uniform edge by a preferential one.

    The new endpoint w is drawn with weight d_w + alpha on the graph as it
    stands (the edge about to be removed still counted): the exact
    tiny-instance stationarity check singles out this convention.
    """
    m = g.num_edges
    if m == 0:
        raise ValueError("cannot rewire an empty graph")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    rand = rng.random
    e = int(rand() * m)
    a, b = g.ends[2 * e], g.ends[2 * e + 1]
    v = a if rand() < 0.5 else b
    an = alpha * g.n
    two_m = 2 * m
    if rand() * (two_m + an) < an:
        w = int(rand() * g.n)
    else:
        w = g.ends[int(rand() * two_m)]
    g.replace_edge(e, v, w)


def rewiring_degree_average(g: MultiGraph, alpha: float, steps: int,
                            rng: random.Random, burn_in: int | None = None,
                            sample_every: int = 1000) -> Counter:
    """Run the rewiring chain and accumulate degree counts after burn-in.

    Returns a Counter over degrees whose total is n * (number of snapshots).
    """
    if burn_in is None:
        burn_in = steps // 2
    acc: Counter = Counter()
    for step in range(steps):
        rewiring_step(g, alpha, rng)
        if step >= burn_in and (step - burn_in) % sample_every == 0:
            acc.update(g.deg)
    return acc


# ---------------------------------------------------------------------------
# direct degree-sequence samplers
# ---------------------------------------------------------------------------


def sample_configuration_model(deg: Sequence[int], rng: random.Random) -> MultiGraph:
    """Uniform stub matching: shuffle the stub multiset, pair consecutively."""
    total = sum(deg)
    if total % 2:
        raise ValueError("degree sum must be even")
    stubs = [v for v, d in enumerate(deg) for _ in range(d)]
    rng.shuffle(stubs)
    g = MultiGraph(len(deg))
    for i in range(0, total, 2):
        g.add_edge(stubs[i], stubs[i + 1])
    return g


def sample_birth_degrees(n: int, alpha: float, t: float, rng: random.Random) -> list[int]:
    """n independent pure-birth values at time t, rates k + alpha from 0.

    Simulates the exponential holding times directly (the path under test),
    so each value is NB(alpha, 1 - e^{-t}) by construction, not by pmf
    inversion.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    expo = rng.expovariate
    out = []
    for _ in range(n):
        k = 0
        acc = expo(alpha)
        while acc <= t:
            k += 1
            acc += expo(k + alpha)
        out.append(k)
    return out


def sample_conditioned_degrees(n: int, alpha: float, m: int, rng: random.Random) -> list[int]:
    """iid NB(alpha, p) conditioned on total 2m, drawn exactly.

    For any p that law is Dirichlet-multinomial(2m; alpha, ..., alpha), the
    degree count of 2m Polya-urn draws (Blackwell & MacQueen 1973), so it is
    sampled as theta ~ Dirichlet(alpha, ..., alpha), then
    Multinomial(2m, theta).  numpy is seeded from one rng.getrandbits(64).
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return [0] * n
    npr = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
    theta = npr.dirichlet(np.full(n, float(alpha)))
    return npr.multinomial(2 * m, theta).tolist()
