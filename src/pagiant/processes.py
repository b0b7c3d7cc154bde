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
  * GeneralF -- per-vertex weights f(d_v) in a prefix-sum tree; loop mass
    f(d_v) f(d_v+1) is kept in a second tree so the multigraph step law is
    sampled exactly by branching between loop and non-loop mass.

Simple mode always works by rejection of a proportional proposal, so the
accepted edge has exactly the conditional law on addable pairs.

The degree-sequence samplers are exact too: sample_conditioned_degrees
draws iid NB(alpha, p) conditioned on its sum as the Dirichlet-multinomial
it equals, with no rejection.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
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


class _SumTree:
    """Flat binary indexed sum tree over float weights; O(log n) update/sample."""

    __slots__ = ("size", "tree")

    def __init__(self, weights: Sequence[float]):
        size = 1
        while size < len(weights):
            size *= 2
        tree = [0.0] * (2 * size)
        tree[size:size + len(weights)] = [float(x) for x in weights]
        for i in range(size - 1, 0, -1):
            tree[i] = tree[2 * i] + tree[2 * i + 1]
        self.size = size
        self.tree = tree

    @property
    def total(self) -> float:
        return self.tree[1]

    def get(self, i: int) -> float:
        return self.tree[self.size + i]

    def set(self, i: int, w: float):
        tree = self.tree
        i += self.size
        tree[i] = w
        i //= 2
        while i:
            tree[i] = tree[2 * i] + tree[2 * i + 1]
            i //= 2

    def sample(self, u: float) -> int:
        """Index of the leaf whose cumulative-weight interval contains u."""
        tree = self.tree
        size = self.size
        i = 1
        while i < size:
            i *= 2
            left = tree[i]
            if u >= left:
                u -= left
                i += 1
        leaf = i - size
        if tree[i] <= 0.0:
            # float round-off pushed u past the last positive leaf
            for j in range(2 * size - 1, size - 1, -1):
                if tree[j] > 0.0:
                    return j - size
            raise ProcessExhausted("all weights vanished")
        return leaf


class _WeightTableEngine:
    """GeneralF steps; keeps f(d_v) and the loop mass f(d_v) f(d_v+1) in trees."""

    __slots__ = ("g", "rule", "simple", "fen", "loopfen", "sumsq")

    def __init__(self, g: MultiGraph, rule: GeneralF, simple: bool):
        self.g = g
        self.rule = rule
        self.simple = simple
        w0 = rule.weight(0)
        self.fen = _SumTree([w0] * g.n)
        self.sumsq = g.n * w0 * w0
        self.loopfen = None if simple else _SumTree([w0 * rule.weight(1)] * g.n)

    def sample(self, rng: random.Random) -> tuple[int, int]:
        fen = self.fen
        total = fen.total
        off_diag = total * total - self.sumsq
        if off_diag < 0:
            off_diag = 0.0
        rand = rng.random
        if self.simple:
            if off_diag <= 0:
                raise ProcessExhausted("no positive-weight pair remains")
            _check_not_complete(self.g)
            has_edge = self.g.has_edge
            for _ in range(_REJECTION_CAP):
                v = fen.sample(rand() * total)
                w = fen.sample(rand() * total)
                if v != w and not has_edge(v, w):
                    return v, w
            raise ProcessExhausted("rejection budget exhausted in simple mode")
        loop_mass = self.loopfen.total
        z = off_diag + loop_mass
        if z <= 0:
            raise ProcessExhausted("all step weights are zero")
        if rand() * z < loop_mass:
            v = self.loopfen.sample(rand() * loop_mass)
            return v, v
        for _ in range(_REJECTION_CAP):
            v = fen.sample(rand() * total)
            w = fen.sample(rand() * total)
            if v != w:
                return v, w
        raise ProcessExhausted("rejection budget exhausted")

    def _sync_vertex(self, v: int):
        weight = self.rule.weight
        d = self.g.deg[v]
        old = self.fen.get(v)
        new = weight(d)
        if new != old:
            self.fen.set(v, new)
            self.sumsq += new * new - old * old
        if self.loopfen is not None:
            self.loopfen.set(v, new * weight(d + 1))

    def sync(self, v: int, w: int):
        self._sync_vertex(v)
        if w != v:
            self._sync_vertex(w)


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
            self.engine = _WeightTableEngine(self.graph, rule, simple)

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
