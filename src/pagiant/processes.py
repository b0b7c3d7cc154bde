"""Random (multi)graph process generators and degree-sequence samplers.

Three step engines cover the weight rules:

  * LinearAlpha -- the exchangeable-draw trick: with probability
    alpha*n/(i + alpha*n) the next endpoint is uniform on [n], otherwise it
    is a uniform element of the endpoint history, which realises
    P(v) = (d_v(i) + alpha)/(i + alpha*n) in O(1) amortized time.
  * NegativeInteger(r) -- the free half-edge formulation: every vertex owns
    r stubs, a step pairs two uniform distinct stubs (multigraph), or
    rejects loops/duplicates (simple).
  * GeneralF -- one member list per occupied degree class: an endpoint is
    a class k drawn with weight N_k f(k), then a uniform member, and the
    multigraph step law is sampled exactly by branching between the loop
    mass sum N_k f(k) f(k+1) and the non-loop mass.

Simple mode always works by rejection of a proportional proposal, so the
accepted edge has exactly the conditional law on addable pairs.  When few
candidates remain (few free stubs, or few positive-weight vertices after a
long run of rejections under a general f), _sample_addable_pair enumerates
the addable pairs instead: the same law, and an empty enumeration is
reported as true exhaustion, not as a spent rejection budget.

run_process takes the linear-alpha multigraph rule in bulk, with no step
loop.  There a step makes exactly four rng.random() calls, and numpy's
MT19937 draws the very same doubles as CPython's random once it holds the
same state, so all 4 m_max draws come out of one numpy call and the
advanced state is handed back to rng.  Endpoint p, with its two draws
(u_a, u_b), is the fresh vertex floor(u_b n) if u_a (p + alpha n) <
alpha n, and otherwise a copy of endpoint floor(u_b p): the same float
operations as _UrnPairEngine.sample, so the edges, the records and the
state rng is left in are identical to stepping ProcessState.  Components
at each checkpoint come from graph_core.merge_labels over the edges added
since the previous one.  The other rules, and simple mode, step.

sample_process_outcomes runs many tiny processes, and batches the rules
whose multigraph steps make a fixed number of rng.random() calls: four for
linear alpha, two for r stubs (one draw for each stub index, which depends
only on the s = rn - 2i free stubs left).  R runs therefore read
consecutive blocks of one MT19937 stream, so the draws of a chunk of runs
come from one numpy call, reshaped to one row per run.  Linear-alpha rows
share _urn_endpoints; r-stub rows make the swap-removes of _StubEngine on
a (runs, rn) stub array, one step at a time for all rows.  The float
operations are the step engines' own, so the outcome counts, their order
of first appearance and the state rng is left in equal stepping.  Simple
mode and general f, whose draw counts vary, step ProcessState run by run.

The degree-sequence samplers are exact too: sample_conditioned_degrees
draws iid NB(alpha, p) conditioned on its sum as the Dirichlet-multinomial
it equals, with no rejection.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .graph_core import ComponentTracker, MultiGraph, merge_labels, size_stats
from .oracle import canonical_key

_REJECTION_CAP = 10 ** 6
# enumerate addable pairs once at most this many stubs (r-stub rule) or
# positive-weight vertices (general f) remain
_EXACT_THRESHOLD = 64
# general-f simple mode checks for that endgame after this many rejections
_EXACT_AFTER_REJECTIONS = 1000
# sample_process_outcomes draws this many batched runs at a time: enough to
# amortize numpy's per-call cost, few enough that a chunk's arrays stay small
_OUTCOME_CHUNK = 1 << 13


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
            if not all(0 <= x < math.inf for x in self.table):
                raise ValueError("weight_rule.table: weights must be finite and nonnegative")

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


def _sample_addable_pair(g: MultiGraph, weight: dict[int, float],
                         rng: random.Random) -> tuple[int, int]:
    """Enumerate the addable pairs among the vertices of `weight` and sample
    one with probability proportional to weight[v] * weight[w].

    This is the law that simple-mode rejection accepts from, so it is exact;
    and an empty enumeration detects true exhaustion.  One rng.random().
    """
    verts = sorted(weight)
    has_edge = g.has_edge
    cumulative: list[tuple[int, int, float]] = []
    total = 0.0
    for i, v in enumerate(verts):
        sv = weight[v]
        for w in verts[i + 1:]:
            if not has_edge(v, w):
                total += sv * weight[w]
                cumulative.append((v, w, total))
    if not cumulative:
        raise ProcessExhausted("no addable pair remains")
    u = rng.random() * total
    v, w = cumulative[-1][:2]
    for cv, cw, acc in cumulative:
        if u < acc:
            v, w = cv, cw
            break
    return v, w


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
        if s <= _EXACT_THRESHOLD:
            v, w = _sample_addable_pair(self.g, Counter(stubs), rng)
            self._pop_two(stubs.index(v), stubs.index(w))
            return v, w
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
            for tries in range(_REJECTION_CAP):
                if tries == _EXACT_AFTER_REJECTIONS:
                    # rejection is memoryless, so switching to the exact
                    # enumeration now leaves the law unchanged
                    live = [(vs, fk[k]) for k, vs in members.items() if fk[k] > 0]
                    if sum(len(vs) for vs, _ in live) <= _EXACT_THRESHOLD:
                        return _sample_addable_pair(
                            self.g, {x: f for vs, f in live for x in vs}, rng)
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


def _degree_pairs(deg: np.ndarray | Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(degree, count) for every occupied degree, in increasing order."""
    return tuple((k, c) for k, c in enumerate(np.bincount(deg).tolist()) if c)


def _checkpoint_record(state: ProcessState, m: int) -> CheckpointRecord:
    l1, l2, sum_sq = size_stats(state.tracker.component_sizes())
    g = state.graph
    return CheckpointRecord(
        m=m,
        l1=l1,
        l2=l2,
        s=sum_sq / g.n,
        loops=g.loops,
        multi_edges=g.multi_edges,
        degree_hist=_degree_pairs(np.fromiter(g.deg, np.int64, g.n)),
    )


@functools.cache
def _mt19937() -> np.random.Generator:
    """One numpy MT19937 per process; _mt_uniforms overwrites its state on
    every use, so it never carries anything from one call to the next."""
    return np.random.Generator(np.random.MT19937(0))


def _mt_uniforms(rng: random.Random, k: int) -> np.ndarray:
    """The next k values of rng.random(), drawn by numpy; rng is advanced
    past them.

    Both generators are MT19937 and both build a double from two 32-bit
    outputs as ((a >> 5) * 2^26 + (b >> 6)) / 2^53, so with rng's state
    copied in, numpy draws the same values and leaves the same state.
    """
    version, internal, gauss = rng.getstate()
    gen = _mt19937()
    bitgen = gen.bit_generator
    with bitgen.lock:
        bitgen.state = {"bit_generator": "MT19937",
                        "state": {"key": np.fromiter(internal, np.uint32, 624), "pos": internal[624]}}
        u = gen.random(k)
        state = bitgen.state["state"]
    rng.setstate((version, (*state["key"].tolist(), int(state["pos"])), gauss))
    return u


def _urn_endpoints(n: int, an: float, u: np.ndarray) -> np.ndarray:
    """Linear-alpha multigraph endpoints from the draws _UrnPairEngine.sample
    makes: row j of u holds the 4m draws of one run, and row j of the result
    its 2m endpoints in the order of MultiGraph.ends."""
    runs, k = u.shape
    ua, ub = u[:, 0::2], u[:, 1::2]
    pos = np.arange(k // 2)
    p = pos.astype(np.float64)
    # src[p] is the endpoint that p copies, or p itself for a fresh vertex;
    # it always lies before p in the same run, so pointer doubling over the
    # flattened runs reaches a fresh one
    src = np.where(ua * (p + an) < an, pos, (ub * p).astype(np.int64))
    src = (src + (k // 2) * np.arange(runs)[:, None]).ravel()
    while True:
        up = src[src]
        if np.array_equal(up, src):
            break
        src = up
    return (ub * n).astype(np.int64).ravel()[src].reshape(runs, k // 2)


def _stub_endpoints(n: int, r: int, u: np.ndarray) -> np.ndarray:
    """r-stub multigraph endpoints from the draws _StubEngine.sample makes,
    one run per row of u (2m draws), with its swap-remove done row-wise."""
    runs, k = u.shape
    rows = np.arange(runs)
    stubs = np.tile(np.repeat(np.arange(n), r), (runs, 1))
    ends = np.empty((runs, k), np.int64)
    for i in range(k // 2):
        s = r * n - 2 * i
        a = (u[:, 2 * i] * s).astype(np.int64)
        b = (u[:, 2 * i + 1] * (s - 1)).astype(np.int64)
        b += b >= a
        ends[:, 2 * i] = stubs[rows, a]
        ends[:, 2 * i + 1] = stubs[rows, b]
        stubs[rows, np.maximum(a, b)] = stubs[:, s - 1]
        stubs[rows, np.minimum(a, b)] = stubs[:, s - 2]
    return ends


def _run_urn_multigraph(cfg: ProcessConfig, rng: random.Random) -> Trajectory:
    """run_process for the linear-alpha multigraph rule, without a step loop."""
    n = cfg.n
    # no name holds the draws, so they are freed before the record arrays
    # are allocated (holding them cost about 1 ms per replicate at n = 10^5)
    ends = _urn_endpoints(n, cfg.weight_rule.alpha * n,
                          _mt_uniforms(rng, 4 * cfg.m_max)[None, :])[0]
    v, w = ends[0::2], ends[1::2]
    loops = np.cumsum(v == w)
    # first[j] < m exactly when the j-th distinct pair is among the first m edges
    first = np.sort(np.unique(np.minimum(v, w) * n + np.maximum(v, w), return_index=True)[1])
    label = np.arange(n)
    deg = np.zeros(n, np.int64)
    records: list[CheckpointRecord] = []
    done = 0
    for m in cfg.checkpoints:
        merge_labels(label, v[done:m], w[done:m])
        deg += np.bincount(ends[2 * done:2 * m], minlength=n)
        done = m
        sizes = np.bincount(label)
        l1, l2, sum_sq = size_stats(sizes[sizes > 0])
        records.append(CheckpointRecord(
            m=m,
            l1=l1,
            l2=l2,
            s=sum_sq / n,
            loops=int(loops[m - 1]) if m else 0,
            multi_edges=m - int(np.searchsorted(first, m)),
            degree_hist=_degree_pairs(deg),
        ))
    return Trajectory(tuple(records), cfg.m_max, False)


def run_process(cfg: ProcessConfig, rng: random.Random | None = None) -> Trajectory:
    """Run to m_max, recording stats at each checkpoint.

    Deterministic given (cfg, seed).  If the process exhausts first, a
    ProcessExhausted is raised carrying the truncated trajectory.  The
    linear-alpha multigraph rule runs in bulk (see the module docstring)
    when rng is a plain random.Random, whose random() numpy reproduces.
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    if (isinstance(cfg.weight_rule, LinearAlpha) and cfg.mode == "multigraph"
            and type(rng) is random.Random):
        cfg.validate()
        return _run_urn_multigraph(cfg, rng)
    state = ProcessState(cfg)
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


def _count_outcomes(ends: np.ndarray, n: int, out: Counter) -> None:
    """Add the canonical edge multiset of every run (a row of 2m endpoints)
    to out, in the order of first appearance, as stepping would."""
    runs, k = ends.shape
    v, w = ends[:, 0::2], ends[:, 1::2]
    pairs = np.sort(np.minimum(v, w) * n + np.maximum(v, w), axis=1)
    if (n * n) ** (k // 2) < 2 ** 63:
        code = np.zeros(runs, np.int64)
        for j in range(k // 2):
            code = code * (n * n) + pairs[:, j]
        _, first, counts = np.unique(code, return_index=True, return_counts=True)
    else:
        _, first, counts = np.unique(pairs, axis=0, return_index=True, return_counts=True)
    for i in np.argsort(first):
        key = pairs[first[i]].tolist()
        out[tuple((x // n, x % n) for x in key)] += int(counts[i])


def sample_process_outcomes(cfg: ProcessConfig, runs: int, rng: random.Random) -> Counter:
    """Repeatedly run a tiny process and count final edge multisets.

    Used by the statistical equivalence suites; outcomes are keyed by
    oracle.canonical_key, like the oracle's exact laws.  The linear-alpha
    and r-stub multigraph rules, whose steps make a fixed number of
    rng.random() calls, run in batches (see the module docstring) when rng
    is a plain random.Random; the others step ProcessState run by run.
    """
    out: Counter = Counter()
    m_max = cfg.m_max
    rule = cfg.weight_rule
    if (isinstance(rule, (LinearAlpha, NegativeInteger)) and cfg.mode == "multigraph"
            and type(rng) is random.Random):
        cfg.validate()
        n = cfg.n
        for done in range(0, runs, _OUTCOME_CHUNK):
            chunk = min(_OUTCOME_CHUNK, runs - done)
            if isinstance(rule, LinearAlpha):
                u = _mt_uniforms(rng, chunk * 4 * m_max).reshape(chunk, 4 * m_max)
                ends = _urn_endpoints(n, rule.alpha * n, u)
            else:
                u = _mt_uniforms(rng, chunk * 2 * m_max).reshape(chunk, 2 * m_max)
                ends = _stub_endpoints(n, rule.r, u)
            _count_outcomes(ends, n, out)
        return out
    for _ in range(runs):
        state = ProcessState(cfg)
        step = state.step
        for _ in range(m_max):
            step(rng)
        out[canonical_key(state.graph.edges())] += 1
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
