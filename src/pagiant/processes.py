"""Random (multi)graph process generators and degree-sequence samplers.

Three step engines cover the weight rules:

  * LinearAlpha -- the exchangeable-draw trick: with probability
    alpha*n/(i + alpha*n) the next endpoint is uniform on [n], otherwise it
    is a uniform element of the endpoint history, which realises
    P(v) = (d_v(i) + alpha)/(i + alpha*n) in O(1) amortized time.
  * NegativeInteger(r) -- the free half-edge formulation: every vertex owns
    r stubs, a step pairs two uniform distinct stubs (multigraph), or
    rejects loops/duplicates (simple).
  * GeneralF -- one member list per degree, up to the top one: an endpoint
    is a class k drawn with weight N_k f(k), summed in degree order, then a
    uniform member, and the multigraph step law is sampled exactly by
    branching between the loop mass sum N_k f(k) f(k+1) and the non-loop mass.

Simple mode always works by rejection of a proportional proposal, so the
accepted edge has exactly the conditional law on addable pairs.  When few
candidates remain (few free stubs, or few positive-weight vertices after a
long run of rejections under a general f), _sample_addable_pair enumerates
the addable pairs instead: the same law, and an empty enumeration is
reported as true exhaustion, not as a spent rejection budget.

Runs are made edges first: sample_edges returns a run's endpoints in the
order of MultiGraph.ends, and run_process builds the checkpoint records
from them with one builder (_records), with components from
graph_core.merge_labels over the edges added since the previous
checkpoint.  _runner picks the path for sample_edges and
sample_process_outcomes alike: the linear-alpha and r-stub rules run in
bulk when rng is a plain random.Random, and every other run steps its
engine with no union-find (_run_stepped).  numpy's
MT19937 draws the very same doubles as CPython's random once it holds the
same state, so the draws of many steps come out of one numpy call and the
advanced state is handed back to rng (_mt_uniforms).

A linear-alpha multigraph step makes exactly four rng.random() calls, so
a run takes all its draws at once and resolves every endpoint with
_UrnPairEngine.sample's float operations (_urn_pick, _urn_endpoints).  The
linear-alpha simple rule and the r-stub rule run in speculative batches
(_speculate) that resolve their proposals as if every one were accepted
and keep the prefix before the first rejection, exactly what stepping
accepts.  The driver alone sizes the batches, hands a dense run (and the
r-stub endgame) over to stepping on a graph built from the accepted edges
(MultiGraph.from_ends), and leaves rng where stepping takes over, so the
edges, records, exhaustion, rejection cap and final rng state are
stepping's own.  Each rule keeps only its batch resolution: pointer
doubling and pair keys for linear alpha; for r stubs, indices that depend
only on the s = rn - 2i free stubs, with the swap-removes and pair checks
in a loop (_stub_swaps).

sample_process_outcomes batches two families of tiny runs.  Multigraph
steps of the linear-alpha and r-stub rules make four and two rng.random()
calls, so R runs read consecutive blocks of one MT19937 stream: a chunk of
runs is one numpy draw, one row per run (_urn_endpoints; _stub_endpoints
swap-removes on a (runs, rn) stub array).  Linear-alpha simple runs read a
chunk of four-draw proposals: the run that would start at each proposal is
resolved for all of them at once, and the runs from the first proposal on
follow one another (_urn_simple_chunk).  Every other case makes its runs
one by one with _runner's runner.  The float operations are the step
engines' own, so the outcome counts, their order of first appearance and
the final rng state equal stepping.

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
# sample_process_outcomes draws this many batched runs (multigraph) or
# proposals (simple) at a time, and an r-stub batch at most this many
# proposals: enough to amortize numpy's per-call cost, few enough that a
# chunk's arrays stay small
_OUTCOME_CHUNK = 1 << 13
# a speculative run steps on once a batch accepts fewer proposals before a
# rejection, and from the start when it has fewer steps to batch
_HANDOVER = 64


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
    """Attachment function f(degree) -> weight, as the table f(0), f(1), ...
    extended past its last entry with the last value: that covers the
    bounded-degree rules, and as a run of m edges reaches no degree above
    2m, 2m + 1 entries give any f.
    """

    table: tuple[float, ...]

    def validate(self):
        if len(self.table) == 0:
            raise ValueError("weight_rule.table: must be nonempty")
        if not all(0 <= x < math.inf for x in self.table):
            raise ValueError("weight_rule.table: weights must be finite and nonnegative")


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

    def __init__(self, g: MultiGraph, r: int, simple: bool, stubs: list[int] | None = None):
        self.g = g
        self.r = r
        self.simple = simple
        # the free stubs of g (every stub of the empty graph by default)
        self.stubs = _all_stubs(g.n, r) if stubs is None else stubs

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
    members[k] lists the vertices of degree k, for every k up to the top
    degree (empty classes included), and pos[v] is v's index in its list.
    The masses are summed from the class sizes in degree order on every
    draw, so no round-off accumulates over a run, and the cumulative class
    masses are np.cumsum(np.bincount(deg) * f) to the last bit.
    """

    __slots__ = ("g", "simple", "members", "pos", "fk")

    def __init__(self, g: MultiGraph, rule: GeneralF, simple: bool):
        self.g = g
        self.simple = simple
        self.members = [list(range(g.n))]
        self.pos = list(range(g.n))
        # fk[k] = f(k), at least to the top degree + 1
        self.fk = [float(x) for x in (*rule.table, rule.table[-1])]

    def sample(self, rng: random.Random) -> tuple[int, int]:
        members = self.members
        fk = self.fk
        cum = []
        total = sumsq = loop_mass = 0.0
        # sequential += in degree order, the sums np.cumsum makes (sum()
        # compensates its float sums from Python 3.12 on)
        for k, vs in enumerate(members):
            f = fk[k]
            a = len(vs) * f
            total += a
            sumsq += a * f
            loop_mass += a * fk[k + 1]
            cum.append(total)
        off_diag = total * total - sumsq
        rand = rng.random

        def pick(cum: list[float]) -> int:
            i = bisect_right(cum, rand() * cum[-1])
            if i == len(cum):
                # round-off carried the draw past the end: take the last
                # class of positive weight, never a zero-weight one
                i = bisect_left(cum, cum[-1])
            vs = members[i]
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
                    live = [(vs, f) for vs, f in zip(members, fk) if f > 0]
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
            v = pick(list(accumulate(len(vs) * f * f1 for vs, f, f1 in zip(members, fk, fk[1:]))))
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
        while len(members) <= new:
            members.append([])
            self.fk.append(self.fk[-1])
        dest = members[new]
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


def _all_stubs(n: int, r: int) -> list[int]:
    """r stubs of every vertex, vertex by vertex; the r stubs of a vertex
    share one int object."""
    stubs = [0] * (r * n)
    vertices = list(range(n))
    for i in range(r):
        stubs[i::r] = vertices
    return stubs


def _engine(cfg: ProcessConfig, g: MultiGraph | _Multiset, stubs: list[int] | None = None):
    """The step engine of cfg's rule, over the graph g (and, for the r-stub
    rule, its free stubs, every stub by default); a multigraph-mode engine
    reads only g's n, ends and deg."""
    simple = cfg.mode == "simple"
    rule = cfg.weight_rule
    if isinstance(rule, LinearAlpha):
        return _UrnPairEngine(g, rule.alpha, simple)
    if isinstance(rule, NegativeInteger):
        return _StubEngine(g, rule.r, simple, stubs)
    return _DegreeClassEngine(g, rule, simple)


class ProcessState:
    """A live process: graph, component tracker and step engine, stepped one
    edge at a time for bench/tracing.py's replays and the step-level tests;
    runs are made by sample_edges."""

    def __init__(self, cfg: ProcessConfig):
        cfg.validate()
        self.graph = MultiGraph(cfg.n)
        self.tracker = ComponentTracker(cfg.n)
        self.allow_multi = cfg.mode != "simple"
        self.engine = _engine(cfg, self.graph)

    def step(self, rng: random.Random) -> tuple[int, int]:
        v, w = self.engine.sample(rng)
        self.graph.add_edge(v, w, self.allow_multi)
        self.tracker.union(v, w)
        self.engine.sync(v, w)
        return v, w


def _degree_pairs(deg: np.ndarray | Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(degree, count) for every occupied degree, in increasing order."""
    return tuple((k, c) for k, c in enumerate(np.bincount(deg).tolist()) if c)


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


def _urn_pick(n: int, an: float, p, ua: np.ndarray, ub: np.ndarray):
    """The float operations _UrnPairEngine.sample makes for one endpoint
    from its draws (u_a, u_b), with p endpoints before it in its weight
    total p + an: whether it is a fresh vertex, the fresh vertex, and the
    earlier endpoint it copies otherwise."""
    return ua * (p + an) < an, (ub * n).astype(np.int64), (ub * p).astype(np.int64)


def _roots(src: np.ndarray) -> np.ndarray:
    """Follow src (each entry points at itself or at an earlier entry) to
    its fixed points, by pointer doubling."""
    while True:
        up = src[src]
        if np.array_equal(up, src):
            return src
        src = up


def _urn_endpoints(n: int, an: float, u: np.ndarray) -> np.ndarray:
    """Linear-alpha multigraph endpoints from the draws _UrnPairEngine.sample
    makes: row j of u holds the 4m draws of one run, and row j of the result
    its 2m endpoints in the order of MultiGraph.ends."""
    runs, k = u.shape
    pos = np.arange(k // 2)
    fresh, vertex, source = _urn_pick(n, an, pos.astype(np.float64), u[:, 0::2], u[:, 1::2])
    # src[p] is the endpoint that p copies, or p itself for a fresh vertex;
    # it always lies before p in the same run, so following it over the
    # flattened runs reaches a fresh one
    src = np.where(fresh, pos, source) + (k // 2) * np.arange(runs)[:, None]
    del fresh, source  # freed before the doubling allocates its own arrays
    return vertex.ravel()[_roots(src.ravel())].reshape(runs, k // 2)


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


def _records(n: int, ends: np.ndarray, checkpoints: Sequence[int]) -> list[CheckpointRecord]:
    """The checkpoint records of the run whose endpoints, in the order of
    MultiGraph.ends, are `ends`; every checkpoint is at most its length.
    Every run_process path builds its records here."""
    v, w = ends[0::2], ends[1::2]
    loops = np.cumsum(v == w)
    # first[j] < m exactly when the j-th distinct pair is among the first m edges
    first = np.sort(np.unique(np.minimum(v, w) * n + np.maximum(v, w), return_index=True)[1])
    label = np.arange(n)
    deg = np.zeros(n, np.int64)
    records: list[CheckpointRecord] = []
    done = 0
    for m in checkpoints:
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
    return records


# A runner makes one run of cfg from rng and returns the endpoints of its
# edges (in the order of MultiGraph.ends), the edge count reached and the
# exhaustion message, None when the run reached m_max.
Run = tuple[Sequence[int] | np.ndarray, int, str | None]


class _Multiset:
    """What a multigraph-mode step engine reads of its graph: n, the
    endpoint list and the degrees, grown edge by edge.  Only simple mode
    reads a MultiGraph's pair multiplicities, so this keeps none."""

    __slots__ = ("n", "ends", "deg")

    def __init__(self, n: int, ends: Sequence[int]):
        self.n = n
        self.ends = list(ends)
        self.deg = np.bincount(np.asarray(ends, np.int64), minlength=n).tolist()

    def add_edge(self, v: int, w: int) -> None:
        ends, deg = self.ends, self.deg
        ends.append(v)
        ends.append(w)
        # a loop adds 2 to its vertex
        deg[v] += 1
        deg[w] += 1


def _run_stepped(cfg: ProcessConfig, rng: random.Random, ends: Sequence[int] = (),
                 pairs: dict[int, int] | None = None, stubs: list[int] | None = None) -> Run:
    """Any rule, one step at a time with no union-find, from the edges
    `ends` on to m_max: a simple run on a MultiGraph, a multigraph run on a
    _Multiset.  The bulk runners hand their tails here, with a simple
    run's pair keys and the r-stub rule's free stubs; ends that already
    reach m_max may be an array."""
    m, m_max = len(ends) // 2, cfg.m_max
    if m == m_max:
        return ends, m, None
    if cfg.mode == "simple":
        g = MultiGraph.from_ends(cfg.n, ends, pairs)
        add_edge = functools.partial(g.add_edge, allow_multi=False)
    else:
        g = _Multiset(cfg.n, ends)
        add_edge = g.add_edge
    engine = _engine(cfg, g, stubs)
    sample, sync = engine.sample, engine.sync
    try:
        while m < m_max:
            v, w = sample(rng)
            add_edge(v, w)
            sync(v, w)
            m += 1
    except ProcessExhausted as exc:
        return g.ends, m, str(exc)
    return g.ends, m, None


def _run_urn_multigraph(cfg: ProcessConfig, rng: random.Random) -> Run:
    """The linear-alpha multigraph rule, without a step loop."""
    n = cfg.n
    # no name holds the draws, so they are freed before the record arrays
    # are allocated (holding them cost about 1 ms per replicate at n = 10^5)
    ends = _urn_endpoints(n, cfg.weight_rule.alpha * n,
                          _mt_uniforms(rng, 4 * cfg.m_max)[None, :])[0]
    return ends, cfg.m_max, None


def _rewind(rng: random.Random, state: tuple, draws: int) -> None:
    """Set rng to `state`, then advance it past `draws` rng.random() values."""
    rng.setstate(state)
    if draws:
        _mt_uniforms(rng, draws)


def _speculate(rng: random.Random, per: int, stop: int, cap: int,
               batch: Callable[[int, np.ndarray], int]) -> int:
    """Make the first `stop` steps of a run in speculative batches; return
    the count j of steps they accepted, with rng left at step j's first
    proposal, where stepping takes over.

    A proposal makes `per` rng.random() calls.  batch(j, u) resolves the
    proposals of draws u from step j on as if all were accepted, keeps the
    prefix before the first rejection (what stepping accepts) and returns
    its length k.  Batches hold `cap` proposals, then min(cap, 2(k + 1)).
    A batch consumes the rejection that ends it, and the next one makes the
    same step again, until a batch accepts fewer than _HANDOVER before a
    rejection (or stop is below _HANDOVER).  So a step makes at most two
    proposals in the batches, which stepping makes again under its
    rejection cap, and a completed graph hands over at the next batch.
    """
    if stop < _HANDOVER:
        return 0
    j = 0
    size = cap
    # the state and draw count at which the current step's first proposal starts
    start = rng.getstate(), 0
    while j < stop:
        b = min(size, stop - j)
        saved = rng.getstate()
        k = batch(j, _mt_uniforms(rng, per * b))
        j += k
        if k:
            start = saved, per * k
        if k < b:
            if k < _HANDOVER:
                _rewind(rng, *start)
                break
            _rewind(rng, saved, per * (k + 1))
        size = min(cap, 2 * (k + 1))
    return j


def _run_urn_simple(cfg: ProcessConfig, rng: random.Random) -> Run:
    """The linear-alpha simple rule, in speculative batches (_speculate):
    proposal k of a batch from step j draws from 2(j + k) accepted endpoints,
    copies within the batch are followed by pointer doubling, and its first
    loop or repeated pair is its first rejection."""
    n, m_max = cfg.n, cfg.m_max
    an = cfg.weight_rule.alpha * n
    stop = min(m_max, n * (n - 1) // 2)
    ends = np.empty(2 * stop, np.int64)
    keys = np.empty(stop, np.int64)

    def batch(j: int, u: np.ndarray) -> int:
        b = len(u) // 4
        u = u.reshape(b, 2, 2)
        fresh, vertex, source = _urn_pick(n, an, 2.0 * np.arange(j, j + b)[:, None],
                                          u[:, :, 0], u[:, :, 1])
        fresh, vertex, source = fresh.ravel(), vertex.ravel(), source.ravel()
        # copies of accepted endpoints are known; the others point into the batch
        known = fresh | (source < 2 * j)
        vertex[~fresh & known] = ends[source[~fresh & known]]
        src = np.where(known, np.arange(2 * b), source - 2 * j)
        new = vertex[_roots(src)]
        v, w = new[0::2], new[1::2]
        key = np.minimum(v, w) * n + np.maximum(v, w)
        bad = (v == w) | np.isin(key, keys[:j])
        order = np.argsort(key, kind="stable")
        bad[order[1:][key[order[1:]] == key[order[:-1]]]] = True
        k = int(np.argmax(bad)) if bad.any() else b
        ends[2 * j:2 * (j + k)] = new[:2 * k]
        keys[j:j + k] = key[:k]
        return k

    j = _speculate(rng, 4, stop, m_max, batch)
    # a run the batches finish keeps its array; a stepped tail extends a list
    return _run_stepped(cfg, rng, ends if j == m_max else ends[:2 * j].tolist())


def _stub_swaps(stubs: list[int], a: list[int], b: list[int], last: int,
                ends: list[int], pairs: dict[int, int] | None, n: int) -> int:
    """Pair stubs a[k] and b[k] for each proposal k of a batch, as
    _StubEngine.sample does, with last the index of the last free stub at
    the batch's first proposal: append the two vertices to ends and
    swap-remove both stubs (the entries past the free ones are left stale).
    With pairs, the accepted pair keys of a simple run, the batch ends at
    its first loop or repeat.  Returns the accepted count."""
    push = ends.append
    for k, (x, y) in enumerate(zip(a, b)):
        v = stubs[x]
        w = stubs[y]
        if pairs is not None:
            key = v * n + w if v < w else w * n + v
            if v == w or key in pairs:
                return k
            pairs[key] = 1
        push(v)
        push(w)
        if x > y:
            stubs[x] = stubs[last]
            stubs[y] = stubs[last - 1]
        else:
            stubs[y] = stubs[last]
            stubs[x] = stubs[last - 1]
        last -= 2
    return len(a)


def _run_stub(cfg: ProcessConfig, rng: random.Random) -> Run:
    """The r-stub rule, in speculative batches (_speculate).

    A proposal at step i pairs stubs a = floor(u s) and b = floor(u' (s - 1)),
    shifted past a, of the s = rn - 2i free ones, so a batch works out every
    proposal's indices at once; only the swap-removes, and the pair check of
    simple mode, run in a loop (_stub_swaps).  A simple run steps its last
    _EXACT_THRESHOLD stubs, so the exact endgame is stepping's own.
    """
    n, r, m_max = cfg.n, cfg.weight_rule.r, cfg.m_max
    simple = cfg.mode == "simple"
    stubs = _all_stubs(n, r)
    ends: list[int] = []
    # a simple run's pair multiplicities, all 1, which a graph built for the
    # tail takes over
    pairs: dict[int, int] | None = {} if simple else None
    # a simple run's endgame starts at the first step with at most _EXACT_THRESHOLD free stubs
    stop = min(m_max, (r * n - _EXACT_THRESHOLD + 1) // 2) if simple else m_max

    def batch(j: int, u: np.ndarray) -> int:
        s = r * n - 2 * np.arange(j, j + len(u) // 2)
        x = (u[0::2] * s).astype(np.int64)
        y = (u[1::2] * (s - 1)).astype(np.int64)
        y += y >= x
        return _stub_swaps(stubs, x.tolist(), y.tolist(), int(s[0]) - 1, ends, pairs, n)

    j = _speculate(rng, 2, stop, _OUTCOME_CHUNK, batch)
    del stubs[r * n - 2 * j:]
    return _run_stepped(cfg, rng, ends, pairs, stubs)


def _runner(cfg: ProcessConfig, rng: random.Random) -> Callable[[ProcessConfig, random.Random], Run]:
    """The runner of cfg: the bulk runner of the linear-alpha and r-stub
    rules when rng is a plain random.Random, whose random() numpy
    reproduces, and stepping otherwise."""
    rule = cfg.weight_rule
    if type(rng) is not random.Random or isinstance(rule, GeneralF):
        return _run_stepped
    if isinstance(rule, NegativeInteger):
        return _run_stub
    return _run_urn_multigraph if cfg.mode == "multigraph" else _run_urn_simple


def sample_edges(cfg: ProcessConfig, rng: random.Random | None = None
                 ) -> tuple[np.ndarray, int, str | None]:
    """One run of cfg (from random.Random(cfg.seed) by default), made by
    _runner's runner: its endpoints as an int64 array in the order of
    MultiGraph.ends, the edge count reached, and the exhaustion message,
    None when the run reached m_max."""
    if rng is None:
        rng = random.Random(cfg.seed)
    cfg.validate()
    ends, m, reason = _runner(cfg, rng)(cfg, rng)
    return np.asarray(ends, np.int64), m, reason


def run_process(cfg: ProcessConfig, rng: random.Random | None = None) -> Trajectory:
    """Run to m_max, recording stats at each checkpoint.

    Deterministic given (cfg, seed).  If the process exhausts first, a
    ProcessExhausted is raised carrying the truncated trajectory.  The
    records are built (_records) from the endpoints of sample_edges' run.
    """
    ends, m, reason = sample_edges(cfg, rng)
    records = tuple(_records(cfg.n, ends, [c for c in cfg.checkpoints if c <= m]))
    if reason is not None:
        raise ProcessExhausted(reason, m_reached=m, trajectory=Trajectory(records, m, True))
    return Trajectory(records, m, False)


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


def _urn_simple_chunk(n: int, an: float, m: int, u: np.ndarray,
                      want: int) -> tuple[np.ndarray, int]:
    """Up to `want` consecutive linear-alpha simple runs of m >= 1 edges
    from the proposal draws u (one row of four per proposal): their
    endpoints, one row per run, and the number of proposals they use.

    The run that would start at each proposal is worked out, all at once.
    At step 0 both endpoints are fresh (t = an), so that run's first edge
    is the next proposal with two distinct vertices, and runs are kept by
    that proposal.  Step j searches on from each run's last edge, past
    loops and repeats of the run's own accepted pairs, while the runs it
    would leave the chunk with drop out.  The runs from proposal 0 on then
    follow one another.
    """
    rows = len(u)
    # row 0 of each: the first endpoint of every proposal, row 1 the second
    ua, ub = u[:, 0::2].T, u[:, 1::2].T
    vertex = _urn_pick(n, an, 0.0, ua, ub)[1]
    starts = np.flatnonzero(vertex[0] != vertex[1])
    width = 2 * m
    ends = np.empty((len(starts), width), np.int64)
    v, w = vertex[0, starts], vertex[1, starts]
    ends[:, 0], ends[:, 1] = v, w
    keys = np.empty((m, len(starts)), np.int64)
    keys[0] = np.minimum(v, w) * n + np.maximum(v, w)
    nxt = starts + 1
    alive = np.ones(len(starts), bool)
    flat = ends.reshape(-1)
    for j in range(1, m):
        fresh, vertex, source = _urn_pick(n, an, 2.0 * j, ua, ub)
        runs = np.flatnonzero(alive)
        at = nxt[runs]
        while len(runs):
            fits = at < rows
            if not fits.all():
                alive[runs[~fits]] = False
                runs, at = runs[fits], at[fits]
            base = runs * width
            v = np.where(fresh[0, at], vertex[0, at], flat[base + source[0, at]])
            w = np.where(fresh[1, at], vertex[1, at], flat[base + source[1, at]])
            key = np.minimum(v, w) * n + np.maximum(v, w)
            ok = v != w
            for c in range(j):
                ok &= keys[c, runs] != key
            flat[base[ok] + 2 * j] = v[ok]
            flat[base[ok] + 2 * j + 1] = w[ok]
            keys[j, runs[ok]] = key[ok]
            nxt[runs[ok]] = at[ok] + 1
            runs, at = runs[~ok], at[~ok] + 1
    following = np.searchsorted(starts, nxt).tolist()
    alive = alive.tolist()
    chain: list[int] = []
    i = 0
    while len(chain) < want and i < len(alive) and alive[i]:
        chain.append(i)
        i = following[i]
    return ends[chain], int(nxt[chain[-1]]) if chain else 0


def _urn_simple_outcomes(cfg: ProcessConfig, runs: int, rng: random.Random, out: Counter) -> None:
    """sample_process_outcomes for the linear-alpha simple rule with m_max
    at most the n(n-1)/2 pairs, in chunks of proposals: each chunk is drawn
    at once, and rng is then set to just after the proposals its runs used.
    A chunk that holds no whole run is drawn again twice as long, and a run
    longer than the longest chunk is made on its own by the rule's runner."""
    n, m = cfg.n, cfg.m_max
    if m == 0:
        if runs:
            out[()] += runs
        return
    an = cfg.weight_rule.alpha * n
    # so no step of a chunk can reach the rejection cap
    longest = min(_OUTCOME_CHUNK, _REJECTION_CAP)
    done = used_total = 0
    grow = 1
    while done < runs:
        # 5% over the proposals per run so far, for the runs left
        per_run = used_total / done if done else m
        size = min(grow * math.ceil(1.05 * per_run * (runs - done)), longest)
        saved = rng.getstate()
        ends, used = _urn_simple_chunk(n, an, m, _mt_uniforms(rng, 4 * size).reshape(size, 4),
                                       runs - done)
        if used < size:
            _rewind(rng, saved, 4 * used)
        if not used:
            if size < longest:
                grow *= 2
            else:
                _runwise_outcomes(cfg, 1, rng, out, _runner(cfg, rng))
                done += 1
            continue
        grow = 1
        _count_outcomes(ends, n, out)
        done += len(ends)
        used_total += used


def _runwise_outcomes(cfg: ProcessConfig, runs: int, rng: random.Random, out: Counter,
                      run: Callable[[ProcessConfig, random.Random], Run]) -> None:
    """Count the final edge multisets of runs made one by one by a runner."""
    for _ in range(runs):
        ends, _, reason = run(cfg, rng)
        if reason is not None:
            raise ProcessExhausted(reason)
        out[canonical_key(zip(ends[0::2], ends[1::2]))] += 1


def sample_process_outcomes(cfg: ProcessConfig, runs: int, rng: random.Random) -> Counter:
    """Repeatedly run a tiny process and count final edge multisets.

    Used by the statistical equivalence suites; outcomes are keyed by
    oracle.canonical_key, like the oracle's exact laws.  Where run_process
    would run in bulk, the linear-alpha rule and the r-stub multigraph rule
    run in batches of runs (see the module docstring), save a simple run
    that asks for more edges than there are pairs (its first run ends in
    ProcessExhausted).  Every other case makes its runs one by one with
    run_process's runner (_runner).
    """
    cfg.validate()
    out: Counter = Counter()
    m_max = cfg.m_max
    rule = cfg.weight_rule
    n = cfg.n
    run = _runner(cfg, rng)
    if run is _run_urn_simple and m_max <= n * (n - 1) // 2:
        _urn_simple_outcomes(cfg, runs, rng, out)
    elif run is _run_urn_multigraph or run is _run_stub and cfg.mode == "multigraph":
        for done in range(0, runs, _OUTCOME_CHUNK):
            chunk = min(_OUTCOME_CHUNK, runs - done)
            if run is _run_urn_multigraph:
                u = _mt_uniforms(rng, chunk * 4 * m_max).reshape(chunk, 4 * m_max)
                ends = _urn_endpoints(n, rule.alpha * n, u)
            else:
                u = _mt_uniforms(rng, chunk * 2 * m_max).reshape(chunk, 2 * m_max)
                ends = _stub_endpoints(n, rule.r, u)
            _count_outcomes(ends, n, out)
    else:
        _runwise_outcomes(cfg, runs, rng, out, run)
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
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
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
                            rng: random.Random) -> Counter:
    """Run the rewiring chain and accumulate degree counts every 1000 steps
    after a burn-in of half the steps.

    Returns a Counter over degrees whose total is n * (number of snapshots).
    """
    burn_in = steps // 2
    acc: Counter = Counter()
    for step in range(steps):
        rewiring_step(g, alpha, rng)
        if step >= burn_in and (step - burn_in) % 1000 == 0:
            acc.update(g.deg)
    return acc


# ---------------------------------------------------------------------------
# direct degree-sequence samplers
# ---------------------------------------------------------------------------


def sample_configuration_model(deg: Sequence[int], rng: random.Random) -> MultiGraph:
    """Uniform stub matching: shuffle the stub multiset, pair consecutively."""
    for i, d in enumerate(deg):
        if d < 0:
            raise ValueError(f"deg[{i}] must be nonnegative, got {d}")
    if sum(deg) % 2:
        raise ValueError("degree sum must be even")
    stubs = [v for v, d in enumerate(deg) for _ in range(d)]
    rng.shuffle(stubs)
    return MultiGraph.from_ends(len(deg), stubs)


def sample_birth_degrees(n: int, alpha: float, t: float, rng: random.Random) -> list[int]:
    """n independent pure-birth values at time t, rates k + alpha from 0.

    Simulates the exponential holding times directly (the path under test),
    so each value is NB(alpha, 1 - e^{-t}) by construction, not by pmf
    inversion.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
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
