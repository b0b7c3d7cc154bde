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
    is a class k drawn with weight N_k f(k), from exact integer masses that
    sync updates as vertices move, then a uniform member, and the multigraph
    step law is sampled exactly by branching between the loop mass
    sum N_k f(k) f(k+1) and the non-loop mass.

Simple mode always works by rejection of a proportional proposal, so the
accepted edge has exactly the conditional law on addable pairs.  When few
candidates remain (few free stubs, or few positive-weight vertices after a
long run of rejections under a general f), _sample_addable_pair draws from
the addable pairs instead (_addable_pairs; the r-stub endgame lists them
once and drops the pairs each step uses up): the same law, and no pair
left is reported as true exhaustion, not as a spent rejection budget.

Runs are made edges first: sample_edges returns a run's endpoint array,
edge i at (ends[2i], ends[2i+1]) in the order of the steps, and
run_process builds the checkpoint records from them with one builder
(_records), with components from graph_core.merge_labels over the edges
added since the previous checkpoint, and multi-edges from the first copy
of each pair key, which one unstable argsort finds (_first_counts, which
also groups the outcomes of sample_process_outcomes).  ProcessConfig
bounds n by isqrt(2^63 - 1), so a pair key min*n + max fits in an int64.
_runner picks a run's path, and _rows the outcome chunks', from the
rule, the mode, the urn form (_urn_form) and whether rng is a plain
random.Random: the linear-alpha and r-stub rules, and general f in
multigraph mode, run in bulk from a plain random.Random, and every other
run steps its engine with no union-find (_run_stepped) on one run record,
graph_core.RunGraph: its own endpoint list and, in simple mode, pair keys.
numpy's MT19937 draws the very same doubles as CPython's random once it
holds the same state, so the draws of many steps come out of one numpy
call and the advanced state is handed back to rng (_mt_uniforms).  The
state is handed over as the words of numpy's state struct, its 624 key
words and then pos, written and read through a view of that struct
(_mt19937), since numpy's `state` dict costs more than a small draw.

A multigraph run of the linear-alpha rule, or of a table affine to K
(_affine) such as f(d) = d + 1 below degree 32 while every step starts
with top degree < K, is a Polya urn (_urn_form: K = inf for the rule),
made by _run_urn.  An urn step makes exactly four rng.random() calls, so
a run takes its draws at once and resolves every endpoint with
_UrnPairEngine.sample's float operations (_urn_pick, _urn_endpoints);
below _HANDOVER steps, the measured crossover, it steps the same draws.
A table's run is the urn's up to the first step that starts at degree K
(_first_reach), then class batches listing their vertices in order; its
stepping engine hands over at the same step.  An r-stub run costs its
shuffle, the order of rn draws (_shuffled_stubs), whatever m is, so it
starts in bulk (_run_stub) with a step to make and rn >= 8 _HANDOVER;
a multigraph run is that stub matching, read backwards in pairs.
The other bulk runs go through one driver, _batches, in numpy batches.
A rule's batch makes the steps of its draws up to the first special
step, which it cannot make from them; rng is set back to the draws those
steps used, and the rule's special makes that step as stepping does.
The driver alone sizes the batches, and hands a run whose special steps
come closer than _HANDOVER apart over to stepping, on a RunGraph of the
edges and pair keys made, with rng where stepping takes over.  A
linear-alpha simple batch resolves four-draw proposals as if all were
accepted; its special step is a rejection, consumed, after which the
next batch makes the step again.  An r-stub simple run proposes the
last two of its shuffled stubs, so its batches draw nothing;
_stub_proposals makes its special step, a loop or repeated pair.  A
general-f multigraph step reads five draws: its degree classes are
drawn in exact integers, round by round, from the class sizes the last
round's classes imply (_class_draws), and the vertices they move are
found by sorting the class slots the steps read and write
(_class_moves); a possible loop or repeated vertex is special
(_class_slots).  Either way the edges, records, exhaustion, rejection
cap and final rng state are stepping's own.

sample_process_outcomes counts runs edges first too: _rows alone picks
how each chunk of endpoint rows, one per run, is made, and one numpy
keyer counts them (_count_outcomes).  An urn step makes four
rng.random() calls and an r-stub multigraph run only its shuffle's rn,
so a chunk of urn runs too short to reach K, or of r-stub matchings, is
one numpy draw (_urn_endpoints; for r stubs, one argsort per row, and a
row whose draws hold a tie is dropped for one more row at the end, as
stepping draws that run's shuffle again).
Linear-alpha simple runs read a chunk of four-draw proposals: the run that
would start at each proposal is resolved for all of them at once, one lane
per run, each endpoint by one gather from a table of the lane's own
endpoints, and the runs from the first proposal on follow one another,
found by pointer doubling (_urn_simple_chunk).  The proposals a chunk
leaves unused open the next chunk, and rng is set back once, at the end,
to just after the last run's proposals (_urn_simple_rows).
Every other chunk is _runner's runs, stacked (_stacked).  The float
operations are the step engines' own, so the outcome counts, their order
of first appearance and the final rng state equal stepping.

The degree-sequence samplers are exact too: iid NB(alpha, p) conditioned
on its sum 2m is Dirichlet-multinomial, the degree count of a Polya urn,
so sample_conditioned_degrees counts the endpoints of a linear-alpha
multigraph run of m edges; sample_configuration_model matches the stubs
of a degree sequence uniformly, returning them as an endpoint array that
_records and stats.kcore_census read as they read a run.  The
rewiring chain (rewiring_step, rewiring_degree_average) rewrites an
endpoint list and its degree list in place.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import itertools
import math
import random
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .graph_core import ComponentTracker, MultiGraph, RunGraph, merge_labels, size_stats

_REJECTION_CAP = 10 ** 6
# enumerate addable pairs once at most this many stubs (r-stub rule) or
# positive-weight vertices (general f) remain
_EXACT_THRESHOLD = 64
# general-f simple mode checks for that endgame after this many rejections
_EXACT_AFTER_REJECTIONS = 1000
# sample_process_outcomes counts this many runs (linear-alpha simple:
# proposals) at a time, an r-stub batch reads at most this many
# proposals off its shuffled stubs, and a general-f batch makes at most
# this many class draws: enough to amortize numpy's per-call cost, few
# enough that a chunk's arrays stay small
_OUTCOME_CHUNK = 1 << 13
# a bulk run steps on from a special step that comes fewer steps after the
# last one, and from the start when it has fewer steps to batch
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


def _is_count(x, low: int) -> bool:
    """Whether x is an integer >= low; a numpy integer counts, a bool does not."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer)) and x >= low


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
        if not _is_count(self.r, 3):
            raise ValueError(f"weight_rule.r: must be an integer >= 3, got {self.r!r}")


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
        if not _is_count(self.n, 1):
            raise ValueError(f"n: must be an integer >= 1, got {self.n!r}")
        if self.n > math.isqrt(2 ** 63 - 1):
            # a pair key min*n + max must fit in an int64
            raise ValueError(f"n: must be at most {math.isqrt(2 ** 63 - 1)}, got {self.n}")
        if self.mode not in ("simple", "multigraph"):
            raise ValueError(f"mode: must be 'simple' or 'multigraph', got {self.mode!r}")
        self.weight_rule.validate()
        if not _is_count(self.m_max, 0):
            raise ValueError(f"m_max: must be an integer >= 0, got {self.m_max!r}")
        if isinstance(self.weight_rule, NegativeInteger):
            stop = self.weight_rule.r * self.n // 2
            if self.m_max > stop:
                raise ValueError(f"m_max: cannot exceed r*n/2 = {stop} for this rule")
        cps = self.checkpoints
        for i, c in enumerate(cps):
            if not _is_count(c, 0):
                raise ValueError(f"checkpoints[{i}]: must be an integer >= 0, got {c!r}")
        if tuple(sorted(cps)) != tuple(cps):
            raise ValueError("checkpoints: must be sorted")
        if len(set(cps)) != len(cps):
            raise ValueError("checkpoints: must be distinct")
        if cps and cps[-1] > self.m_max:
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
    # the ProcessExhausted message of an exhausted run
    reason: str | None = None


# ---------------------------------------------------------------------------
# step engines
# ---------------------------------------------------------------------------


def _check_not_complete(g: RunGraph):
    """Simple mode: raise before a rejection loop that no pair can end."""
    if g.num_distinct_pairs == g.n * (g.n - 1) // 2:
        raise ProcessExhausted("graph is complete")


def _addable_pairs(g: RunGraph, verts: list[int]) -> list[tuple[int, int]]:
    """The pairs v < w of the sorted vertices verts that g does not hold, in
    lexicographic order."""
    has_edge = g.has_edge
    return [(v, w) for i, v in enumerate(verts) for w in verts[i + 1:] if not has_edge(v, w)]


def _sample_addable_pair(pairs: list[tuple[int, int]], weight: dict[int, int],
                         rng: random.Random) -> tuple[int, int]:
    """Sample one of the addable pairs with probability proportional to
    weight[v] * weight[w].

    This is the law that simple-mode rejection accepts from, so it is exact;
    and no pair left is true exhaustion.  The weights are integers, and a
    draw u = U / 2^53 takes the first pair whose cumulative mass exceeds u
    times the total, compared in integers as the general-f class draw does,
    so no product rounds or overflows.  One rng.random().
    """
    if not pairs:
        raise ProcessExhausted("no addable pair remains")
    cumulative = list(itertools.accumulate([weight[v] * weight[w] for v, w in pairs]))
    t = (int(rng.random() * 2.0 ** 53) * cumulative[-1]) >> 53
    return pairs[bisect.bisect_right(cumulative, t)]


class _UrnPairEngine:
    """LinearAlpha steps; the endpoint history is the graph's own list."""

    __slots__ = ("g", "an", "simple")

    def __init__(self, g: RunGraph, alpha: float, simple: bool):
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


def _shuffled_stubs(n: int, r: int, runs: int, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """`runs` rows of the stubs of every vertex, r each, as their vertices,
    in uniformly random order: stub t, of vertex t // r, sorted by the t-th
    of its row's r n draws.  A row whose draws hold a tie is dropped, the
    rows after it move up, and more are drawn until `runs` are kept: the
    rows and stream of stepping, which draws a tied run's shuffle again."""
    rn = r * n
    u = draw(runs * rn)
    while True:
        order = u.reshape(runs, rn).argsort()
        # a stepped run's one row is gathered directly, at a third of the cost
        ranked = u[order if runs == 1 else order + rn * np.arange(runs)[:, None]]
        tie = ranked[:, 1:] == ranked[:, :-1]
        if not tie.any():
            return order // r
        kept = u.reshape(runs, rn)[~tie.any(axis=1)].ravel()
        u = np.concatenate((kept, draw(runs * rn - len(kept))))


def _stub_proposals(stubs: list[int] | np.ndarray, s: int, g: RunGraph,
                    rng: random.Random) -> tuple[int, int]:
    """A simple-mode step on the free stubs stubs[:s], in uniform order:
    propose the last two, and while they form a loop or one of g's pairs,
    put them back at uniform places by two inside-out shuffle swaps (one
    rng.random() each), which leaves the order uniform, and propose again.
    Returns the accepted pair, which the caller takes off the end."""
    _check_not_complete(g)
    has_edge = g.has_edge
    rand = rng.random
    for _ in range(_REJECTION_CAP):
        v, w = int(stubs[s - 1]), int(stubs[s - 2])
        if v != w and not has_edge(v, w):
            return v, w
        for i in (s - 2, s - 1):
            j = int(rand() * (i + 1))
            stubs[i], stubs[j] = stubs[j], stubs[i]
    raise ProcessExhausted("rejection budget exhausted in simple mode")


class _StubEngine:
    """NegativeInteger(r) steps over the list of free half-edges.

    From the first step outside the simple-mode endgame on, the list is in
    uniformly random order (_shuffled_stubs), and a step proposes its last
    two stubs: a uniform pair of distinct free stubs, the step law of
    weights r - d.  A multigraph run is thus one uniform stub matching,
    the list read backwards in pairs; a simple step rejects as
    _stub_proposals does.  The endgame of at most _EXACT_THRESHOLD stubs
    never reads their order, so a run that starts in it never shuffles.
    """

    __slots__ = ("g", "r", "simple", "stubs", "pairs")

    def __init__(self, g: RunGraph, r: int, simple: bool,
                 stubs: list[int] | None = None):
        self.g = g
        self.r = r
        self.simple = simple
        # the free stubs of g, shuffled; None for every stub of the empty
        # graph, not yet shuffled
        self.stubs = stubs
        # the endgame's addable pairs, enumerated at its first step
        self.pairs: list[tuple[int, int]] | None = None

    def sample(self, rng: random.Random) -> tuple[int, int]:
        stubs = self.stubs
        simple = self.simple
        if stubs is None:
            n, r = self.g.n, self.r
            if simple and r * n <= _EXACT_THRESHOLD:
                stubs = list(range(n)) * r
            else:
                draws = iter(rng.random, None)  # rng.random() values, without end
                stubs = _shuffled_stubs(n, r, 1, lambda k: np.fromiter(draws, np.float64, k))[0].tolist()
            self.stubs = stubs
        s = len(stubs)
        if s < 2:
            raise ProcessExhausted("fewer than two free half-edges remain")
        if not simple:
            return stubs.pop(), stubs.pop()
        if s <= _EXACT_THRESHOLD:
            weight = Counter(stubs)
            if self.pairs is None:
                self.pairs = _addable_pairs(self.g, sorted(weight))
            else:
                # the last step took a pair and maybe a vertex's last stub
                self.pairs = [p for p in self.pairs if p[0] in weight and p[1] in weight]
            v, w = _sample_addable_pair(self.pairs, weight, rng)
            self.pairs.remove((v, w))
            stubs.remove(v)
            stubs.remove(w)
            return v, w
        v, w = _stub_proposals(stubs, s, self.g, rng)
        del stubs[-2:]
        return v, w

    def sync(self, v: int, w: int):
        pass


def _scaled(table: Sequence[float]) -> list[int]:
    """f(k) D for k = 0, ..., len(table), the entries of a general-f table
    (its last one twice) times D, their common power-of-two denominator:
    general f's exact integer masses."""
    ratios = [float(x).as_integer_ratio() for x in (*table, table[-1])]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios]


def _affine(F: Sequence[int]) -> tuple[float, int] | None:
    """(alpha, K) when the scaled table F (_scaled) is affine to K, F[k] =
    F[0] + k (F[1] - F[0]) for k <= K with F[1] > F[0] > 0, and alpha =
    F[0] / (F[1] - F[0]) is a float exactly: f(d) is then d + alpha times
    a constant for d <= K.  None otherwise."""
    step = F[1] - F[0]
    if not 0 < F[0] < F[1]:
        return None
    alpha, g = F[0] / step, math.gcd(F[0], step)
    if alpha.as_integer_ratio() != (F[0] // g, step // g):
        return None
    K = 1
    while K + 1 < len(F) and F[K + 1] - F[K] == step:
        K += 1
    return alpha, K


def _urn_form(cfg: ProcessConfig) -> tuple[float, float] | None:
    """(alpha, K) when cfg's runs make the LinearAlpha(alpha) multigraph
    urn's steps while every step starts with top degree < K: K = inf for
    the linear-alpha rule, and a table's affine range (_affine).  None for
    a simple run, the r-stub rule, or a table that is not affine."""
    rule = cfg.weight_rule
    if cfg.mode == "simple" or isinstance(rule, NegativeInteger):
        return None
    if isinstance(rule, LinearAlpha):
        return rule.alpha, math.inf
    return _affine(_scaled(rule.table))


def _pick(members: list[list[int]], masses: list[int], total: int, rand) -> int:
    """A uniform member of a class drawn with weight len(members[k]) *
    masses[k], summing to total: for a draw u = U / 2^53, the first class,
    in index order, whose cumulative mass exceeds u total, compared in
    integers.  Two rand() calls."""
    t = (int(rand() * 2.0 ** 53) * total) >> 53
    for vs, a in zip(members, masses):
        t -= len(vs) * a
        if t < 0:
            break
    else:
        # only a draw of exactly 1.0 passes the end: take the last class of
        # positive weight, never a zero-weight one
        vs = [vs for vs, a in zip(members, masses) if vs and a][-1]
    return vs[int(rand() * len(vs))]


class _DegreeClassEngine:
    """GeneralF steps over degree classes.

    f(d_v) depends only on the degree, so vertices of one degree are
    interchangeable: an endpoint is a class k drawn with weight N_k f(k)
    (N_k f(k) f(k+1) for a loop), then a uniform member of that class.
    members[k] lists the vertices of degree k, for every k up to the top
    degree (empty classes included), pos[v] is v's index in its list, and
    deg[v] its degree, kept here from the empty graph on.  The masses are
    exact integers: F[k] = f(k) D, with D the common power-of-two
    denominator of the table's floats, and sync keeps T = sum N_k F_k,
    Q = sum N_k F_k^2 and L = sum N_k F_k F_{k+1} as it moves a vertex
    between classes.  A draw u = U / 2^53 takes the first class, scanning
    up from degree 0, whose cumulative mass exceeds u T, compared in
    integers, so no table entry rounds or overflows a mass.  A multigraph
    run of a table affine to K (_affine) makes the urn's steps, keeping
    only the degrees, until a degree reaches K (a loop reads f(d + 1));
    then it lists the classes in vertex order, as a bulk run does.
    """

    __slots__ = ("g", "simple", "deg", "members", "pos", "F", "T", "Q", "L", "urn", "K")

    def __init__(self, g: RunGraph, rule: GeneralF, simple: bool,
                 members: list[list[int]] | None = None):
        self.g = g
        self.simple = simple
        n = g.n
        self.F = _scaled(rule.table)
        form = None if simple or members is not None else _affine(self.F)
        self.urn = form and _UrnPairEngine(g, form[0], False)
        self.K = form[1] if form else 0
        self.deg = [0] * n
        if members is not None:
            # the classes a bulk run hands over, top class nonempty
            self._take(members)
        elif self.urn is None:
            self.members, self.pos = [list(range(n))], list(range(n))
            self._weigh()

    def _take(self, members: list[list[int]]):
        """Take the class lists `members`, top class nonempty: each
        member's degree and index, and the masses."""
        deg, self.pos, self.members = self.deg, [0] * len(self.deg), members
        for k, vs in enumerate(members):
            for i, x in enumerate(vs):
                deg[x] = k
                self.pos[x] = i
        self._weigh()

    def _weigh(self):
        """Set T, Q and L from the class sizes, with F to the top degree + 1."""
        F = self.F
        sizes = [len(vs) for vs in self.members]
        F.extend([F[-1]] * (len(sizes) + 1 - len(F)))
        self.T = sum(c * a for c, a in zip(sizes, F))
        self.Q = sum(c * a * a for c, a in zip(sizes, F))
        self.L = sum(c * a * b for c, a, b in zip(sizes, F, F[1:]))

    def sample(self, rng: random.Random) -> tuple[int, int]:
        if self.urn is not None:
            return self.urn.sample(rng)
        members, F, T, L = self.members, self.F, self.T, self.L
        off_diag = T * T - self.Q
        rand = rng.random
        simple = self.simple
        if simple:
            if off_diag <= 0:
                raise ProcessExhausted("no positive-weight pair remains")
            _check_not_complete(self.g)
            has_edge = self.g.has_edge
        elif off_diag + L <= 0:
            raise ProcessExhausted("all step weights are zero")
        elif (int(rand() * 2.0 ** 53) * (off_diag + L)) >> 53 < L:
            # a loop, from the class masses N_k F_k F_{k+1}
            v = _pick(members, [a * b for a, b in zip(F, F[1:])], L, rand)
            return v, v
        for tries in range(_REJECTION_CAP):
            if simple and tries == _EXACT_AFTER_REJECTIONS:
                # rejection is memoryless, so switching to the exact
                # enumeration now leaves the law unchanged
                live = [(vs, a) for vs, a in zip(members, F) if a > 0]
                if sum(len(vs) for vs, _ in live) <= _EXACT_THRESHOLD:
                    weight = {x: a for vs, a in live for x in vs}
                    return _sample_addable_pair(_addable_pairs(self.g, sorted(weight)), weight, rng)
            v = _pick(members, F, T, rand)
            w = _pick(members, F, T, rand)
            if v != w and not (simple and has_edge(v, w)):
                return v, w
        raise ProcessExhausted("rejection budget exhausted in simple mode" if simple
                               else "rejection budget exhausted")

    def sync(self, v: int, w: int):
        deg = self.deg
        if self.urn is not None:
            deg[v] += 1
            deg[w] += 1
            if deg[v] >= self.K or deg[w] >= self.K:
                # the next step may read f(K + 1): list the classes
                self.urn = None
                members = [[] for _ in range(max(deg) + 1)]
                for x, d in enumerate(deg):
                    members[d].append(x)
                self._take(members)
            return
        members, pos, F = self.members, self.pos, self.F
        # each endpoint moves up one class: a loop moves its vertex twice
        for x in (v, w):
            old = deg[x]
            deg[x] = new = old + 1
            vs = members[old]
            i = pos[x]
            last = vs.pop()
            if i < len(vs):
                vs[i] = last
                pos[last] = i
            if new == len(members):
                members.append([])
                F.append(F[-1])
            dest = members[new]
            pos[x] = len(dest)
            dest.append(x)
            a, b = F[old], F[new]
            self.T += b - a
            self.Q += b * b - a * a
            self.L += b * (F[new + 1] - a)


# ---------------------------------------------------------------------------
# process state and runner
# ---------------------------------------------------------------------------


def _engine(cfg: ProcessConfig, g: RunGraph, state: list | None = None):
    """The step engine of cfg's rule, over the graph g and the state a bulk
    run hands over: the r-stub rule's shuffled free stubs (by default every
    stub, shuffled at the first step that needs their order), or general
    f's degree classes (by default the empty graph's).  An engine reads
    only g's n, in simple mode has_edge and num_distinct_pairs, and for
    the linear-alpha rule ends."""
    simple = cfg.mode == "simple"
    rule = cfg.weight_rule
    if isinstance(rule, LinearAlpha):
        return _UrnPairEngine(g, rule.alpha, simple)
    if isinstance(rule, NegativeInteger):
        return _StubEngine(g, rule.r, simple, state)
    return _DegreeClassEngine(g, rule, simple, state)


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
def _mt19937() -> tuple[np.random.Generator, ctypes.Array]:
    """One numpy MT19937 per process, and a ctypes view of its state
    struct: 625 uint32 words, the 624 of the key and then pos.
    _mt_uniforms overwrites that state on every use, so it never carries
    anything from one call to the next."""
    gen = np.random.Generator(np.random.MT19937(0))
    return gen, (ctypes.c_uint32 * 625).from_address(gen.bit_generator.ctypes.state_address)


# rng.getstate()'s 625 state words, packed as the struct holds them
_MT_WORDS = struct.Struct("625I")


def _mt_uniforms(rng: random.Random, k: int) -> np.ndarray:
    """The next k values of rng.random(), drawn by numpy; rng is advanced
    past them.

    Both generators are MT19937 and both build a double from two 32-bit
    outputs as ((a >> 5) * 2^26 + (b >> 6)) / 2^53, so with rng's state
    copied in, numpy draws the same values and leaves the same state.  The
    state words go straight in and out of numpy's state struct (_mt19937),
    which skips the dict that numpy's `state` property builds and parses.
    """
    version, internal, gauss = rng.getstate()
    gen, words = _mt19937()
    with gen.bit_generator.lock:
        _MT_WORDS.pack_into(words, 0, *internal)
        u = gen.random(k)
        internal = _MT_WORDS.unpack_from(words)
    rng.setstate((version, internal, gauss))
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
    its 2m endpoints in endpoint-array order."""
    runs, k = u.shape
    pos = np.arange(k // 2)
    fresh, vertex, source = _urn_pick(n, an, pos.astype(np.float64), u[:, 0::2], u[:, 1::2])
    # src[p] is the endpoint that p copies, or p itself for a fresh vertex;
    # it always lies before p in the same run, so following it over the
    # flattened runs reaches a fresh one
    src = np.where(fresh, pos, source) + (k // 2) * np.arange(runs)[:, None]
    del fresh, source  # freed before the doubling allocates its own arrays
    return vertex.ravel()[_roots(src.ravel())].reshape(runs, k // 2)


def _first_counts(key: np.ndarray) -> np.ndarray:
    """How often each value of the nonnegative int64 array key occurs, at
    the index of its first occurrence (the least index of its run in one
    unstable sort), and 0 at every later index."""
    order = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    count = np.zeros(len(key), np.int64)
    count[np.minimum.reduceat(order, starts)] = np.diff(starts, append=len(key))
    return count


def _records(n: int, ends: np.ndarray, checkpoints: Sequence[int]) -> list[CheckpointRecord]:
    """The checkpoint records of the graph whose endpoint array is `ends`;
    every checkpoint is at most its edge count.  Every run_process path
    builds its records here, and so can a configuration-model draw."""
    v, w = ends[0::2], ends[1::2]
    loops = np.cumsum(v == w)
    # every edge but the first copy of its pair is a multi-edge
    multi = np.cumsum(_first_counts(np.minimum(v, w) * n + np.maximum(v, w)) == 0)
    label = np.arange(n)
    deg = np.zeros(n, np.int64)
    records: list[CheckpointRecord] = []
    done = 0
    for m in checkpoints:
        merge_labels(label, v[done:m], w[done:m])
        deg += np.bincount(ends[2 * done:2 * m], minlength=n)
        done = m
        l1, l2, sum_sq = size_stats(np.bincount(label))
        records.append(CheckpointRecord(
            m=m,
            l1=l1,
            l2=l2,
            s=sum_sq / n,
            loops=int(loops[m - 1]) if m else 0,
            multi_edges=int(multi[m - 1]) if m else 0,
            degree_hist=_degree_pairs(deg),
        ))
    return records


# A runner makes one run of cfg from rng and returns the endpoints of its
# edges (as an endpoint array), the edge count reached and the
# exhaustion message, None when the run reached m_max.
Run = tuple[Sequence[int] | np.ndarray, int, str | None]


def _run_stepped(cfg: ProcessConfig, rng: random.Random, g: RunGraph | None = None,
                 state: list | None = None) -> Run:
    """Any rule, one step at a time with no union-find, on the run record g
    (an empty run by default) to m_max.  The bulk runners hand their tails
    here, with the edges and pair keys they accepted and their engine
    state (_engine)."""
    if g is None:
        g = RunGraph(cfg.n, [], set() if cfg.mode == "simple" else None)
    m, m_max = len(g.ends) // 2, cfg.m_max
    engine = _engine(cfg, g, state)
    sample, add_edge, sync = engine.sample, g.add_edge, engine.sync
    try:
        while m < m_max:
            v, w = sample(rng)
            add_edge(v, w)
            sync(v, w)
            m += 1
    except ProcessExhausted as exc:
        return g.ends, m, str(exc)
    return g.ends, m, None


def _rewind(rng: random.Random, state: tuple, draws: int) -> None:
    """Set rng to `state`, then advance it past `draws` rng.random() values."""
    rng.setstate(state)
    if draws:
        _mt_uniforms(rng, draws)


def _batches(cfg: ProcessConfig, rng: random.Random, ends: np.ndarray, stop: int, per: int,
             cap: Callable[[], int], batch: Callable[[int, np.ndarray], int],
             special: Callable[[int], bool], handover: Callable[[int], tuple], j: int = 0) -> Run:
    """A bulk run from step j: its steps to `stop` in numpy batches if there
    are _HANDOVER or more, then stepping (_run_stepped), filling ends.

    A batch of b steps draws b rows of `per` rng.random() values.
    batch(j, u) makes the steps of rows u from step j on, up to the first
    special step, which the rule cannot make from its row, writes their
    endpoints to ends and returns their count k.  rng is set back to the
    draws of those k steps (per = 0 draws none, and leaves rng alone),
    and special(j) makes step j as stepping does and returns whether it
    made an edge (a consumed proposal makes none); a ProcessExhausted
    from it ends the run.  A batch holds at most cap() steps, and after
    the first, twice the steps since the last special step, plus 2: as
    rng is set back to the draws used, sizes change no stream.  A special
    step fewer than _HANDOVER steps after the last one (or the start)
    hands the run over, with rng at step j's first draw, to step on the
    run record and engine state that handover(j) gives.
    """
    # j steps made, `run` of them since the last special step
    run, size, batched = 0, stop, _HANDOVER <= stop - j
    # the state and draw count at which step j's first draw lies; None
    # when it is the next batch's first
    start = None
    while batched and j < stop:
        b = min(cap(), size, stop - j)
        saved = rng.getstate() if per else None
        k = batch(j, _mt_uniforms(rng, per * b).reshape(b, per) if per else np.empty((b, 0)))
        j += k
        run += k
        size = 2 * (run + 1)
        if k or start is None:
            start = saved, per * k
        if k < b:
            if per:
                _rewind(rng, *start)
            if run < _HANDOVER:
                break
            run = 0
            try:
                if special(j):
                    j += 1
                    start = None
            except ProcessExhausted as exc:
                return ends[:2 * j], j, str(exc)
    if j == cfg.m_max:
        return ends, j, None
    tail, m, reason = _run_stepped(cfg, rng, *handover(j))
    # the accepted endpoints stay an array: only the stepped tail is converted
    ends[2 * j:2 * m] = tail[2 * j:]
    return ends[:2 * m], m, reason


def _run_urn_simple(cfg: ProcessConfig, rng: random.Random) -> Run:
    """The linear-alpha simple rule in speculative batches (_batches):
    proposal k of a batch from step j draws from 2(j + k) accepted endpoints,
    copies within the batch are followed by pointer doubling, and its first
    loop or repeated pair is its first rejection, which the batch consumes.
    So a step makes at most two proposals before stepping makes it again."""
    n, m_max = cfg.n, cfg.m_max
    an = cfg.weight_rule.alpha * n
    stop = min(m_max, n * (n - 1) // 2)
    ends = np.empty(2 * stop, np.int64)
    keys = np.empty(stop, np.int64)

    def batch(j: int, u: np.ndarray) -> int:
        b = len(u)
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
        # a loop, a pair accepted before the batch or a repeat within it
        bad = (v == w) | np.isin(key, keys[:j]) | (_first_counts(key) == 0)
        k = int(np.argmax(bad)) if bad.any() else b
        ends[2 * j:2 * (j + k)] = new[:2 * k]
        keys[j:j + k] = key[:k]
        return k

    def consume(j: int) -> bool:
        for _ in range(4):
            rng.random()
        return False

    def handover(j: int) -> tuple:
        # the urn engine copies earlier endpoints: one int object per
        # vertex, shared by its endpoints, is under half the memory of a
        # list of fresh ints
        prefix = np.arange(n, dtype=object)[ends[:2 * j]].tolist()
        return RunGraph(n, prefix, set(keys[:j].tolist())), None

    return _batches(cfg, rng, ends, stop, 4, lambda: stop, batch, consume, handover)


def _run_stub(cfg: ProcessConfig, rng: random.Random) -> Run:
    """The r-stub rule from one shuffled stub list, drawn by numpy.

    A multigraph run is the list read backwards in pairs.  A simple run
    reads it in batches of no draws (_batches) up to each loop or repeated
    pair, whose step _stub_proposals makes, as stepping does.  Each step
    takes two stubs off the end, so after j steps the free ones are
    stubs[:rn - 2j].  A simple run steps on from the exact endgame of the
    last _EXACT_THRESHOLD stubs.  _runner sends it runs of m >= 1, rn >= 512.
    """
    n, r, m_max = cfg.n, cfg.weight_rule.r, cfg.m_max
    simple = cfg.mode == "simple"
    # a simple run's endgame starts at the first step with at most _EXACT_THRESHOLD free stubs
    stop = min(m_max, (r * n - _EXACT_THRESHOLD + 1) // 2) if simple else m_max
    stubs = _shuffled_stubs(n, r, 1, functools.partial(_mt_uniforms, rng))[0]
    if not simple:
        return stubs[::-1][:2 * m_max], m_max, None
    ends = np.empty(2 * m_max, np.int64)
    g = RunGraph(n, [], set())

    def batch(j: int, u: np.ndarray) -> int:
        # proposal i pairs the free stubs s - 1 - 2i and s - 2 - 2i; a
        # batch ends before its first loop or pair seen before
        s, k = r * n - 2 * j, len(u)
        new = stubs[s - 2 * k:s][::-1]
        v, w = new[0::2], new[1::2]
        key = np.minimum(v, w) * n + np.maximum(v, w)
        listed = key.tolist()
        bad = (v == w) | (_first_counts(key) == 0)
        if not g.keys.isdisjoint(listed):
            bad |= np.isin(key, list(g.keys.intersection(listed)))
        if bad.any():
            k = int(np.argmax(bad))
        g.keys.update(listed[:k])
        ends[2 * j:2 * (j + k)] = new[:2 * k]
        return k

    def propose(j: int) -> bool:
        v, w = _stub_proposals(stubs, r * n - 2 * j, g, rng)
        ends[2 * j:2 * j + 2] = v, w
        g.keys.add(v * n + w if v < w else w * n + v)
        return True

    def handover(j: int) -> tuple:
        nonlocal stubs
        # the array is freed before the stepped tail's endpoint list is
        # built, whose entries the engine does not read, only their count
        free, stubs = stubs[:r * n - 2 * j].tolist(), None
        return RunGraph(n, [0] * (2 * j), g.keys), free

    return _batches(cfg, rng, ends, stop, 0, lambda: _OUTCOME_CHUNK, batch, propose, handover)


def _class_draws(sizes: np.ndarray, F: list[int], u: np.ndarray
                 ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The degree classes of a batch of general-f multigraph steps from
    its draws u, one row of five per step (branch, class and member of v,
    class and member of w), as _DegreeClassEngine.sample makes them, from
    the class sizes `sizes` at the start.

    A class draw U / 2^53 takes the first class whose integer cumulative
    mass exceeds (U T) >> 53, worked out in int64 for T < 2^36.  The sizes
    before step i follow from the classes of the steps before it, so the
    classes are drawn round by round, each time from the sizes that the
    last round's classes imply.  The steps up to a round's first changed
    class are final, since their sizes came from final steps, and the next
    round draws only the steps after them, up to the first special step:
    a possible loop (by floats, with a margin of 1e-9 of the masses) or
    the same vertex drawn twice.  A final step that moves a vertex past
    the last class adds one.  Returns the index s of the first special
    step (the step count when there is none) once it is final, the class
    sizes N[k, i] before each step i <= s, and the steps' classes and
    member indices, one row for v and one for w.
    """
    b = len(u)
    c = len(sizes) + 1  # a move can open one class past the top
    F.extend([F[-1]] * (c + 1 - len(F)))
    U = (u[:, 1::2].T * 2.0 ** 53).astype(np.int64)
    hi, low = U >> 26, U & ((1 << 26) - 1)
    # the first round draws from the sizes that the expected moves give:
    # each endpoint leaves class k with probability N_k F_k / T
    mass = np.append(sizes, 0) * np.array(F[:c], np.float64)
    drift = 2 * (np.append(0, mass[:-1]) - mass) / max(mass.sum(), 1)
    N = np.append(sizes, 0)[:, None] + np.rint(drift[:, None] * np.arange(b)).astype(np.int64)
    # the classes and member indices of the last round; none at first, so
    # that the first round finds only step 0 final
    k = np.full((2, b), -1, np.int64)
    idx = np.empty((2, b), np.int64)

    def follow(r: int, end: int) -> None:
        # the sizes of steps r + 1 to end - 1, from step r's and the classes from r on
        w = end - 1 - r
        moves = np.minimum(k[:, r:end - 1], c - 2) * w + np.arange(w)
        step = np.bincount((moves + w).ravel(), minlength=c * w)
        step -= np.bincount(moves.ravel(), minlength=c * w)
        step = step.reshape(c, w)
        step[:, :1] += N[:, r:r + 1]
        np.cumsum(step, axis=1, out=N[:, r + 1:end])

    start, end = 0, b  # steps before start are final; a round draws up to end
    while True:
        Fa = np.array(F[:c + 1], np.int64)
        rows = N[:, start:end]
        cum = rows * Fa[:c, None]
        for q in range(1, c):
            cum[q] += cum[q - 1]
        T = cum[-1]
        t = (hi[:, start:end] * T + ((low[:, start:end] * T) >> 26)) >> 27
        new = (cum <= t[:, None]).sum(axis=1)
        new_idx = (u[start:end, 2::2].T * rows[np.minimum(new, c - 1), np.arange(end - start)]
                   ).astype(np.int64)
        T2 = T.astype(np.float64) ** 2
        Fs = Fa.astype(np.float64)
        L = (Fs[:c] * Fs[1:]) @ rows
        sure = u[start:end, 0] * (T2 - Fs[:c] ** 2 @ rows + L) - L > 1e-9 * (T2 + L)
        special = ~sure | ((new[0] == new[1]) & (new_idx[0] == new_idx[1]))
        s = start + int(np.argmax(special)) if special.any() else end
        changed = (new != k[:, start:end]).any(axis=0)
        # the steps before `final` are final: those before the first changed
        # class, and that one, whose sizes came from final steps
        final = start + int(np.argmax(changed)) + 1 if changed.any() else end
        top = new.max(axis=0) >= c - 1
        p = start + int(np.argmax(top)) if top.any() else end
        if p < s and p < final:
            # follow the last round's classes again, with one more class
            N = np.concatenate((N, np.zeros((1, b), np.int64)))
            c += 1
            F.extend([F[-1]] * (c + 1 - len(F)))
            follow(start, end)
            continue
        k[:, start:end], idx[:, start:end] = new, new_idx
        if s < final or final == b:
            return s, N[:, :s + 1], k, idx
        # draw again from the first step not final, up to the first special
        # step, or to the end of the batch once every step to `end` is final
        start, end = final, b if final == end else min(s + 1, end)
        follow(start - 1, end)


def _class_slots(sizes: Sequence[int], F: list[int], n: int, rng: random.Random) -> tuple[int, int]:
    """One general-f multigraph step made by _DegreeClassEngine.sample
    itself, over classes of the given sizes whose members are slot codes:
    member j of class k is k n + j.  Raises its ProcessExhausted."""
    engine = _DegreeClassEngine.__new__(_DegreeClassEngine)
    engine.simple, engine.urn = False, None
    engine.members = [range(k * n, k * n + c) for k, c in enumerate(sizes)]
    engine.F = F
    engine._weigh()
    return engine.sample(rng)


def _class_moves(flat: np.ndarray, sizes: np.ndarray, n: int, steps: np.ndarray,
                 loop: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The endpoints of a batch of general-f multigraph steps, and the class
    lists after them.

    Class k lists flat[off[k]:off[k] + sizes[k]], off the sizes' running
    sum; the slot code of its member j is k n + j.  Row i of steps holds
    step i's classes and member indices kv, jv, kw, jw and the sizes of
    classes kv, kv + 1, kw and kw + 1 before it; with `loop`, the last
    step is a loop, whose w is v and whose w slot is where v's first move
    puts it.  _DegreeClassEngine.sync moves v, then w, up one class each:
    it pops the last member of the class into the freed slot (w's slot is
    then v's, when w was that last member) and appends the vertex to the
    next class.  So a step reads four slots (v, w and the two last
    members) and writes four, in this order.  Each read is sent to the
    read that the latest write to its slot before it moved (one argsort by
    slot, then time), and pointer doubling (_roots) ends every chain at a
    read of a slot's starting content.
    """
    kv, jv, kw, jw, nv, nv1, nw, nw1 = steps.T
    same = kw == kv
    slot = np.stack((kv * n + jv, kw * n + jw, kv * n + nv - 1,
                     kv * n + jv, (kv + 1) * n + nv1,
                     kw * n + nw - 1 - same + (kw == kv + 1),
                     kw * n + np.where(same & (jw == nv - 1), jv, jw),
                     (kw + 1) * n + nw1 - (kw + 1 == kv) + same), axis=1).ravel()
    write = np.tile(np.array([0, 0, 0, 1, 1, 0, 1, 1], bool), len(steps))
    # a write moves the read before it: v's last member, v, w's last, w
    src = np.arange(len(slot))
    src[write] = (8 * np.arange(len(steps))[:, None] + np.array([2, 0, 5, 1])).ravel()
    if slot.max() < (1 << 63) // len(slot):
        order = np.argsort(slot * len(slot) + np.arange(len(slot)))
    else:
        order = np.argsort(slot, kind="stable")
    ranked = slot[order]
    latest = np.maximum.accumulate(np.where(write[order], np.arange(len(order)), -1))
    hit = ~write[order] & (latest >= 0)
    hit[hit] = ranked[latest[hit]] == ranked[hit]
    src[order[hit]] = src[order[latest[hit]]]
    if loop:
        src[-7] = len(src) - 8
    # the last write to each slot, at the end of the slot's run
    end = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    last = latest[end]
    last = order[last[(last >= 0) & (ranked[last] == ranked[end])]]
    del order, ranked, latest, hit
    at = _roots(src)[np.concatenate((np.arange(2 * len(steps)) // 2 * 8 + np.tile([0, 1], len(steps)),
                                     last))]
    off = np.cumsum(sizes) - sizes
    vertex = flat[off[slot[at] // n] + slot[at] % n]
    # the new lists: each class keeps the start of its old one, and its
    # written slots take their last writes' vertices
    moved = steps[:, [0, 2]].ravel()
    new = np.bincount(moved + 1, minlength=len(sizes) + 1)
    new[:len(sizes)] += sizes
    new -= np.bincount(moved, minlength=len(new))
    new = new[:np.flatnonzero(new)[-1] + 1]
    new_off = np.cumsum(new) - new
    out = np.empty(n, np.int64)
    for o, no, keep in zip(off.tolist(), new_off.tolist(), np.minimum(sizes, new[:len(sizes)]).tolist()):
        out[no:no + keep] = flat[o:o + keep]
    k, j = np.divmod(slot[last], n)
    kept = j < new[k]
    out[new_off[k[kept]] + j[kept]] = vertex[2 * len(steps):][kept]
    return vertex[:2 * len(steps)], out, new


def _run_classes(cfg: ProcessConfig, rng: random.Random, ends: np.ndarray | None = None,
                 j: int = 0) -> Run:
    """The general-f multigraph rule in numpy batches (_batches) of five
    draws per step (_class_draws), whose moves _class_moves applies to the
    class lists, kept in one array of the n vertices.  A batch that ends
    at a special step waits for it: _class_slots makes that step with its
    own draws, and it is applied with the batch, since a _class_moves call
    costs about as much for one step as for thousands.  A batch holds at
    most _OUTCOME_CHUNK / 2 steps, and n / (classes + 1) steps or
    _HANDOVER, the larger, so that its class sizes take about n entries.
    The run goes on from step j of ends, its classes listed in vertex
    order.
    """
    n, m_max = cfg.n, cfg.m_max
    F = _scaled(cfg.weight_rule.table)
    if ends is None:
        ends = np.empty(2 * m_max, np.int64)
    deg = np.bincount(ends[:2 * j], minlength=n)
    # class k's members are flat[off[k]:off[k] + sizes[k]]
    sizes, flat = np.bincount(deg), np.argsort(deg, kind="stable")
    held = None  # a batch that waits for its special step: first step, rows, sizes after them

    def move(j: int, steps: np.ndarray, loop: bool = False) -> None:
        nonlocal flat, sizes
        if len(steps):
            ends[2 * j:2 * (j + len(steps))], flat, sizes = _class_moves(flat, sizes, n, steps, loop)

    def batch(j: int, u: np.ndarray) -> int:
        nonlocal held
        s, N, k, idx = _class_draws(sizes, F, u)
        r = np.arange(s)
        kv, kw = k[:, :s]
        steps = np.stack((kv, idx[0, :s], kw, idx[1, :s],
                          N[kv, r], N[kv + 1, r], N[kw, r], N[kw + 1, r]), axis=1)
        if s == len(u):
            move(j, steps)
        else:
            held = j, steps, N[:, s].tolist() + [0, 0]
        return s

    def special(j: int) -> bool:
        first, steps, size = held
        try:
            x, y = _class_slots(size, F, n, rng)
        except ProcessExhausted:
            move(first, steps)  # an exhausted run still ends with the batch's steps
            raise
        (a, ja), (c, jc) = divmod(x, n), divmod(y, n)
        if x == y:
            c, jc = a + 1, size[a + 1]
        row = [a, ja, c, jc, size[a], size[a + 1], size[c], size[c + 1]]
        move(first, np.vstack((steps, [row])), x == y)
        return True

    def handover(j: int) -> tuple:
        # the engine reads the run's edge count, not its endpoints
        if held is not None:
            move(*held[:2])
        off = np.cumsum(sizes) - sizes
        return (RunGraph(n, [0] * (2 * j), None),
                [flat[o:o + c].tolist() for o, c in zip(off.tolist(), sizes.tolist())])

    return _batches(cfg, rng, ends, m_max, 5,
                    lambda: min(_OUTCOME_CHUNK // 2, max(_HANDOVER, n // (len(sizes) + 1))),
                    batch, special, handover, j)


def _first_reach(ends: np.ndarray, K: float) -> int | None:
    """The index of the first endpoint in ends whose vertex occurs there
    for the K-th time, None when none occurs K times."""
    if K > len(ends):
        return None  # with no bincount: K = inf for the linear-alpha rule
    count = np.bincount(ends)
    if count.max() < K:
        return None
    at = np.flatnonzero(count[ends] >= K)
    v = ends[at]
    order = np.argsort(v, kind="stable")
    first = np.flatnonzero(np.diff(v[order], prepend=-1))
    return int(at[order[first + K - 1]].min())


def _run_urn(cfg: ProcessConfig, rng: random.Random) -> Run:
    """A multigraph run of urn form (alpha, K) (_urn_form): the
    LinearAlpha(alpha) urn's run (_urn_endpoints) up to step h, the first
    to start with a degree of K or more, then _run_classes from h's first
    draw.  The urn is drawn for all steps only when no degree reaches K in
    the first _HANDOVER K, so an early crossing costs no whole urn run.
    No name holds the draws on return: they are freed before the record
    arrays are allocated (holding them cost about 1 ms per replicate at
    n = 10^5)."""
    n, m = cfg.n, cfg.m_max
    alpha, K = _urn_form(cfg)
    # only a run of 2m >= K endpoints can reach K and go back
    saved = rng.getstate() if K <= 2 * m else None
    steps = min(m, _HANDOVER * K)
    u = _mt_uniforms(rng, 4 * steps)
    while True:
        urn = _urn_endpoints(n, alpha * n, u[None, :])[0]
        p = _first_reach(urn, K)
        if p is not None or steps == m:
            break
        u = np.concatenate((u, _mt_uniforms(rng, 4 * (m - steps))))
        steps = m
    del u
    h = m if p is None else p // 2 + 1
    if h == m:
        return urn, m, None
    _rewind(rng, saved, 4 * h)
    ends = np.empty(2 * m, np.int64)
    ends[:2 * h] = urn[:2 * h]
    return _run_classes(cfg, rng, ends, h)


def _runner(cfg: ProcessConfig, rng: random.Random) -> Callable[[ProcessConfig, random.Random], Run]:
    """The runner of cfg: when rng is a plain random.Random, whose random()
    numpy reproduces, the bulk runner of r-stub runs with a step to make
    and rn >= 8 _HANDOVER draws to shuffle, whatever m is, linear-alpha
    simple runs and multigraph runs of _HANDOVER steps or more (the
    measured crossover) of the linear-alpha rule and of general f whose
    class masses start positive (f(0) > 0) and stay below 2^36 (n max F),
    from the urn for an urn form (_urn_form); stepping otherwise, which
    ends an f(0) = 0 run before any draw."""
    rule = cfg.weight_rule
    if type(rng) is not random.Random:
        return _run_stepped
    if isinstance(rule, NegativeInteger):
        return _run_stub if cfg.m_max and rule.r * cfg.n >= 8 * _HANDOVER else _run_stepped
    if cfg.mode == "simple":
        return _run_urn_simple if isinstance(rule, LinearAlpha) else _run_stepped
    if cfg.m_max < _HANDOVER:
        return _run_stepped
    if isinstance(rule, GeneralF):
        F = _scaled(rule.table)
        if not (0 < F[0] and cfg.n * max(F) < 2 ** 36):
            return _run_stepped
    return _run_urn if _urn_form(cfg) else _run_classes


def sample_edges(cfg: ProcessConfig, rng: random.Random | None = None
                 ) -> tuple[np.ndarray, int, str | None]:
    """One run of cfg (from random.Random(cfg.seed) by default), made by
    _runner's runner: its int64 endpoint array, the edge count reached,
    and the exhaustion message, None when the run reached m_max."""
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
        raise ProcessExhausted(reason, m_reached=m, trajectory=Trajectory(records, m, True, reason))
    return Trajectory(records, m, False)


def _count_outcomes(ends: np.ndarray, n: int, out: Counter) -> None:
    """Add the canonical edge multiset of every run (a row of 2m endpoints)
    to out, in the order of first appearance, as stepping would."""
    runs, k = ends.shape
    v, w = ends[:, 0::2], ends[:, 1::2]
    pairs = np.minimum(v, w) * n + np.maximum(v, w)
    if k == 4:
        a, b = pairs.T
        pairs = np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1)
    else:
        pairs.sort(axis=1)
    if (n * n) ** (k // 2) < 2 ** 63:
        code = np.zeros(runs, np.int64)
        for j in range(k // 2):
            code = code * (n * n) + pairs[:, j]
    else:
        # rows whose codes would overflow are numbered by np.unique instead
        code = np.unique(pairs, axis=0, return_inverse=True)[1].reshape(runs)
    count = _first_counts(code)
    for i in np.flatnonzero(count):
        key = pairs[i].tolist()
        out[tuple((x // n, x % n) for x in key)] += int(count[i])


def _urn_simple_chunk(n: int, an: float, m: int, u: np.ndarray,
                      want: int) -> tuple[np.ndarray, int]:
    """Up to `want` consecutive linear-alpha simple runs of m >= 1 edges
    from the proposal draws u (one row of four per proposal): their
    endpoints, one row per run, and the number of proposals they use.

    The run that would start at each proposal is worked out, all at once.
    At step 0 both endpoints are fresh (t = an), so that run's first edge
    is the next proposal with two distinct vertices, and runs are kept by
    that proposal, one lane each.  At step j each proposal endpoint is a
    symbol: its vertex if fresh, else n + 2 plus the endpoint it copies.  A
    lane owns a table of the symbols' values, the numbers 0..n + 1 and
    then its own endpoints, so one gather resolves an endpoint.  Each lane
    searches on from its last edge, past loops and repeats of its own
    pairs, to a sentinel proposal after the last one: the pair (n, n + 1),
    which ends a lane that would leave the chunk.  The runs from proposal 0
    on then follow one another, found by pointer doubling.
    """
    rows = len(u)
    # row 0 of each: the first endpoint of every proposal, row 1 the second
    ua, ub = u[:, 0::2].T, u[:, 1::2].T
    vertex = _urn_pick(n, an, 0.0, ua, ub)[1]
    starts = np.flatnonzero(vertex[0] != vertex[1])
    lanes, base, width = len(starts), n + 2, n + 2 + 2 * m
    table = np.empty((lanes, width), np.int64)
    table[:, :base] = np.arange(base)
    table[:, base:base + 2] = vertex[:, starts].T
    flat = table.reshape(-1)
    # a lane's pairs as min * width + max, one row per step
    keys = np.empty((m, lanes), np.int64)
    v, w = vertex[:, starts]
    keys[0] = np.minimum(v, w) * width + np.maximum(v, w)
    nxt = starts + 1
    for j in range(1, m):
        fresh, vertex, source = _urn_pick(n, an, 2.0 * j, ua, ub)
        sv, sw = np.append(np.where(fresh, vertex, base + source), [[n], [n + 1]], axis=1)
        live = lane = np.flatnonzero(nxt <= rows)
        if not len(live):
            break
        at = nxt[lane]
        while len(lane):
            row = lane * width
            v, w = flat[row + sv[at]], flat[row + sw[at]]
            key = np.minimum(v, w) * width + np.maximum(v, w)
            bad = v == w
            for c in range(j):
                bad |= keys[c, lane] == key
            at += 1
            nxt[lane] = at
            again = np.flatnonzero(bad)
            lane, at = lane[again], at[again]
        row, at = live * width, nxt[live] - 1
        v, w = flat[row + sv[at]], flat[row + sw[at]]
        table[live, base + 2 * j] = v
        table[live, base + 2 * j + 1] = w
        keys[j, live] = np.minimum(v, w) * width + np.maximum(v, w)
    # run i is followed by the run at the first start past its last
    # proposal; a run that left the chunk ends the chain at `lanes`
    alive = np.append(nxt <= rows, False)
    step = np.append(np.where(alive[:-1], np.searchsorted(starts, nxt), lanes), lanes)
    chain = np.zeros(1, np.int64)
    while len(chain) < want and chain[-1] < lanes:
        chain = np.append(chain, step[chain])
        step = step[step]
    chain = chain[:np.count_nonzero(alive[chain[:want]])]
    return table[chain, base:], int(nxt[chain[-1]]) if len(chain) else 0


def _stacked(cfg: ProcessConfig, runs: int, rng: random.Random) -> np.ndarray:
    """The endpoints of the next `runs` runs of cfg, made by _runner's
    runner, one row of 2 m_max per run.  The first run that exhausts
    raises ProcessExhausted."""
    run = _runner(cfg, rng)
    flat: list[int] = []
    for _ in range(runs):
        ends, _, reason = run(cfg, rng)
        if reason is not None:
            raise ProcessExhausted(reason)
        flat.extend(ends)
    return np.array(flat, np.int64).reshape(runs, 2 * cfg.m_max)


def _rows(cfg: ProcessConfig, runs: int, rng: random.Random) -> Iterator[np.ndarray]:
    """The endpoints of `runs` runs of cfg, in chunks of one row of 2 m_max
    per run.  From a plain random.Random, linear-alpha simple runs of 1 <=
    m_max <= n(n-1)/2 edges come in lanes (_urn_simple_rows), and a
    multigraph chunk of _OUTCOME_CHUNK runs at most is one draw for urn
    runs that start no step at degree K (_urn_form), or one shuffle of a
    row per r-stub run of m_max >= 1, read backwards in pairs.  Every other
    chunk is _runner's runs, stacked (_stacked)."""
    n, m, rule = cfg.n, cfg.m_max, cfg.weight_rule
    plain, simple = type(rng) is random.Random, cfg.mode == "simple"
    if plain and simple and isinstance(rule, LinearAlpha) and 0 < m <= n * (n - 1) // 2:
        yield from _urn_simple_rows(cfg, runs, rng)
        return
    form = plain and _urn_form(cfg)
    for done in range(0, runs, _OUTCOME_CHUNK):
        k = min(_OUTCOME_CHUNK, runs - done)
        # one draw at every m_max, though _runner steps a short single run
        if form and 2 * (m - 1) < form[1]:
            yield _urn_endpoints(n, form[0] * n, _mt_uniforms(rng, k * 4 * m).reshape(k, 4 * m))
        elif plain and not simple and isinstance(rule, NegativeInteger) and m:
            yield _shuffled_stubs(n, rule.r, k, functools.partial(_mt_uniforms, rng))[:, ::-1][:, :2 * m]
        else:
            yield _stacked(cfg, k, rng)


def _urn_simple_rows(cfg: ProcessConfig, runs: int, rng: random.Random) -> Iterator[np.ndarray]:
    """The endpoint rows of `runs` linear-alpha simple runs of 1 <= m_max <=
    n(n-1)/2 edges, in chunks of proposals.  The proposals a chunk's runs
    leave unused are carried to the head of the next chunk, which draws at
    least as many new ones: the first run they start left the chunk, so
    they hold no whole run.  So a chunk that holds no whole run is followed
    by one at least twice as long, and a run longer than the longest chunk
    is made on its own by the rule's runner.  rng is set back to just after
    the used proposals once, at the end, or before such a run."""
    n, m, alpha = cfg.n, cfg.m_max, cfg.weight_rule.alpha
    an = alpha * n
    # at step j each of the n(n-1)/2 - j free pairs is proposed with chance
    # at least 2 (alpha / (2j + an))^2, so a run's expected proposals are
    # at most `bound`, which sizes the first chunk
    j = np.arange(m)
    bound = float((((2 * j + an) / alpha) ** 2 / (n * (n - 1) - 2 * j)).sum())
    # chunks of about this many proposals (a few times it at most) reach no
    # step's rejection cap and keep their lane tables, n + 2 + 2m numbers
    # each and a lane at most per proposal, to a few MB
    longest = min(_OUTCOME_CHUNK, _REJECTION_CAP, 64 * _OUTCOME_CHUNK // (n + 2 + 2 * m))
    done = used_total = 0
    carried = np.empty((0, 4))
    # the first unused proposal is `ahead` draws past `state`
    state, ahead = rng.getstate(), 0
    while done < runs:
        # 5% over the proposals per run so far, for the runs left
        per_run = used_total / done if used_total else bound
        size = min(math.ceil(1.05 * per_run * (runs - done)), longest)
        drawn, c = rng.getstate(), len(carried)
        u = np.concatenate((carried, _mt_uniforms(rng, 4 * max(size - c, c)).reshape(-1, 4)))
        ends, used = _urn_simple_chunk(n, an, m, u, runs - done)
        carried = u[used:]
        if not used:
            if len(u) >= longest:
                _rewind(rng, state, ahead)
                yield _stacked(cfg, 1, rng)
                done += 1
                carried = carried[:0]
                state, ahead = rng.getstate(), 0
            continue
        state, ahead = drawn, 4 * (used - c)
        yield ends
        done += len(ends)
        used_total += used
    _rewind(rng, state, ahead)


def sample_process_outcomes(cfg: ProcessConfig, runs: int, rng: random.Random) -> Counter:
    """Repeatedly run a tiny process and count final edge multisets.

    Used by the statistical equivalence suites; outcomes are keyed as
    oracle.canonical_key keys the oracle's exact laws.  The runs come in
    the chunks that _rows makes; the first run that exhausts raises
    ProcessExhausted.
    """
    cfg.validate()
    if not _is_count(runs, 0):
        raise ValueError(f"runs must be an integer >= 0, got {runs!r}")
    out: Counter = Counter()
    for ends in _rows(cfg, runs, rng):
        _count_outcomes(ends, cfg.n, out)
    return out


# ---------------------------------------------------------------------------
# rewiring chain
# ---------------------------------------------------------------------------


def _check_chain(n: int, ends: Sequence[int], alpha: float) -> None:
    """The rewiring chain's input checks, made before any draw."""
    if not _is_count(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if len(ends) % 2 or len(ends) == 0:
        raise ValueError(f"ends must hold a positive even number of endpoints, got {len(ends)}")
    for i, x in enumerate(ends):
        if not (_is_count(x, 0) and x < n):
            raise ValueError(f"ends[{i}] must be a vertex of [0, {n}), got {x!r}")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")


def _rewire(n: int, ends: list[int], deg: list[int], an: float, rand) -> None:
    """One rewiring step on checked input; an = alpha * n."""
    two_m = len(ends)
    e = int(rand() * (two_m >> 1))
    a, b = ends[2 * e], ends[2 * e + 1]
    v = a if rand() < 0.5 else b
    if rand() * (two_m + an) < an:
        w = int(rand() * n)
    else:
        w = ends[int(rand() * two_m)]
    deg[a] -= 1
    deg[b] -= 1
    deg[v] += 1
    deg[w] += 1
    ends[2 * e] = v
    ends[2 * e + 1] = w


def rewiring_step(n: int, ends: list[int], deg: list[int], alpha: float,
                  rng: random.Random) -> None:
    """Replace a uniform endpoint of a uniform edge by a preferential one.

    Edge e of the graph on [0, n) is (ends[2e], ends[2e+1]), and deg must
    be its degrees (a loop counts 2); both are updated in place, and the
    rewired edge e becomes (kept endpoint, new endpoint).  The new endpoint
    w is drawn with weight d_w + alpha on the graph as it stands (the edge
    about to be removed still counted): the exact tiny-instance
    stationarity check singles out this convention.
    """
    _check_chain(n, ends, alpha)
    if len(deg) != n:
        raise ValueError(f"deg must have n = {n} entries, got {len(deg)}")
    _rewire(n, ends, deg, alpha * n, rng.random)


def rewiring_degree_average(n: int, ends: list[int], alpha: float, steps: int,
                            rng: random.Random) -> Counter:
    """Run the rewiring chain from the graph `ends` on [0, n), rewired in
    place, and accumulate degree counts every 1000 steps after a burn-in of
    half the steps.

    Returns a Counter over degrees whose total is n * (number of snapshots).
    """
    _check_chain(n, ends, alpha)
    if not _is_count(steps, 0):
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    deg = np.bincount(ends, minlength=n).tolist()
    an = alpha * n
    rand = rng.random
    burn_in = steps // 2
    acc: Counter = Counter()
    for step in range(steps):
        _rewire(n, ends, deg, an, rand)
        if step >= burn_in and (step - burn_in) % 1000 == 0:
            acc.update(deg)
    return acc


# ---------------------------------------------------------------------------
# direct degree-sequence samplers
# ---------------------------------------------------------------------------


def sample_configuration_model(deg: Sequence[int], rng: random.Random) -> np.ndarray:
    """Uniform stub matching: shuffle the stub multiset, pair consecutively.

    Returns the shuffled stubs as an int64 endpoint array, edge i at
    (ends[2i], ends[2i+1]), so _records and stats.kcore_census read it as
    they read a run's endpoints.
    """
    for i, d in enumerate(deg):
        if not _is_count(d, 0):
            raise ValueError(f"deg[{i}] must be an integer >= 0, got {d!r}")
    if sum(deg) % 2:
        raise ValueError("degree sum must be even")
    stubs = np.repeat(np.arange(len(deg)), np.asarray(deg, np.int64)).tolist()
    rng.shuffle(stubs)
    return np.array(stubs, np.int64)


def sample_birth_degrees(n: int, alpha: float, t: float, rng: random.Random) -> list[int]:
    """n independent pure-birth values at time t, rates k + alpha from 0.

    Simulates the exponential holding times directly (the path under test),
    so each value is NB(alpha, 1 - e^{-t}) by construction, not by pmf
    inversion.
    """
    if not _is_count(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
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
    degree count of 2m Polya-urn draws (Blackwell & MacQueen 1973), and
    the linear-alpha multigraph run of m edges is that urn: so it is the
    degree count of such a run from rng, made by sample_edges.
    """
    if not _is_count(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not _is_count(m, 0):
        raise ValueError(f"m must be an integer >= 0, got {m!r}")
    ends = sample_edges(ProcessConfig(n, LinearAlpha(alpha), "multigraph", m_max=m), rng)[0]
    return np.bincount(ends, minlength=n).tolist()
