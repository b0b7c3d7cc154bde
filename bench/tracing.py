"""In-memory tracing for the benchmark's traced runs.

Coarse calls (a replicate, a checkpoint record, a writer, a tiny-law
call) become spans with name, start, end and parent.  Per-step
calls would drown the record in millions of spans, so the step replays
fold them into count and total-nanosecond counters instead.  Spans are
kept in memory and written out once, when the run ends.

The replays below mirror `processes.run_process`,
`processes.sample_process_outcomes` and `cli.cmd_simulate` through public
calls only.  Callers compare what a replay produces with what the real
call produced on the same seed, so a change to the program's internals
makes the traced run fail instead of timing something else.
"""

from __future__ import annotations

import contextlib
import json
import random
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

from pagiant import cli, stats, theory
from pagiant import processes as P


class Tracer:
    """Spans (name, start_ns, end_ns, parent index) plus named counters."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0, 0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()

    def add(self, name: str, ns: int, calls: int = 1) -> None:
        self.counters[name + ".ns"] += ns
        self.counters[name + ".calls"] += calls

    def durations(self, name: str) -> list[int]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def mean_ns(self, name: str) -> float:
        d = self.durations(name)
        return sum(d) / len(d) if d else 0.0

    def per_call_ns(self, name: str) -> float:
        calls = self.counters[name + ".calls"]
        return self.counters[name + ".ns"] / calls if calls else 0.0

    def self_times(self) -> dict[str, dict[str, int]]:
        """Per span name: count, total ns, and self ns (total minus the
        time covered by child spans)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["count"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        return dict(out)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "spans": [{"name": n, "start_ns": s, "end_ns": e, "parent": p}
                      for n, s, e, p in self.spans],
            "counters": dict(self.counters),
            "self_times": self.self_times(),
        }


class NullTracer:
    """Stands in for a Tracer when a run is not traced."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL = NullTracer()


def write_trace(path: Path, tracers: list[Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([t.to_json() for t in tracers]) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# step replays
# ---------------------------------------------------------------------------


def _checkpoint_record(state: P.ProcessState, m: int, tr: Tracer) -> P.CheckpointRecord:
    with tr.span("processes.checkpoint"):
        with tr.span("graph_core.component_stats"):
            l1, l2, _, _ = state.tracker.component_stats()
        g = state.graph
        counts = np.bincount(np.asarray(g.deg, dtype=np.int64))
        hist = tuple((int(k), int(c)) for k, c in enumerate(counts) if c)
        return P.CheckpointRecord(m=m, l1=l1, l2=l2, s=state.tracker.sum_sq / state.tracker.n,
                                  loops=g.loops, multi_edges=g.multi_edges, degree_hist=hist)


def replay_process(cfg: P.ProcessConfig, rng: random.Random, tr: Tracer) -> P.Trajectory:
    """`run_process` with each step split into its four layer calls, timed."""
    pc = perf_counter_ns
    t0 = pc()
    state = P.ProcessState(cfg)
    tr.add("processes.state_init", pc() - t0)
    sample, sync = state.engine.sample, state.engine.sync
    add_edge, union = state.graph.add_edge, state.tracker.union
    allow_multi = state.allow_multi
    cps = cfg.checkpoints
    n_cps = len(cps)
    records: list[P.CheckpointRecord] = []
    ci = m = 0
    if n_cps and cps[0] == 0:
        records.append(_checkpoint_record(state, 0, tr))
        ci = 1
    ns_sample = ns_add = ns_union = ns_sync = merges = 0
    exhausted = False
    with tr.span("processes.run_process"):
        try:
            while m < cfg.m_max:
                t0 = pc()
                v, w = sample(rng)
                t1 = pc()
                add_edge(v, w, allow_multi)
                t2 = pc()
                info = union(v, w)
                t3 = pc()
                sync(v, w)
                t4 = pc()
                ns_sample += t1 - t0
                ns_add += t2 - t1
                ns_union += t3 - t2
                ns_sync += t4 - t3
                merges += info[0]
                m += 1
                if ci < n_cps and cps[ci] == m:
                    records.append(_checkpoint_record(state, m, tr))
                    ci += 1
        except P.ProcessExhausted:
            exhausted = True
    _fold_steps(tr, m, ns_sample, ns_add, ns_union, ns_sync, merges)
    return P.Trajectory(tuple(records), m, exhausted)


def _fold_steps(tr: Tracer, steps: int, ns_sample: int, ns_add: int, ns_union: int,
                ns_sync: int, merges: int) -> None:
    tr.add("processes.sample", ns_sample, steps)
    tr.add("graph_core.add_edge", ns_add, steps)
    tr.add("graph_core.union", ns_union, steps)
    tr.add("processes.sync", ns_sync, steps)
    tr.counters["graph_core.merges"] += merges


def replay_outcomes(cfg: P.ProcessConfig, runs: int, rng: random.Random, tr: Tracer) -> Counter:
    """`sample_process_outcomes` with state construction and the step calls timed."""
    pc = perf_counter_ns
    out: Counter = Counter()
    m_max = cfg.m_max
    ns_init = ns_sample = ns_add = ns_union = ns_sync = merges = 0
    for _ in range(runs):
        t0 = pc()
        state = P.ProcessState(cfg)
        ns_init += pc() - t0
        sample, sync = state.engine.sample, state.engine.sync
        add_edge, union = state.graph.add_edge, state.tracker.union
        allow_multi = state.allow_multi
        for _ in range(m_max):
            t0 = pc()
            v, w = sample(rng)
            t1 = pc()
            add_edge(v, w, allow_multi)
            t2 = pc()
            info = union(v, w)
            t3 = pc()
            sync(v, w)
            t4 = pc()
            ns_sample += t1 - t0
            ns_add += t2 - t1
            ns_union += t3 - t2
            ns_sync += t4 - t3
            merges += info[0]
        ends = state.graph.ends
        key = tuple(sorted(
            (ends[i], ends[i + 1]) if ends[i] <= ends[i + 1] else (ends[i + 1], ends[i])
            for i in range(0, len(ends), 2)
        ))
        out[key] += 1
    tr.add("processes.state_init", ns_init, runs)
    _fold_steps(tr, runs * m_max, ns_sample, ns_add, ns_union, ns_sync, merges)
    return out


# ---------------------------------------------------------------------------
# command replays
# ---------------------------------------------------------------------------

RunOne = Callable[[P.ProcessConfig, int, int, Tracer], P.Trajectory]


def run_one_untraced(cfg: P.ProcessConfig, seed: int, replicate: int, tr: Tracer) -> P.Trajectory:
    return cli.run_replicate(cfg, seed, replicate)


def run_one_stepped(cfg: P.ProcessConfig, seed: int, replicate: int, tr: Tracer) -> P.Trajectory:
    return replay_process(cfg, random.Random(cli.replicate_seed(seed, replicate)), tr)


def replay_simulate(spec: cli.ExperimentSpec, out: Path, tr: Tracer, run_one: RunOne) -> None:
    """`cli.cmd_simulate` with jobs=1, with a span around each layer call."""
    cfg = spec.config
    with tr.span("cli.simulate"):
        trajectories = []
        for r in range(spec.replicates):
            with tr.span("cli.run_replicate"):
                trajectories.append(run_one(cfg, cfg.seed, r, tr))
        out.mkdir(parents=True, exist_ok=True)
        with tr.span("cli.write_trajectory_csv"):
            cli.write_trajectory_csv(out / spec.trajectory_csv, trajectories)
        with tr.span("cli.write_degree_csv"):
            cli.write_degree_csv(out / spec.degree_csv, trajectories)
        exhausted = {str(r): t.m_reached for r, t in enumerate(trajectories) if t.exhausted}
        prefix_len = min(len(t.records) for t in trajectories)
        trimmed = [P.Trajectory(tuple(t.records[:prefix_len]), t.m_reached, t.exhausted)
                   for t in trajectories]
        summary: dict = {"spec": spec.to_dict(), "exhausted": exhausted}
        if spec.replicates >= 2 and prefix_len:
            with tr.span("stats.aggregate"):
                summary["mc"] = stats.aggregate(trimmed, cfg.n).to_json_dict()
        shape = theory_shape(cfg.weight_rule)
        if spec.comparison_eps is not None and shape is not None:
            with tr.span("theory.predict"):
                summary["theory"] = theory.predict(shape, eps=spec.comparison_eps,
                                                   n=cfg.n).to_json_dict()
        with tr.span("cli.write_summary_json"):
            (out / spec.summary_json).write_text(
                json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    for name in (spec.trajectory_csv, spec.degree_csv, spec.summary_json):
        tr.counters["cli.bytes_written"] += (out / name).stat().st_size


def theory_shape(rule) -> float | None:
    if isinstance(rule, P.LinearAlpha):
        return rule.alpha
    if isinstance(rule, P.NegativeInteger):
        return -rule.r
    return None

