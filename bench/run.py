"""pagiant benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

With --trace 0 the workload's timed calls repeat, on the same generated
inputs, until the next pass would end past S seconds (at least three
passes); it reports the median setup_s of three fresh interpreters
and the mean pass time wall_s, both at the reference pace of pace.py,
edges_per_s from wall_s, and peak_rss_mb.  With
--trace 1 it runs the calls untraced, then replays them through public
calls with spans and per-step counters, asserts that the replays give the
same output bytes, and reports the per-layer metrics.  Every output is
checked against theory and the exact oracles; the last stdout line is
the JSON result, and the exit code is nonzero if any check failed.
--smoke runs every workload both ways at reduced size and asserts that
every metric of BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from pace import Pace
from tracing import Tracer, write_trace
from workloads import WORKLOADS, Op, Pass

ROOT = workloads.ROOT
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
MIN_REPS = 3
SETUP_ROUNDS = 3
SETUP_TIMEOUT_S = 120
STEP_LAYERS = ("processes.sample", "graph_core.add_edge", "graph_core.union", "processes.sync")
WRITER_SPANS = ("cli.write_trajectory_csv", "cli.write_degree_csv", "cli.write_summary_json")


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"workload": name, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def setup_seconds(name: str, seed: int, smoke: bool, rounds: int) -> list[float]:
    """Set-up time of `rounds` fresh interpreters, measured inside each."""
    out = []
    for _ in range(rounds):
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]
        if smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _failed(ops: list[Op], why: str) -> list[Op]:
    return [Op(op.name, False, why) for op in ops] or [Op("run", False, why)]


def measure_untraced(name: str, seed: int, seconds: float, smoke: bool, work: Path):
    wl = WORKLOADS[name]
    inp = wl.inputs(seed, smoke)
    setups = setup_seconds(name, seed, smoke, 1 if smoke else SETUP_ROUNDS)
    pace = Pace()
    walls: list[float] = []
    edges: list[int] = []
    ops: list[Op] = []
    first: tuple[Pass, list[Op]] | None = None
    started = time.perf_counter()
    while True:
        out = work / f"rep{len(walls)}"
        seg0 = len(pace.segments)
        pace.start()
        try:
            res = wl.run(inp, out, pace.tick)
        except Exception:
            traceback.print_exc()
            res = None
        pace.tick()
        walls.append(sum(pace.segments[seg0:]))
        if res is None:
            ops += _failed(first[1] if first else [], "raised")
        elif first is None:
            try:
                first = (res, wl.check(inp, res))
            except Exception:
                traceback.print_exc()
                first = (res, [Op("check", False, "check raised")])
            ops += first[1]
            edges.append(res.edges)
        else:
            same = res.outputs == first[0].outputs
            ops += first[1] if same else _failed(first[1], "output bytes differ from the first pass")
            edges.append(res.edges)
        shutil.rmtree(out, ignore_errors=True)
        # Stop before a pass that would end past the window, so that a run
        # lasts --seconds whatever the pass length.
        elapsed = time.perf_counter() - started
        if len(walls) >= (1 if smoke else MIN_REPS) and elapsed * (1 + 1 / len(walls)) > seconds:
            break
    # The window's mean pass over its mean kernel time: medians of a few
    # passes and per-segment pacing both spread more between runs.  Set-up
    # ran just before the window, so the window's kernel paces it too; a
    # kernel inside each short set-up probe samples too little.
    wall = pace.at_ref_pace(statistics.fmean(walls))
    metrics = {
        "setup_s": pace.at_ref_pace(statistics.median(setups)),
        "wall_s": wall,
        "edges_per_s": statistics.median(edges or [0]) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"raw_setup_s": setups, "raw_wall_s": walls, "edges": edges,
               "kernel_s": pace.refs}
    return metrics, samples, ops, []


def layer_metrics(coarse: Tracer, step: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    simulate_calls = len(coarse.durations("cli.simulate"))
    outcome_runs = coarse.counters["processes.outcome_runs"]
    unions = step.counters["graph_core.union.calls"]
    merges = step.counters["graph_core.merges"]
    return {
        "processes.sample_ns_per_step": step.per_call_ns("processes.sample"),
        "graph_core.add_edge_ns_per_step": step.per_call_ns("graph_core.add_edge"),
        "graph_core.union_ns_per_step": step.per_call_ns("graph_core.union"),
        "processes.sync_ns_per_step": step.per_call_ns("processes.sync"),
        "processes.checkpoint_ms": step.mean_ns("processes.checkpoint") / 1e6,
        "graph_core.component_stats_ms": step.mean_ns("graph_core.component_stats") / 1e6,
        "processes.state_init_ms": step.per_call_ns("processes.state_init") / 1e6,
        "processes.outcomes_us_per_run":
            sum(coarse.durations("processes.sample_process_outcomes")) / outcome_runs / 1e3
            if outcome_runs else 0.0,
        "processes.conditioned_ms_per_draw": coarse.mean_ns("processes.sample_conditioned_degrees") / 1e6,
        "oracle.enumerate_ms": coarse.mean_ns("oracle.enumerate_process") / 1e6,
        "oracle.equivalence_ms": coarse.mean_ns("oracle.verify_conditional_equivalence") / 1e6,
        "stats.chi_square_ms": coarse.mean_ns("stats.chi_square_counts") / 1e6,
        "cli.run_replicate_s": coarse.mean_ns("cli.run_replicate") / 1e9,
        "cli.write_ms": sum(sum(coarse.durations(s)) for s in WRITER_SPANS) / simulate_calls / 1e6
            if simulate_calls else 0.0,
        "cli.bytes_written": coarse.counters["cli.bytes_written"] / simulate_calls if simulate_calls else 0.0,
        "stats.aggregate_ms": coarse.mean_ns("stats.aggregate") / 1e6,
        "theory.predict_ms": coarse.mean_ns("theory.predict") / 1e6,
        "processes.steps": step.counters["processes.sample.calls"],
        "processes.checkpoints": len(step.durations("processes.checkpoint")),
        "graph_core.unions": unions,
        "graph_core.merges": merges,
        "graph_core.merge_ratio": merges / unions if unions else 0.0,
        "trace_overhead_frac": traced_s / untraced_s - 1 if untraced_s else 0.0,
    }


def measure_traced(name: str, seed: int, seconds: float, smoke: bool, work: Path):
    wl = WORKLOADS[name]
    inp = wl.inputs(seed, smoke)
    coarse, step = Tracer("coarse"), Tracer("step")
    ops: list[Op] = []
    problems: list[str] = []
    untraced_s = traced_s = 0.0
    started = time.perf_counter()
    iteration = 0
    while True:
        out = work / f"iter{iteration}"
        try:
            res, u, t, mismatches = wl.trace(inp, out, coarse, step)
            checked = wl.check(inp, res)
        except Exception:
            traceback.print_exc()
            ops += _failed([], "raised")
            problems.append("traced run raised")
            break
        untraced_s += u
        traced_s += t
        problems += [f"replay output differs: {m}" for m in mismatches]
        ops += _failed(checked, "replay differs") if mismatches else checked
        shutil.rmtree(out, ignore_errors=True)
        iteration += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / iteration > seconds:
            break
    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    write_trace(trace_path, [coarse, step])
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    for tr in (coarse, step):
        for span, row in sorted(tr.self_times().items()):
            print(f"self_time {tr.label} {span} count={row['count']} "
                  f"total_ms={row['total_ns'] / 1e6:.3f} self_ms={row['self_ns'] / 1e6:.3f}")
    for tag in sorted({key.split("/")[0] for key in step.counters if "/" in key}):
        parts = [f"{layer}_ns_per_step={step.per_call_ns(f'{tag}/{layer}'):.1f}" for layer in STEP_LAYERS]
        parts.append(f"processes.checkpoint_ms={step.per_call_ns(f'{tag}/processes.checkpoint') / 1e6:.3f}")
        print(f"by_spec {name} {tag} " + " ".join(parts))
    return layer_metrics(coarse, step, untraced_s, traced_s), {}, ops, problems


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, list[str]]:
    """Run one measurement; print its report and return the result and the
    metric lines printed."""
    e2e_units, layer_units = metric_units()
    units = layer_units if trace else e2e_units
    work = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    try:
        fn = measure_traced if trace else measure_untraced
        values, samples, ops, problems = fn(name, seed, seconds, smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    problems += [f"metric not computed: {m}" for m in missing]
    failed = sum(not op.ok for op in ops)
    for op in ops:
        if not op.ok:
            print(f"FAIL {name} {op.name}: {op.detail}", file=sys.stderr)
    for p in problems:
        print(f"FAIL {name}: {p}", file=sys.stderr)
    lines = [f"metric {name} {m} {values[m]!r} {units[m]}" for m in units if m in values]
    lines.append(f"metric {name} ops_attempted {len(ops)} count")
    lines.append(f"metric {name} ops_failed_frac {failed / len(ops) if ops else 1.0!r} frac")
    for m, vals in samples.items():
        lines.append(f"samples {name} {m} n={len(vals)} {[round(v, 6) for v in vals]}")
    print("\n".join(lines))
    print("env " + json.dumps(environment(name, seed), sort_keys=True))
    result = {
        "correct": failed == 0 and not problems and bool(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units if m in values},
    }
    return result, lines


def run_smoke() -> int:
    """Every workload, untraced and traced, at reduced size."""
    e2e_units, layer_units = metric_units()
    problems = []
    for name in WORKLOADS:
        for trace, units in ((False, e2e_units), (True, layer_units)):
            result, lines = measure(name, 0, 0.0, trace, smoke=True)
            printed = {}
            for line in lines:
                if line.startswith("metric "):
                    _, _, metric, _, unit = line.split(" ")
                    printed[metric] = unit
            for metric, unit in dict(units, ops_attempted="count", ops_failed_frac="frac").items():
                if printed.get(metric) != unit:
                    problems.append(f"{name}: {metric} not printed with unit {unit}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: not correct")
            print(json.dumps(result))
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print("smoke " + ("ok" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
