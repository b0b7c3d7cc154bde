"""The three benchmark workloads: inputs made from a seed, the timed calls,
the output checks, and the traced replays.

Every workload drives pagiant through its public API from this process,
with `jobs` pinned.  Inputs are plain data made from the workload seed;
the program sees only those generated specs.  Checks are derived from
`pagiant.theory` and `pagiant.oracle`, never from stored output bytes, so
a deliberate change of RNG stream still passes them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "pagiant" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: pagiant sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import pagiant  # noqa: E402
from pagiant import cli, oracle, stats, theory  # noqa: E402
from pagiant import processes as P  # noqa: E402

import tracing  # noqa: E402
from tracing import NULL, Tracer  # noqa: E402

if not Path(pagiant.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"benchmark: imported pagiant from {pagiant.__file__}, not from {SRC}")

P_MIN = 1e-3  # every chi-square p-value must exceed this
RHO_TOL = 0.02  # giant-fraction means must lie this close to theory.rho
TV_MAX = 0.01  # degree-law total variation bound
SIM_JOBS = 1


def _no_tick() -> None:
    pass


def derive_seed(*parts) -> int:
    """A 32-bit seed from the workload seed and a label; stable across runs."""
    text = ":".join(str(p) for p in ("pagiant-bench",) + parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "big")


@dataclass
class Op:
    """One operation: a replicate or a tiny-law check."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Pass:
    """What one execution of a workload's timed calls produced."""

    edges: int
    outputs: dict[str, bytes]
    raw: Any = None  # results the checks need beyond the output bytes


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# simulate workloads: linear_multi and sequential_rules
# ---------------------------------------------------------------------------


def _sim_spec(tag: str, n: int, rule: dict, mode: str, m_max: int, checkpoints: list[int],
              seed: int, eps: float | None, replicates: int) -> dict:
    spec = {
        "n": n, "weight_rule": rule, "mode": mode, "m_max": m_max,
        "checkpoints": checkpoints, "seed": seed, "replicates": replicates,
        "outputs": {"trajectory_csv": f"{tag}_traj.csv", "degree_csv": f"{tag}_deg.csv",
                    "summary_json": f"{tag}_summary.json"},
    }
    if eps is not None:
        spec["comparison"] = {"eps": eps}
    return spec


def linear_multi_inputs(seed: int, smoke: bool) -> dict:
    n = 50_000 if smoke else 100_000
    cps = [0, n // 10, n // 5, n // 4, 3 * n // 10]
    return {"specs": [_sim_spec("linear_multi", n, {"kind": "linear_alpha", "alpha": 1.0},
                                "multigraph", cps[-1], cps, derive_seed("linear_multi", seed), 0.2, 2)]}


def sequential_rules_inputs(seed: int, smoke: bool) -> dict:
    n = 30_000 if smoke else 100_000
    mc = n // 4  # m_c = n a / (2 (a + 1)) at a = 1
    # One replicate per spec: each `cmd_simulate` call is one paced
    # segment, and segments of 0.3-2 s follow the host's phases closely.
    return {"specs": [
        _sim_spec("linear_simple", n, {"kind": "linear_alpha", "alpha": 1.0}, "simple",
                  3 * mc // 2, [3 * mc // 2], derive_seed("linear_simple", seed), 0.5, 1),
        _sim_spec("stub_r3", n, {"kind": "negative_integer", "r": 3}, "simple",
                  3 * n // 2, [9 * n // 10, 3 * n // 2], derive_seed("stub_r3", seed), 0.2, 1),
        _sim_spec("general_f", n, {"kind": "general_f", "table": [d + 1 for d in range(32)]},
                  "multigraph", n // 2, [n // 2], derive_seed("general_f", seed), None, 1),
    ]}


def sim_setup(inp: dict) -> None:
    for data in inp["specs"]:
        P.ProcessState(cli.parse_spec(data).config)


def sim_run(inp: dict, out: Path, tick: Callable[[], None] = _no_tick) -> Pass:
    """The specs' `cmd_simulate` calls; `tick` runs between two calls."""
    edges = 0
    for i, data in enumerate(inp["specs"]):
        if i:
            tick()
        spec = cli.parse_spec(data)
        summary = cli.cmd_simulate(spec, str(out), SIM_JOBS)
        cfg = spec.config
        short = sum(cfg.m_max - m for m in summary["exhausted"].values())
        edges += spec.replicates * cfg.m_max - short
    return Pass(edges, _outputs(out))


def _read_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(data.decode().splitlines()))


def _check_spec(data: dict, outputs: dict[str, bytes]) -> list[Op]:
    """Per-replicate checks shared by every simulate spec, plus the
    rule-specific ones; a spec-level failure fails every replicate."""
    spec = cli.parse_spec(data)
    cfg = spec.config
    n, tag = cfg.n, data["outputs"]["summary_json"].removesuffix("_summary.json")
    summary = json.loads(outputs[spec.summary_json])
    traj = _read_rows(outputs[spec.trajectory_csv])
    deg = _read_rows(outputs[spec.degree_csv])
    reached = {r: summary["exhausted"].get(str(r), cfg.m_max) for r in range(spec.replicates)}
    rule = data["weight_rule"]["kind"]
    shared: list[str] = []
    if spec.replicates >= 2 and "mc" not in summary:  # cmd_simulate aggregates two or more
        shared.append("summary.json lacks mc")
    if spec.comparison_eps is not None:
        shape = tracing.theory_shape(cfg.weight_rule)
        want = theory.rho(shape, spec.comparison_eps)
        if "theory" not in summary or abs(summary["theory"]["rho"] - want) > 1e-12:
            shared.append("summary.json lacks the theory record")
        m_eps = int(round(theory.m_crit(shape, n) * (1 + spec.comparison_eps)))
        l1s = [int(row["L1"]) / n for row in traj if int(row["m"]) == m_eps]
        if len(l1s) != spec.replicates:
            shared.append(f"{len(l1s)} replicates recorded m = {m_eps}")
        elif abs(sum(l1s) / len(l1s) - want) >= RHO_TOL:
            shared.append(f"mean L1/n = {sum(l1s) / len(l1s):.4f} vs rho = {want:.4f}")
    ops = []
    for r in range(spec.replicates):
        bad = list(shared)
        rows = [row for row in traj if int(row["replicate"]) == r]
        want_ms = [m for m in cfg.checkpoints if m <= reached[r]]
        if [int(row["m"]) for row in rows] != want_ms:
            bad.append("checkpoint schedule differs")
        if reached[r] != cfg.m_max and rule != "negative_integer":
            bad.append(f"exhausted at m = {reached[r]}")
        if rule == "negative_integer" and reached[r] < cfg.m_max - 50:
            bad.append(f"stopped at m = {reached[r]} < 3n/2 - 50")
        s_prev = 1.0
        for row in rows:
            m, s = int(row["m"]), float(row["S"])
            if s < s_prev:
                bad.append(f"S = {s} below 1 or decreasing at m = {m}")
            s_prev = s
            if not 0 <= int(row["L2"]) <= int(row["L1"]) <= n:
                bad.append(f"L1, L2 out of order at m = {m}")
            if cfg.mode == "simple" and (int(row["loops"]) or int(row["multi_edges"])):
                bad.append(f"loops or multi-edges in simple mode at m = {m}")
            hist = {int(d["degree"]): int(d["count"]) for d in deg
                    if int(d["replicate"]) == r and int(d["m"]) == m}
            if not hist:
                bad.append(f"no degree rows at m = {m}")
                continue
            if sum(hist.values()) != n or sum(k * c for k, c in hist.items()) != 2 * m:
                bad.append(f"degree counts do not sum to n and 2m at m = {m}")
            if rule == "negative_integer" and max(hist) > data["weight_rule"]["r"]:
                bad.append(f"degree {max(hist)} above r at m = {m}")
            if rule == "general_f" and m == cfg.m_max:
                tv = stats.tv_distance(stats.DegreeHistogram.from_counts(hist),
                                       theory.NegBinomial(1.0, 0.5))
                if tv >= TV_MAX:
                    bad.append(f"degree TV = {tv:.4f} vs NB(1, 1/2)")
        if rule == "linear_alpha" and cfg.mode == "multigraph" and rows:
            l1 = int(rows[-1]["L1"]) / n
            want = theory.rho(1.0, spec.comparison_eps)
            if abs(l1 - want) >= RHO_TOL:
                bad.append(f"final L1/n = {l1:.4f} vs rho = {want:.4f}")
        ops.append(Op(f"{tag}/replicate{r}", not bad, "; ".join(bad)))
    return ops


def sim_check(inp: dict, res: Pass) -> list[Op]:
    return [op for data in inp["specs"] for op in _check_spec(data, res.outputs)]


def sim_trace(inp: dict, out: Path, coarse: Tracer, step: Tracer) -> tuple[Pass, float, float, list[str]]:
    """Untraced `cmd_simulate`, then a coarse and a step-traced replay of it.

    Returns the untraced pass, the untraced and step-traced seconds of the
    same work, and any replay whose output bytes differ.
    """
    t0 = time.perf_counter()
    base = sim_run(inp, out / "untraced")
    untraced_s = time.perf_counter() - t0
    for data in inp["specs"]:
        tracing.replay_simulate(cli.parse_spec(data), out / coarse.label, coarse,
                                tracing.run_one_untraced)
    traced_s = 0.0
    for data in inp["specs"]:
        before, first_span = Counter(step.counters), len(step.spans)
        t0 = time.perf_counter()
        tracing.replay_simulate(cli.parse_spec(data), out / step.label, step,
                                tracing.run_one_stepped)
        traced_s += time.perf_counter() - t0
        # per-spec copies of the step counters, for the per-rule breakdown
        tag = data["outputs"]["summary_json"].removesuffix("_summary.json")
        for key, value in (step.counters - before).items():
            step.counters[f"{tag}/{key}"] += value
        for rec in step.spans[first_span:]:
            if rec[0] == "processes.checkpoint":
                step.add(f"{tag}/processes.checkpoint", rec[2] - rec[1])
    mismatches = [f"{tr.label}/{name}" for tr in (coarse, step)
                  for name, data in _outputs(out / tr.label).items() if base.outputs.get(name) != data]
    return base, untraced_s, traced_s, mismatches


# ---------------------------------------------------------------------------
# tiny_laws
# ---------------------------------------------------------------------------

TINY_N, TINY_M = 3, 2
TINY_ALPHAS = ("1/2", "1", "2")
TINY_MODES = ("multigraph", "simple")
EQUIVALENCE_GRID = [(n, m, a) for n in (1, 2, 3) for m in (1, 2) for a in TINY_ALPHAS]
TICK_DRAWS = 250  # conditioned draws between two ticks, about 0.6 s


def tiny_inputs(seed: int, smoke: bool) -> dict:
    return {
        "runs": 2_000 if smoke else 20_000,
        "draws": 100 if smoke else 1_000,
        "seeds": {f"{a}/{mode}": derive_seed("tiny", seed, a, mode)
                  for a in TINY_ALPHAS for mode in TINY_MODES},
        "conditioned_seed": derive_seed("conditioned", seed),
    }


def _tiny_cfg(alpha: str, mode: str) -> P.ProcessConfig:
    return P.ProcessConfig(n=TINY_N, weight_rule=P.LinearAlpha(float(Fraction(alpha))),
                           mode=mode, m_max=TINY_M)


def _conditioned_law() -> dict[tuple[int, int], float]:
    """Exact law of two iid NB(1, p) values given their sum is 2 (any p)."""
    nb = theory.NegBinomial(1.0, 0.5)
    w = {(k, 2 - k): nb.pmf(k) * nb.pmf(2 - k) for k in range(3)}
    total = sum(w.values())
    return {k: v / total for k, v in w.items()}


def tiny_setup(inp: dict) -> None:
    for a in TINY_ALPHAS:
        for mode in TINY_MODES:
            P.ProcessState(_tiny_cfg(a, mode))


def tiny_suite(inp: dict, tr, tick: Callable[[], None] = _no_tick) -> dict:
    """The statistical part of `verify` at tiny size; returns raw results.

    `tick` runs between the suite's parts, each under a second long."""
    res: dict = {"outcomes": {}, "conditioned": None, "equivalence": []}
    for a in TINY_ALPHAS:
        for mode in TINY_MODES:
            key = f"{a}/{mode}"
            if res["outcomes"]:
                tick()
            with tr.span("processes.sample_process_outcomes"):
                counts = P.sample_process_outcomes(_tiny_cfg(a, mode), inp["runs"],
                                                   random.Random(inp["seeds"][key]))
            with tr.span("oracle.enumerate_process"):
                exact = oracle.enumerate_process(TINY_N, TINY_M, Fraction(a), mode)
            with tr.span("stats.chi_square_counts"):
                chi = stats.chi_square_counts(counts, {k: float(v) for k, v in exact.items()})
            res["outcomes"][key] = (counts, exact, chi.pvalue)
    rng = random.Random(inp["conditioned_seed"])
    draws: Counter = Counter()
    for i in range(inp["draws"]):
        if i % TICK_DRAWS == 0:
            tick()
        with tr.span("processes.sample_conditioned_degrees"):
            draws[tuple(P.sample_conditioned_degrees(2, 1.0, 1, rng))] += 1
    with tr.span("stats.chi_square_counts"):
        res["conditioned"] = (draws, stats.chi_square_counts(draws, _conditioned_law()).pvalue)
    tick()
    for n, m, a in EQUIVALENCE_GRID:
        with tr.span("oracle.verify_conditional_equivalence"):
            res["equivalence"].append(oracle.verify_conditional_equivalence(n, m, Fraction(a)).ok)
    return res


def _encode_tiny(res: dict) -> bytes:
    """A canonical byte form of the suite's results, for identity checks."""
    outcomes = {k: (sorted(c.items()), p) for k, (c, _, p) in res["outcomes"].items()}
    draws, p = res["conditioned"]
    return repr((sorted(outcomes.items()), sorted(draws.items()), p, res["equivalence"])).encode()


def tiny_run(inp: dict, out: Path, tick: Callable[[], None] = _no_tick) -> Pass:
    res = tiny_suite(inp, NULL, tick)
    edges = len(res["outcomes"]) * inp["runs"] * TINY_M
    return Pass(edges, {"tiny_laws": _encode_tiny(res)}, res)


def _chi_square_failure(name: str, p: float, redraw: Callable[[], float]) -> list[str]:
    """A p-value at or below P_MIN fails only if an independent redraw
    also gives one: a correct sampler then fails a check with probability
    1e-6 instead of 1e-3, and a wrong one still fails both draws."""
    if p > P_MIN:
        return []
    p2 = redraw()
    if p2 <= P_MIN:
        return [f"chi2 p = {p:.2e}, confirmation redraw p = {p2:.2e}"]
    print(f"note: {name} chi2 p = {p:.2e}; confirmation redraw p = {p2:.3f}", file=sys.stderr)
    return []


def tiny_check(inp: dict, res: Pass) -> list[Op]:
    ops = []
    for key, (counts, exact, p) in res.raw["outcomes"].items():
        bad = [f"outcome {k} has exact probability 0" for k in counts if not exact.get(k)]
        bad += _chi_square_failure(key, p, lambda: _redraw_outcomes_p(key, inp))
        ops.append(Op(f"tiny_law/{key}", not bad, "; ".join(bad)))
    draws, p = res.raw["conditioned"]
    bad = [f"draw {k} does not sum to 2" for k in draws if sum(k) != 2]
    bad += _chi_square_failure("conditioned_degrees", p, lambda: _redraw_conditioned_p(inp))
    ops.append(Op("conditioned_degrees", not bad, "; ".join(bad)))
    for (n, m, a), ok in zip(EQUIVALENCE_GRID, res.raw["equivalence"]):
        ops.append(Op(f"equivalence/n{n}m{m}a{a}", ok, "" if ok else "report not ok"))
    return ops


def _redraw_outcomes_p(key: str, inp: dict) -> float:
    a, mode = key.rsplit("/", 1)
    counts = P.sample_process_outcomes(_tiny_cfg(a, mode), inp["runs"],
                                       random.Random(derive_seed("confirm", inp["seeds"][key])))
    exact = oracle.enumerate_process(TINY_N, TINY_M, Fraction(a), mode)
    return stats.chi_square_counts(counts, {k: float(v) for k, v in exact.items()}).pvalue


def _redraw_conditioned_p(inp: dict) -> float:
    rng = random.Random(derive_seed("confirm", inp["conditioned_seed"]))
    draws = Counter(tuple(P.sample_conditioned_degrees(2, 1.0, 1, rng)) for _ in range(inp["draws"]))
    return stats.chi_square_counts(draws, _conditioned_law()).pvalue


def tiny_trace(inp: dict, out: Path, coarse: Tracer, step: Tracer) -> tuple[Pass, float, float, list[str]]:
    base = tiny_run(inp, out)
    spans = tiny_suite(inp, coarse)
    coarse.counters["processes.outcome_runs"] += len(spans["outcomes"]) * inp["runs"]
    mismatches = [] if _encode_tiny(spans) == base.outputs["tiny_laws"] else ["coarse/tiny_laws"]
    for key, (counts, _, _) in base.raw["outcomes"].items():
        a, mode = key.rsplit("/", 1)
        with step.span("processes.replay_outcomes"):
            replayed = tracing.replay_outcomes(_tiny_cfg(a, mode), inp["runs"],
                                               random.Random(inp["seeds"][key]), step)
        if replayed != counts:
            mismatches.append(f"step/{key}")
    untraced_s = sum(coarse.durations("processes.sample_process_outcomes")) / 1e9
    traced_s = sum(step.durations("processes.replay_outcomes")) / 1e9
    return base, untraced_s, traced_s, mismatches


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, bool], dict]
    setup: Callable[[dict], None]
    run: Callable[[dict, Path, Callable[[], None]], Pass]
    check: Callable[[dict, Pass], list[Op]]
    trace: Callable[[dict, Path, Tracer, Tracer], tuple[Pass, float, float, list[str]]]


WORKLOADS = {w.name: w for w in (
    Workload("linear_multi", linear_multi_inputs, sim_setup, sim_run, sim_check, sim_trace),
    Workload("sequential_rules", sequential_rules_inputs, sim_setup, sim_run, sim_check, sim_trace),
    Workload("tiny_laws", tiny_inputs, tiny_setup, tiny_run, tiny_check, tiny_trace),
)}
