"""Experiment runner: spec ingestion, deterministic parallel Monte Carlo,
structured CSV/JSON output, and the verification suites.

Replicate r of a run with master seed s always uses the RNG stream seeded
by blake2b("s:r"), independent of how replicates are scheduled, so --jobs
never changes results.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import math
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from . import oracle, stats, theory
from .processes import (
    CheckpointRecord,
    GeneralF,
    LinearAlpha,
    NegativeInteger,
    ProcessConfig,
    ProcessExhausted,
    Trajectory,
    rewiring_degree_average,
    run_process,
    sample_birth_degrees,
    sample_conditioned_degrees,
    sample_process_outcomes,
)

ENV_SEED = "PAGIANT_SEED"


class SpecError(ValueError):
    """A spec file failed validation; the message names the offending field."""


# ---------------------------------------------------------------------------
# experiment specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    config: ProcessConfig
    replicates: int
    trajectory_csv: str
    degree_csv: str
    summary_json: str
    comparison_eps: float | None = None

    def validate(self):
        self.config.validate()
        if self.replicates < 1:
            raise SpecError("replicates: must be >= 1")
        paths = {"trajectory_csv": self.trajectory_csv, "degree_csv": self.degree_csv,
                 "summary_json": self.summary_json}
        for key, name in paths.items():
            if os.path.normpath(name) == "." or name.endswith(("/", os.sep)):
                raise SpecError(f"outputs.{key}: must name a file, got {name!r}")
        if len({os.path.normpath(name) for name in paths.values()}) != len(paths):
            raise SpecError("outputs: paths must be distinct")

    def to_dict(self) -> dict:
        rule = self.config.weight_rule
        if isinstance(rule, LinearAlpha):
            rule_d: dict[str, Any] = {"kind": "linear_alpha", "alpha": rule.alpha}
        elif isinstance(rule, NegativeInteger):
            rule_d = {"kind": "negative_integer", "r": rule.r}
        else:
            rule_d = {"kind": "general_f", "table": list(rule.table)}
        out: dict[str, Any] = {
            "n": self.config.n,
            "weight_rule": rule_d,
            "mode": self.config.mode,
            "m_max": self.config.m_max,
            "checkpoints": list(self.config.checkpoints),
            "seed": self.config.seed,
            "replicates": self.replicates,
            "outputs": {
                "trajectory_csv": self.trajectory_csv,
                "degree_csv": self.degree_csv,
                "summary_json": self.summary_json,
            },
        }
        if self.comparison_eps is not None:
            out["comparison"] = {"eps": self.comparison_eps}
        return out

    @functools.cached_property
    def theory_record(self) -> dict | None:
        """summary.json's theory record, made once per spec: parse_spec checks
        the theory's domain with it, and cmd_simulate writes it.  A general-f
        rule has no theory shape, so its summary has no theory record."""
        rule = self.config.weight_rule
        if self.comparison_eps is None or isinstance(rule, GeneralF):
            return None
        shape = _theory_shape(rule, "comparison", "theory records")
        return theory.predict(shape, eps=self.comparison_eps, n=self.config.n).to_json_dict()


def _number(x, field: str) -> float:
    """A spec number (an int or a float, never a bool) as a float; every
    number in a spec must fit a double."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SpecError(f"{field}: expected a number, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise SpecError(f"{field}: integer too large for a double") from None


def _need(d: dict, key: str, kind, path: str):
    if key not in d:
        raise SpecError(f"{path}{key}: missing")
    val = d[key]
    if kind is float:
        return _number(val, f"{path}{key}")
    if not isinstance(val, kind) or isinstance(val, bool) != (kind is bool):
        raise SpecError(f"{path}{key}: expected {kind.__name__}, got {type(val).__name__}")
    if kind is int:
        _number(val, f"{path}{key}")
    return val


def _optional(d: dict, key: str, kind, default):
    """The top-level field key as _need reads it; `default` if absent or null."""
    return default if d.get(key) is None else _need(d, key, kind, "")


def _seed(data: dict) -> int:
    """A spec's seed, else the PAGIANT_SEED environment variable's, else 0."""
    seed, env = _optional(data, "seed", int, None), os.environ.get(ENV_SEED, "0")
    try:
        return int(env) if seed is None else seed
    except ValueError:
        raise SpecError(f"{ENV_SEED}: expected an integer, got {env!r}") from None


def parse_weight_rule(d: dict, path: str = "weight_rule."):
    kind = _need(d, "kind", str, path)
    if kind == "linear_alpha":
        return LinearAlpha(_need(d, "alpha", float, path))
    if kind == "negative_integer":
        return NegativeInteger(_need(d, "r", int, path))
    if kind == "general_f":
        table = _need(d, "table", list, path)
        return GeneralF(table=tuple(_number(x, f"{path}table[{i}]") for i, x in enumerate(table)))
    raise SpecError(f"{path}kind: unknown weight rule {kind!r}")


def _theory_shape(rule, field: str, use: str) -> float:
    """The theory's shape parameter for a rule, alpha or -r; for general f,
    which the theory does not cover, a spec error naming field."""
    if isinstance(rule, LinearAlpha):
        return rule.alpha
    if isinstance(rule, NegativeInteger):
        return -rule.r
    raise SpecError(f"{field}: {use} need a linear or negative-integer rule")


def _read_runs(data, seed_override: int | None = None) -> tuple[ProcessConfig, int]:
    """The run fields that simulate and sweep share: n, weight_rule, mode
    (multigraph when absent or null) and seed as a validated config with no
    edges, and the replicate count, at least 1."""
    if not isinstance(data, dict):
        raise SpecError(": top level must be an object")
    cfg = ProcessConfig(n=_need(data, "n", int, ""),
                        weight_rule=parse_weight_rule(_need(data, "weight_rule", dict, "")),
                        mode=_optional(data, "mode", str, "multigraph"),
                        seed=_seed(data) if seed_override is None else seed_override)
    replicates = _need(data, "replicates", int, "")
    try:
        cfg.validate()
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    if replicates < 1:
        raise SpecError("replicates: must be >= 1")
    return cfg, replicates


def parse_spec(data: dict, seed_override: int | None = None,
               checkpoints_rel: bool = False) -> ExperimentSpec:
    runs, replicates = _read_runs(data, seed_override)
    m_max = _need(data, "m_max", int, "")
    raw_cps = _need(data, "checkpoints", list, "")
    for i, x in enumerate(raw_cps):
        if not math.isfinite(_number(x, f"checkpoints[{i}]")):
            raise SpecError(f"checkpoints[{i}]: must be finite")
    comparison = _optional(data, "comparison", dict, None)
    comparison_eps = None if comparison is None else _need(comparison, "eps", float, "comparison.")
    relative = _optional(data, "checkpoints_rel", bool, False)
    outputs = _need(data, "outputs", dict, "")
    paths = [_need(outputs, key, str, "outputs.")
             for key in ("trajectory_csv", "degree_csv", "summary_json")]
    try:
        if relative or checkpoints_rel:
            shape = _theory_shape(runs.weight_rule, "checkpoints", "relative checkpoints")
            scaled = [x * theory.m_crit(shape, runs.n) for x in raw_cps]
            if not all(math.isfinite(x) for x in scaled):
                raise SpecError("checkpoints: relative entries times m_c must be finite")
            cps = tuple(int(round(x)) for x in scaled)
        else:
            cps = tuple(int(x) for x in raw_cps)
            for i, (x, c) in enumerate(zip(raw_cps, cps)):
                if x != c:
                    raise SpecError(f"checkpoints[{i}]: must be an integer, got {x!r}")
        spec = ExperimentSpec(replace(runs, m_max=m_max, checkpoints=cps), replicates, *paths,
                              comparison_eps=comparison_eps)
        spec.validate()
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    try:
        spec.theory_record  # the theory's own domain check, before any run
    except (ValueError, theory.SolverError) as exc:
        raise SpecError(f"comparison.eps: {exc}") from None
    return spec


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON ({exc})") from None
    except OSError as exc:
        raise SpecError(f"{path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# deterministic replication
# ---------------------------------------------------------------------------


def replicate_seed(seed: int, replicate: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{replicate}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def run_replicate(cfg: ProcessConfig, seed: int, replicate: int) -> Trajectory:
    rng = random.Random(replicate_seed(seed, replicate))
    try:
        return run_process(cfg, rng)
    except ProcessExhausted as exc:
        return exc.trajectory


def run_replicates(cfg: ProcessConfig, seed: int, k: int, jobs: int = 1) -> list[Trajectory]:
    """Replicates 0..k-1 of cfg, replicate r from replicate_seed(seed, r);
    with jobs > 1 they share a pool of at most min(jobs, k) processes."""
    if jobs <= 1 or k <= 1:
        return [run_replicate(cfg, seed, r) for r in range(k)]
    # imported here: it loads multiprocessing, which no single-process command needs
    from concurrent.futures import ProcessPoolExecutor

    # a pool starts all its workers at the first submit, so start no idle ones
    with ProcessPoolExecutor(max_workers=min(jobs, k)) as pool:
        futures = [pool.submit(run_replicate, cfg, seed, r) for r in range(k)]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_outputs(paths: Sequence[Path]) -> None:
    """Raise OSError, before any compute, for an output path that no file
    can take: an existing directory, or a path whose nearest existing
    ancestor is not a directory."""
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "is a directory", str(path))
        parent = next((p for p in path.parents if p.exists()), None)
        if parent is not None and not parent.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, "not a directory", str(parent))


def _write_files(files: Sequence[tuple[Path, str]]) -> None:
    """Write each (path, text) to a temporary file next to path, making the
    missing parent directories, and only then rename each over its path,
    so a failed write leaves no output file and no temporary behind."""
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files]
    try:
        for (path, text), tmp in zip(files, tmps):
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text, encoding="utf-8")
        for (path, _), tmp in zip(files, tmps):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _write_atomic(path: Path, text: str) -> None:
    _write_files([(path, text)])


def _trajectory_csv(trajectories: Sequence[Trajectory]) -> str:
    lines = ["replicate,m,L1,L2,S,loops,multi_edges"]
    for rep, traj in enumerate(trajectories):
        for rec in traj.records:
            lines.append(
                f"{rep},{rec.m},{rec.l1},{rec.l2},{_fmt(rec.s)},{rec.loops},{rec.multi_edges}"
            )
    return "\n".join(lines) + "\n"


def _degree_csv(trajectories: Sequence[Trajectory]) -> str:
    lines = ["replicate,m,degree,count"]
    for rep, traj in enumerate(trajectories):
        for rec in traj.records:
            for degree, count in rec.degree_hist:
                lines.append(f"{rep},{rec.m},{degree},{count}")
    return "\n".join(lines) + "\n"


def write_trajectory_csv(path: Path, trajectories: Sequence[Trajectory]) -> None:
    _write_atomic(path, _trajectory_csv(trajectories))


def write_degree_csv(path: Path, trajectories: Sequence[Trajectory]) -> None:
    _write_atomic(path, _degree_csv(trajectories))


def _json_dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def cmd_simulate(spec: ExperimentSpec, out_dir: str = ".", jobs: int = 1) -> dict:
    """Run the experiment and write the three output files; returns the summary.

    The output paths are checked before any run (_check_outputs), the
    summary is built before anything is written, and the three files are
    written together (_write_files), so a command that fails leaves no
    output file.
    """
    spec.validate()
    out = Path(out_dir)
    paths = [out / name for name in (spec.trajectory_csv, spec.degree_csv, spec.summary_json)]
    _check_outputs(paths)
    cfg = spec.config
    trajectories = run_replicates(cfg, cfg.seed, spec.replicates, jobs)
    exhausted = {str(r): t.m_reached for r, t in enumerate(trajectories) if t.exhausted}
    # aggregate over the longest schedule shared by every replicate
    prefix_len = min(len(t.records) for t in trajectories)
    trimmed = [
        Trajectory(tuple(t.records[:prefix_len]), t.m_reached, t.exhausted)
        for t in trajectories
    ]
    summary: dict[str, Any] = {
        "spec": spec.to_dict(),
        "exhausted": exhausted,
    }
    if spec.replicates >= 2 and prefix_len:
        summary["mc"] = stats.aggregate(trimmed, cfg.n).to_json_dict()
    if spec.theory_record is not None:
        summary["theory"] = spec.theory_record
    _write_files(list(zip(paths, (_trajectory_csv(trajectories), _degree_csv(trajectories),
                                  _json_dumps(summary)))))
    return summary


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SweepKind:
    grid_key: str
    header: str
    m_of: Callable[[float, int, float], float]  # (x, n, shape) -> edge count
    value: Callable[[CheckpointRecord, int], float]  # (record, n) -> statistic
    predict: Callable[[float, float], float]  # (shape, x) -> theory value


_SWEEP_KINDS = {
    "rho_vs_eps": _SweepKind(
        "eps", "eps,m,l1_over_n_mean,l1_over_n_stderr,rho_theory",
        lambda eps, n, a: theory.m_crit(a, n) * (1 + eps),
        lambda rec, n: rec.l1 / n, theory.rho),
    "susceptibility_vs_t": _SweepKind(
        "t", "t,m,s_mean,s_stderr,s_theory",
        lambda t, n, a: t * n,
        lambda rec, n: rec.s, theory.susceptibility_closed),
}


def cmd_sweep(sweep: dict, out_path: str, jobs: int = 1) -> list[str]:
    """Grid sweep: one CSV row per grid point with simulation and theory
    side by side.  Kinds: rho_vs_eps, susceptibility_vs_t.

    The run fields are read as simulate reads them (_read_runs).  The rule
    must have a theory shape, alpha or -r, at which the theory column is
    predicted, so a general-f sweep is a spec error.  Every grid point and
    its theory value is checked before any simulation runs.  Each replicate is then one run, as
    simulate makes it with the same seed, to the largest grid m with a
    checkpoint at every grid m, and each row is read from the replicates'
    records at its m: rows share replicate paths.  A replicate that stops
    short of a row's m raises ProcessExhausted, and no CSV is written."""
    runs, replicates = _read_runs(sweep)
    n, mode = runs.n, runs.mode
    shape = _theory_shape(runs.weight_rule, "weight_rule", "sweeps")
    kind_name = _need(sweep, "kind", str, "")
    kind = _SWEEP_KINDS.get(kind_name)
    if kind is None:
        raise SpecError(f"kind: unknown sweep kind {kind_name!r}")
    grid = _need(sweep, kind.grid_key, list, "")
    _check_outputs([Path(out_path)])
    points = []
    for i, x in enumerate(grid):
        field = f"{kind.grid_key}[{i}]"
        x = _number(x, field)
        try:
            m = int(round(kind.m_of(x, n, shape)))
            if m < 0 or mode == "simple" and m > n * (n - 1) // 2:
                raise ValueError(f"m = {m} cannot be the edge count of a {mode} run on {n} vertices")
            points.append((field, x, m, kind.predict(shape, x)))
        except (TypeError, ValueError, OverflowError, theory.SolverError) as exc:
            raise SpecError(f"{field}: {exc}") from None
    cps = tuple(sorted({m for _, _, m, _ in points}))
    cfg = replace(runs, m_max=max(cps, default=0), checkpoints=cps)
    trajectories = run_replicates(cfg, cfg.seed, replicates, jobs) if cps else []
    lines = [kind.header]
    for field, x, m, predicted in points:
        for r, t in enumerate(trajectories):
            if t.m_reached < m:
                raise ProcessExhausted(f"{field} (m = {m}): replicate {r} stopped at "
                                       f"m = {t.m_reached}: {t.reason}")
        stat = stats._mc_stat([kind.value(t.records[cps.index(m)], n) for t in trajectories])
        lines.append(f"{_fmt(x)},{m},{_fmt(stat.mean)},{_fmt(stat.stderr)},{_fmt(predicted)}")
    _write_atomic(Path(out_path), "\n".join(lines) + "\n")
    return lines


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _stopwatch() -> Callable[[], float]:
    """A clock that returns the seconds since it last did, or since it was
    made: a suite reads it as it records each check, so each check gets
    the time it took to compute."""
    last = time.perf_counter()

    def lap() -> float:
        nonlocal last
        now = time.perf_counter()
        took, last = now - last, now
        return took

    return lap


def _theory_checks() -> list[CheckResult]:
    out = []
    lap = _stopwatch()

    # the two closed forms of the giant fraction agree on a parameter grid
    worst = 0.0
    for a in (0.1, 1.0, 10.0, math.inf):
        for eps in (1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0):
            xi = theory.solve_xi(a, eps)
            power = theory.rho(a, eps)
            if a == math.inf:
                product = 1 - xi
            else:
                product = (1 - xi) * (1 - (1 + eps) * xi / (a + 1))
            worst = max(worst, abs(power - product))
    for a in (-3.0, -5.0):
        for eps in (1e-3, 1e-2, 0.1, min(0.9, -a - 2.1)):
            xi = theory.solve_xi(a, eps)
            power = theory.rho(a, eps)
            product = (1 - xi) * (1 - (1 + eps) * xi / (a + 1))
            worst = max(worst, abs(power - product))
    out.append(CheckResult("rho_forms_agree", worst < 1e-10, f"max |power-product| = {worst:.2e}", lap()))

    # 0 < rho < 2 eps for positive shapes
    ok = True
    for a in (0.1, 1.0, 10.0, math.inf):
        for eps in (1e-3, 0.1, 1.0, 10.0):
            r = theory.rho(a, eps)
            ok = ok and 0 < r < 2 * eps
    out.append(CheckResult("rho_bounds", ok, "0 < rho < 2 eps on positive-shape grid", lap()))

    # Pittel's root gives the same giant fraction
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 5.0):
        for eps in (0.1, 0.3, 0.5, 1.0, 2.0):
            c_a = a / (a + 1)
            c = (1 + eps) * c_a
            cstar = theory.pittel_cstar(a, c)
            lhs = -math.expm1(a * (math.log(a + cstar) - math.log(a + c)))
            worst = max(worst, abs(lhs - theory.rho(a, eps)))
    out.append(CheckResult("pittel_equivalence", worst < 1e-8, f"max residual = {worst:.2e}", lap()))

    # kinetic-theory time change matches near the critical point
    ok = True
    worst = 0.0
    for eps in (1e-3, 1e-2, 1e-1):
        t = theory.bnk_map(4.0, 1.0 + eps)  # m = (1+eps) n/4 with n = 4
        dev = abs(theory.bnk_giant(t) - theory.rho(1.0, eps))
        worst = max(worst, dev / eps ** 2)
        ok = ok and dev < 10 * eps ** 2
    out.append(CheckResult("bnk_compatibility", ok, f"max dev / eps^2 = {worst:.2f}", lap()))

    # closed susceptibility satisfies its ODE
    worst = 0.0
    h = 1e-6
    for a in (0.5, 1.0, 4.0, math.inf):
        tc = theory.susceptibility_blowup_time(a)
        for frac in (0.1, 0.3, 0.5, 0.7):
            t = frac * tc
            num = (theory.susceptibility_closed(a, t + h) - theory.susceptibility_closed(a, t - h)) / (2 * h)
            worst = max(worst, abs(num - theory.susceptibility_ode_rhs(a, t, theory.susceptibility_closed(a, t))))
    out.append(CheckResult("susceptibility_ode", worst < 1e-6, f"max residual = {worst:.2e}", lap()))

    # k-core thresholds increase with k
    cks = [theory.kcore_threshold(1.0, k) for k in (3, 4, 5)]
    out.append(CheckResult("kcore_monotone", cks[0] < cks[1] < cks[2],
                           f"c_3..c_5 = {cks[0]:.3f}, {cks[1]:.3f}, {cks[2]:.3f}", lap()))
    return out


def _oracle_checks() -> list[CheckResult]:
    out = []
    lap = _stopwatch()
    ok = True
    for n in (2, 3):
        for m in (1, 2):
            for a in (Fraction(1, 2), 1, 2):
                ok = ok and oracle.verify_conditional_equivalence(n, m, a).ok
    out.append(CheckResult("conditional_equivalence", ok, "exact over the tiny grid", lap()))

    ok = True
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for a in (Fraction(1, 2), 1, 2):
            ok = ok and oracle.verify_rewiring_stationarity(n, m, a, "current").ok
    out.append(CheckResult("rewiring_stationarity", ok,
                           "pi P = pi exactly (current-degree convention)", lap()))

    d = oracle.enumerate_process(2, 1, 1, "multigraph")
    third = Fraction(1, 3)
    ok = d == {((0, 0),): third, ((0, 1),): third, ((1, 1),): third}
    out.append(CheckResult("first_step_law", ok,
                           "n=2 alpha=1 first edge is uniform over 3 outcomes", lap()))
    return out


def _statistical_checks(seed: int) -> list[CheckResult]:
    out = []
    lap = _stopwatch()
    rng = random.Random(replicate_seed(seed, 42))

    # tiny-instance law versus the exact oracle, both modes
    for mode in ("multigraph", "simple"):
        cfg = ProcessConfig(n=3, weight_rule=LinearAlpha(1.0), mode=mode, m_max=2, seed=0)
        counts = sample_process_outcomes(cfg, 1_000_000, rng)
        exact = {k: float(v) for k, v in oracle.enumerate_process(3, 2, 1, mode).items()}
        res = stats.chi_square_counts(counts, exact)
        out.append(CheckResult(f"tiny_law_{mode}", res.pvalue > 1e-3,
                               f"chi2 p = {res.pvalue:.4f} over 1e6 runs", lap()))

    # degree law at n = 1e5
    n = 100_000
    m = n // 2
    cfg = ProcessConfig(n=n, weight_rule=LinearAlpha(1.0), mode="multigraph",
                        m_max=m, checkpoints=(m,), seed=0)
    traj = run_process(cfg, random.Random(replicate_seed(seed, 1)))
    hist = stats.DegreeHistogram.from_counts(dict(traj.records[-1].degree_hist))
    tv = stats.tv_distance(hist, theory.NegBinomial(1.0, 0.5))
    out.append(CheckResult("degree_law_tv", tv < 0.01, f"TV = {tv:.4f} vs NB(1, 1/2)", lap()))

    # uniform attachment reproduces the Poisson degree law
    cfg = ProcessConfig(n=n, weight_rule=GeneralF(table=(1.0,)), mode="multigraph",
                        m_max=m, checkpoints=(m,), seed=0)
    traj = run_process(cfg, random.Random(replicate_seed(seed, 2)))
    hist = stats.DegreeHistogram.from_counts(dict(traj.records[-1].degree_hist))
    tv = stats.tv_distance(hist, theory.Poisson(1.0))
    out.append(CheckResult("uniform_rule_poisson_tv", tv < 0.01, f"TV = {tv:.4f} vs Poisson(1)", lap()))

    # birth-process marginal
    degs = sample_birth_degrees(n, 1.0, math.log(2), random.Random(replicate_seed(seed, 3)))
    hist = stats.DegreeHistogram.from_degrees(degs)
    res = stats.chi_square(hist, theory.NegBinomial(1.0, 0.5))
    out.append(CheckResult("birth_degrees", res.pvalue > 1e-3, f"chi2 p = {res.pvalue:.4f}", lap()))

    # conditioned degrees: exact total and near-NB marginal
    degs = sample_conditioned_degrees(n, 1.0, m, random.Random(replicate_seed(seed, 4)))
    hist = stats.DegreeHistogram.from_degrees(degs)
    tv = stats.tv_distance(hist, theory.NegBinomial(1.0, 0.5))
    out.append(CheckResult("conditioned_degrees", sum(degs) == 2 * m and tv < 0.01,
                           f"sum = 2m exactly, TV = {tv:.4f}", lap()))

    # rewiring long run from a star
    star = [x for v in range(1, 101) for x in (0, v)]
    acc = rewiring_degree_average(200, star, 1.0, 200_000, random.Random(replicate_seed(seed, 5)))
    hist = stats.DegreeHistogram.from_counts(acc)
    tv = stats.tv_distance(hist, theory.NegBinomial(1.0, 0.5))
    out.append(CheckResult("rewiring_long_run", tv < 0.05, f"TV = {tv:.4f}", lap()))
    return out


def cmd_verify(level: str = "quick", seed: int = 0) -> tuple[int, dict]:
    """Run the oracle/theory suites (quick) plus statistical suites (full)."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    checks = _oracle_checks() + _theory_checks()
    if level == "full":
        checks += _statistical_checks(seed)
    report = {
        "level": level,
        "ok": all(c.ok for c in checks),
        "checks": [asdict(c) for c in checks],
    }
    return (0 if report["ok"] else 1), report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _jobs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pagiant",
                                     description="Fixed-vertex preferential attachment laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a spec file of Monte Carlo replicates")
    sim.add_argument("--spec", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)
    sim.add_argument("--out", default=".")
    sim.add_argument("--checkpoints-rel", action="store_true",
                     help="interpret spec checkpoints as multiples of m_c")

    theo = sub.add_parser("theory", help="print the prediction record as JSON")
    theo.add_argument("--alpha", required=True, type=float)
    theo.add_argument("--eps", type=float, default=None)
    theo.add_argument("--m", type=float, default=None)
    theo.add_argument("--n", type=int, default=None)
    theo.add_argument("--k", type=int, nargs="*", default=[3])

    swp = sub.add_parser("sweep", help="simulate along a parameter grid")
    swp.add_argument("--spec", required=True)
    swp.add_argument("--out", required=True)
    swp.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)

    ver = sub.add_parser("verify", help="run the oracle and consistency suites")
    ver.add_argument("--level", choices=("quick", "full"), default="quick")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--json", default=None, help="also write the report to this path")
    return parser


def _output_error(exc: OSError) -> int:
    """One line on stderr and exit code 2 for an output path that cannot be
    written; _write_files has left no output file."""
    where = f"{exc.filename}: " if exc.filename is not None else ""
    print(f"output error: {where}{exc.strerror or exc}", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("simulate", "sweep"):
        try:
            if args.command == "simulate":
                cmd_simulate(parse_spec(_load_json(args.spec), args.seed, args.checkpoints_rel),
                             args.out, args.jobs)
            else:
                cmd_sweep(_load_json(args.spec), args.out, args.jobs)
        except SpecError as exc:
            print(f"spec error: {exc}", file=sys.stderr)
            return 2
        except ProcessExhausted as exc:
            print(f"exhausted: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            # outputs are written only after every run, so none exists
            print(f"memory error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 2
        except OSError as exc:
            return _output_error(exc)
        return 0
    if args.command == "theory":
        try:
            pred = theory.predict(args.alpha, eps=args.eps, m=args.m, n=args.n, ks=args.k)
        except ValueError as exc:
            print(f"domain error: {exc}", file=sys.stderr)
            return 2
        except theory.SolverError as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return 2
        print(_json_dumps(pred.to_json_dict()), end="")
        return 0
    if args.command == "verify":
        started = time.monotonic()
        json_path = [] if args.json is None else [Path(args.json)]
        try:
            _check_outputs(json_path)
            code, report = cmd_verify(args.level, args.seed)
            for check in report["checks"]:
                status = "PASS" if check["ok"] else "FAIL"
                print(f"{status} {check['name']}: {check['detail']}")
            print(f"{'OK' if code == 0 else 'FAILED'} ({len(report['checks'])} checks, "
                  f"{time.monotonic() - started:.1f}s)")
            _write_files([(path, _json_dumps(report)) for path in json_path])
        except OSError as exc:
            return _output_error(exc)
        return code
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
