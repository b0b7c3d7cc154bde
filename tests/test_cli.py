import concurrent.futures
import copy
import dataclasses
import errno
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from pagiant import cli, theory as T
from pagiant.processes import CheckpointRecord, LinearAlpha, NegativeInteger, Trajectory


BASE_SPEC = {
    "n": 800,
    "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
    "mode": "multigraph",
    "m_max": 300,
    "checkpoints": [0, 200, 300],
    "seed": 11,
    "replicates": 4,
    "outputs": {
        "trajectory_csv": "traj.csv",
        "degree_csv": "deg.csv",
        "summary_json": "summary.json",
    },
    "comparison": {"eps": 0.5},
}


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_spec_round_trip(tmp_path):
    spec = cli.parse_spec(BASE_SPEC)
    again = cli.parse_spec(spec.to_dict())
    assert again == spec


def test_spec_field_errors():
    bad = dict(BASE_SPEC)
    del bad["m_max"]
    with pytest.raises(cli.SpecError, match="m_max"):
        cli.parse_spec(bad)
    bad = json.loads(json.dumps(BASE_SPEC))
    bad["weight_rule"] = {"kind": "linear_alpha"}
    with pytest.raises(cli.SpecError, match="weight_rule.alpha"):
        cli.parse_spec(bad)
    bad = json.loads(json.dumps(BASE_SPEC))
    bad["outputs"]["degree_csv"] = "traj.csv"
    with pytest.raises(cli.SpecError, match="outputs"):
        cli.parse_spec(bad)
    bad = json.loads(json.dumps(BASE_SPEC))
    bad["checkpoints"] = [0, 400]
    with pytest.raises(cli.SpecError, match="checkpoints"):
        cli.parse_spec(bad)
    bad["checkpoints"] = [0.5, "one"]
    bad["checkpoints_rel"] = True
    with pytest.raises(cli.SpecError, match="checkpoints"):
        cli.parse_spec(bad)
    bad = json.loads(json.dumps(BASE_SPEC))
    bad["seed"] = "x"
    with pytest.raises(cli.SpecError, match="seed"):
        cli.parse_spec(bad)


# valid specs, one per rule family, with each field the property test replaces
_FIELDS = [("n",), ("weight_rule",), ("weight_rule", "kind"), ("mode",), ("m_max",),
           ("checkpoints",), ("checkpoints", 1), ("checkpoints_rel",), ("seed",),
           ("replicates",), ("outputs",), ("outputs", "degree_csv"), ("comparison",),
           ("comparison", "eps")]
SPEC_FIELDS = [
    (dict(BASE_SPEC, checkpoints=[0.5, 1.0], checkpoints_rel=True), field)
    for field in _FIELDS + [("weight_rule", "alpha")]
] + [
    (dict(BASE_SPEC, weight_rule={"kind": "general_f", "table": [1.0, 2.0]}), field)
    for field in _FIELDS + [("weight_rule", "table"), ("weight_rule", "table", 1)]
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 400), 10 ** 400)
    | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(SPEC_FIELDS), value=JSON_VALUES)
def test_parse_spec_gives_a_spec_or_a_spec_error(case, value):
    base, field = case
    data = copy.deepcopy(base)
    parent = data
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    try:
        spec = cli.parse_spec(data)
    except cli.SpecError:
        return
    spec.validate()


@pytest.mark.parametrize("change, field", [
    ({"weight_rule": {"kind": "general_f", "table": [1, None]}}, "weight_rule.table[1]"),
    ({"weight_rule": {"kind": "general_f", "table": [1, "NaN"]}}, "weight_rule.table"),
    ({"checkpoints": [0, "1e999"]}, "checkpoints"),
    ({"comparison": {"eps": "1e30"}}, "comparison.eps"),
    ({"weight_rule": {"kind": "linear_alpha", "alpha": "1e308"}}, "comparison.eps"),
    ({"checkpoints_rel": "false"}, "checkpoints_rel"),
    ({"comparison": 0.5}, "comparison"),
    ({"comparison": {"epsilon": 0.5}}, "comparison.eps"),
    ({"comparison": {"eps": "NaN"}}, "comparison.eps"),
    ({"outputs": {"trajectory_csv": "a.csv", "degree_csv": "./a.csv",
                  "summary_json": "s.json"}}, "outputs"),
    ({"outputs": {"trajectory_csv": "t.csv", "degree_csv": "d.csv", "summary_json": ""}},
     "outputs.summary_json"),
    ({"outputs": {"trajectory_csv": "t.csv", "degree_csv": "sub/", "summary_json": "s.json"}},
     "outputs.degree_csv"),
    # absolute checkpoints are edge counts: a fraction is not rounded away
    ({"checkpoints": [10.7, 20.2]}, "checkpoints[0]"),
    ({"checkpoints": [10, 10.5]}, "checkpoints[1]"),
])
def test_spec_repros_exit_2_and_write_nothing(tmp_path, capsys, change, field):
    # the quoted numbers go into the file unquoted, as JSON parses 1e999 to inf
    text = json.dumps(dict(BASE_SPEC, **change))
    for number in ("NaN", "1e999", "1e30", "1e308"):
        text = text.replace(f'"{number}"', number)
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--spec", str(path), "--out", str(out), "--jobs", "1"]) == 2
    assert f"spec error: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_checkpoints_are_edge_counts():
    # an integral float such as 2e2 names an edge count; relative entries round
    assert cli.parse_spec(dict(BASE_SPEC, checkpoints=[0, 2e2, 300.0])).config.checkpoints == (0, 200, 300)
    rel = cli.parse_spec(dict(BASE_SPEC, checkpoints=[0.8013, 1.2], checkpoints_rel=True)).config
    assert rel.checkpoints == (160, 240)  # m_c = 200


def test_an_n_past_the_pair_key_bound_is_a_spec_error(tmp_path, capsys, monkeypatch):
    def no_runs(*args):
        raise AssertionError("simulated before n was checked")

    monkeypatch.setattr(cli, "run_replicates", no_runs)
    path = write_spec(tmp_path, dict(BASE_SPEC, n=10 ** 11))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--spec", path, "--out", str(out), "--jobs", "1"]) == 2
    assert "spec error: n: must be at most 3037000499" in capsys.readouterr().err
    assert not out.exists()


def test_relative_checkpoints_resolve_against_m_c():
    data = json.loads(json.dumps(BASE_SPEC))
    data["checkpoints"] = [0.8, 1.0, 1.5]
    data["checkpoints_rel"] = True
    data["m_max"] = 300
    spec = cli.parse_spec(data)
    assert spec.config.checkpoints == (160, 200, 300)


def test_env_seed_fallback(tmp_path, monkeypatch):
    data = json.loads(json.dumps(BASE_SPEC))
    del data["seed"]
    monkeypatch.setenv(cli.ENV_SEED, "777")
    spec = cli.parse_spec(data)
    assert spec.config.seed == 777
    monkeypatch.setenv(cli.ENV_SEED, "seven")
    with pytest.raises(cli.SpecError, match=cli.ENV_SEED):
        cli.parse_spec(data)
    monkeypatch.delenv(cli.ENV_SEED)
    assert cli.parse_spec(data).config.seed == 0


def test_replicate_streams_are_stable():
    assert cli.replicate_seed(1, 0) == cli.replicate_seed(1, 0)
    assert cli.replicate_seed(1, 0) != cli.replicate_seed(1, 1)
    assert cli.replicate_seed(2, 0) != cli.replicate_seed(1, 0)


def test_simulate_outputs_and_determinism(tmp_path):
    spec_path = write_spec(tmp_path, BASE_SPEC)
    assert cli.main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "a"), "--jobs", "1"]) == 0
    assert cli.main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
    for name in ("traj.csv", "deg.csv", "summary.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} depends on --jobs"
    lines = (tmp_path / "a" / "traj.csv").read_text().splitlines()
    assert lines[0] == "replicate,m,L1,L2,S,loops,multi_edges"
    assert len(lines) == 1 + 4 * 3
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["spec"]["n"] == 800
    assert "mc" in summary and "theory" in summary
    assert summary["exhausted"] == {}
    assert abs(summary["theory"]["rho"] - T.rho(1.0, 0.5)) < 1e-12


def test_simulate_records_exhausted_replicates(tmp_path):
    data = json.loads(json.dumps(BASE_SPEC))
    data.update({
        "n": 3,
        "weight_rule": {"kind": "negative_integer", "r": 3},
        "mode": "simple",
        "m_max": 4,
        "checkpoints": [0, 3],
        "replicates": 2,
    })
    del data["comparison"]
    spec_path = write_spec(tmp_path, data)
    assert cli.main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "x"), "--jobs", "1"]) == 0
    summary = json.loads((tmp_path / "x" / "summary.json").read_text())
    assert summary["exhausted"] == {"0": 3, "1": 3}


def test_simulate_writes_nothing_when_the_summary_fails(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("aggregate failed")

    monkeypatch.setattr(cli.stats, "aggregate", fail)
    spec_path = write_spec(tmp_path, BASE_SPEC)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="aggregate failed"):
        cli.main(["simulate", "--spec", spec_path, "--out", str(out), "--jobs", "1"])
    for name in ("traj.csv", "deg.csv", "summary.json"):
        assert not (out / name).exists()


def test_failed_write_leaves_no_file(tmp_path):
    # the rename onto a directory fails; neither target nor temporary remains
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        cli._write_atomic(target, "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []
    cli._write_atomic(tmp_path / "ok.csv", "a,b\n")
    assert (tmp_path / "ok.csv").read_text() == "a,b\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.csv", "taken"]


def test_simulate_rejects_bad_spec(tmp_path, capsys):
    data = json.loads(json.dumps(BASE_SPEC))
    data["replicates"] = 0
    spec_path = write_spec(tmp_path, data)
    assert cli.main(["simulate", "--spec", spec_path, "--out", str(tmp_path)]) == 2
    assert "replicates" in capsys.readouterr().err


def test_simulate_rejects_eps_outside_theory_domain(tmp_path, capsys):
    data = json.loads(json.dumps(BASE_SPEC))
    data["weight_rule"] = {"kind": "negative_integer", "r": 3}
    data["comparison"] = {"eps": 5}
    spec_path = write_spec(tmp_path, data)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["simulate", "--spec", spec_path, "--out", str(out), "--jobs", "1"]) == 2
    assert "comparison.eps" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    data["comparison"] = {"eps": "big"}
    with pytest.raises(cli.SpecError, match="comparison.eps"):
        cli.parse_spec(data)


def test_simulate_predicts_the_theory_once(tmp_path, monkeypatch):
    # parse_spec's domain check makes the record that cmd_simulate writes;
    # a spec built without parse_spec makes it in cmd_simulate, and a
    # replaced spec makes its own
    calls = []
    predict = T.predict

    def counting(*args, **kwargs):
        calls.append(kwargs["eps"])
        return predict(*args, **kwargs)

    monkeypatch.setattr(T, "predict", counting)
    data = dict(BASE_SPEC, m_max=70, checkpoints=[70], replicates=2)
    spec = cli.parse_spec(data)
    summary = cli.cmd_simulate(spec, str(tmp_path / "a"))
    assert calls == [0.5] and summary["theory"] == predict(1.0, eps=0.5, n=800).to_json_dict()
    built = cli.ExperimentSpec(spec.config, 2, "t.csv", "d.csv", "s.json", comparison_eps=0.5)
    assert cli.cmd_simulate(built, str(tmp_path / "b"))["theory"] == summary["theory"]
    other = dataclasses.replace(spec, comparison_eps=0.25)
    assert cli.cmd_simulate(other, str(tmp_path / "c"))["theory"]["eps"] == 0.25
    assert calls == [0.5, 0.5, 0.25]


def test_theory_command(capsys):
    assert cli.main(["theory", "--alpha", "1", "--eps", "0.5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["m_c_over_n"] == 0.25
    assert abs(record["xi"] - 0.575) < 1e-3
    assert abs(record["rho"] - 0.242) < 1e-3
    assert abs(record["c_star"] - 0.327) < 1e-3

    assert cli.main(["theory", "--alpha", "inf", "--eps", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert abs(record["rho"] - 0.7968) < 5e-4

    assert cli.main(["theory", "--alpha", "1", "--eps", "0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["rho"] == 0.0 and record["edd2"] == 0.0


def test_theory_command_reads_alpha_as_float_does(capsys):
    # float() reads inf in any case and with surrounding blanks
    assert cli.main(["theory", "--alpha", " Infinity ", "--eps", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == "inf"


def test_theory_command_domain_error(capsys):
    assert cli.main(["theory", "--alpha", "-1", "--eps", "0.5"]) == 2
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [(["--eps", "nan"], "eps"), (["--eps", "inf"], "eps"),
                                        (["--m", "nan", "--n", "10"], "m"),
                                        (["--m", "5", "--n", "0"], "n"),
                                        (["--eps", "0.2", "--n", "-1"], "n")])
def test_theory_command_rejects_non_finite_and_non_positive_n(capsys, argv, name):
    assert cli.main(["theory", "--alpha", "1"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"domain error: {name} must be ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("alpha, eps", [("1", "1e30"), ("1e308", "0.2")])
def test_theory_command_rejects_what_the_solver_cannot_bracket(capsys, alpha, eps):
    assert cli.main(["theory", "--alpha", alpha, "--eps", eps]) == 2
    assert "outside the solver's domain" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, eps", [("1", "1e-15"), ("0.5", "1e10")])
def test_theory_command_solves_extreme_eps_in_the_domain(capsys, alpha, eps):
    # a tiny eps (u + expm1(K) cancels) and a huge one (1 - u cancels) both
    # pass the giant fraction's cross-checks
    assert cli.main(["theory", "--alpha", alpha, "--eps", eps]) == 0
    record = json.loads(capsys.readouterr().out)
    assert 0 < record["rho"] < 2 * float(eps)


def test_theory_command_reports_solver_errors(capsys, monkeypatch):
    # a solve whose cross-check fails exits 2 and prints no record
    def fail(a, eps):
        raise T.SolverError("giant-fraction forms disagree")

    monkeypatch.setattr(T, "rho", fail)
    assert cli.main(["theory", "--alpha", "1", "--eps", "0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("solver error: ") and not captured.out


def test_sweep_rho_grid(tmp_path):
    sweep = {
        "kind": "rho_vs_eps",
        "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
        "eps": [0.2, 0.5, 1.0],
        "n": 20_000,
        "replicates": 3,
        "mode": "multigraph",
        "seed": 5,
    }
    spec_path = write_spec(tmp_path, sweep, "sweep.json")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--spec", spec_path, "--out", str(out), "--jobs", "1"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,m,l1_over_n_mean,l1_over_n_stderr,rho_theory"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    sims = [float(r[2]) for r in rows]
    theos = [float(r[4]) for r in rows]
    assert sims == sorted(sims)
    assert theos == sorted(theos)
    for sim, theo in zip(sims, theos):
        assert abs(sim - theo) < 0.05


def test_simulate_ci_contains_theory_value(tmp_path):
    # desk-scale reproduction: 30 replicates at 1.5 m_c, the summary CI for
    # L1/n must contain the solver value
    data = json.loads(json.dumps(BASE_SPEC))
    data.update({
        "n": 100_000,
        "m_max": 37_500,
        "checkpoints": [0.8, 1.0, 1.5],
        "checkpoints_rel": True,
        "replicates": 30,
        "seed": 21,
    })
    spec_path = write_spec(tmp_path, data)
    assert cli.main(["simulate", "--spec", spec_path, "--out", str(tmp_path / "ci"), "--jobs", "2"]) == 0
    summary = json.loads((tmp_path / "ci" / "summary.json").read_text())
    assert summary["mc"]["checkpoints"] == [20_000, 25_000, 37_500]
    stat = summary["mc"]["stats"]["L1_over_n"][-1]
    rho = T.rho(1.0, 0.5)
    assert stat["ci_low"] <= rho <= stat["ci_high"]


def test_sweep_tracks_uniform_limit(tmp_path):
    sweep = {
        "kind": "rho_vs_eps",
        "weight_rule": {"kind": "linear_alpha", "alpha": 1e6},
        "eps": [0.5, 1.0],
        "n": 20_000,
        "replicates": 3,
        "mode": "multigraph",
        "seed": 6,
    }
    spec_path = write_spec(tmp_path, sweep, "sweep.json")
    out = tmp_path / "er.csv"
    assert cli.main(["sweep", "--spec", spec_path, "--out", str(out), "--jobs", "1"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for row in rows:
        eps, sim, theo = float(row[0]), float(row[2]), float(row[4])
        assert abs(theo - T.rho(math.inf, eps)) < 1e-4
        assert abs(sim - theo) < 0.05


def test_sweep_csv_does_not_depend_on_jobs(tmp_path):
    sweep = {"kind": "rho_vs_eps", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
             "eps": [0.2, 0.5, 1.0], "n": 2000, "replicates": 2, "seed": 3}
    spec_path = write_spec(tmp_path, sweep, "sweep.json")
    for jobs in ("1", "2"):
        assert cli.main(["sweep", "--spec", spec_path, "--out", str(tmp_path / f"{jobs}.csv"),
                         "--jobs", jobs]) == 0
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


def test_sweep_susceptibility_grid(tmp_path):
    sweep = {
        "kind": "susceptibility_vs_t",
        "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
        "t": [0.05, 0.15],
        "n": 50_000,
        "replicates": 3,
        "seed": 5,
    }
    spec_path = write_spec(tmp_path, sweep, "sweep.json")
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--spec", spec_path, "--out", str(out), "--jobs", "1"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for row in rows:
        t, _, mean, _, theo = row
        assert abs(float(mean) - float(theo)) < 0.1 * float(theo)


def _sweep_rows(tmp_path, sweep, name="grid.csv"):
    spec = write_spec(tmp_path, sweep, "sweep.json")
    out = tmp_path / name
    assert cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 0
    return [line.split(",") for line in out.read_text().splitlines()[1:]]


@pytest.mark.parametrize("sweep, stat", [
    ({"kind": "rho_vs_eps", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
      "eps": [0.2, 0.5, 1.0], "n": 2000, "replicates": 3, "mode": "simple", "seed": 3},
     "L1_over_n"),
    ({"kind": "susceptibility_vs_t", "weight_rule": {"kind": "linear_alpha", "alpha": 2.0},
      "t": [0.05, 0.15], "n": 2000, "replicates": 2, "seed": 4}, "S"),
    ({"kind": "rho_vs_eps", "weight_rule": {"kind": "negative_integer", "r": 3},
      "eps": [0.2, 0.5], "n": 2000, "replicates": 2, "seed": 5}, "L1_over_n"),
])
def test_sweep_rows_are_the_simulate_summary(tmp_path, sweep, stat):
    # replicate r of a sweep is simulate's replicate r for the same seed:
    # one run to the largest grid m, with a checkpoint at every grid m
    _assert_rows_are_the_simulate_summary(tmp_path, sweep, stat)


def _assert_rows_are_the_simulate_summary(tmp_path, sweep, stat):
    """The sweep's rows equal the statistic of simulate's summary for the
    spec of the same runs, seedless when the sweep is."""
    rows = _sweep_rows(tmp_path, sweep)
    ms = [int(row[1]) for row in rows]
    data = dict(BASE_SPEC, n=sweep["n"], mode=sweep.get("mode", "multigraph"), m_max=max(ms),
                checkpoints=ms, seed=sweep.get("seed"), replicates=sweep["replicates"],
                weight_rule=sweep["weight_rule"])
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--spec", write_spec(tmp_path, data), "--out", str(out),
                     "--jobs", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mc"]["checkpoints"] == ms
    expected = [[cli._fmt(s["mean"]), cli._fmt(s["stderr"])] for s in summary["mc"]["stats"][stat]]
    assert [row[2:4] for row in rows] == expected
    return rows


def test_an_r3_sweep_meets_the_bounded_degree_target(tmp_path):
    # C09's gate at eps = 0.2, now along a sweep's grid
    sweep = {"kind": "rho_vs_eps", "weight_rule": {"kind": "negative_integer", "r": 3},
             "eps": [0.2], "n": 100_000, "replicates": 4, "mode": "simple", "seed": 909}
    [row] = _sweep_rows(tmp_path, sweep)
    assert float(row[4]) == T.rho(-3.0, 0.2)
    assert abs(float(row[2]) - T.rho(-3.0, 0.2)) < 0.02


@pytest.mark.parametrize("rule, err", [
    ({"weight_rule": {"kind": "general_f", "table": [1.0, 2.0]}},
     "weight_rule: sweeps need a linear or negative-integer rule"),
    # the sweep's old top-level alpha is not read
    ({"alpha": 1.0}, "weight_rule: missing"),
])
def test_a_sweep_without_a_theory_shape_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                                rule, err):
    monkeypatch.setattr(cli, "run_replicates", _no_compute)
    sweep = dict({"kind": "rho_vs_eps", "eps": [0.2], "n": 2000, "replicates": 2}, **rule)
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", "--spec", write_spec(tmp_path, sweep, "sweep.json"),
                     "--out", str(out), "--jobs", "1"]) == 2
    assert capsys.readouterr().err == f"spec error: {err}\n"
    assert not out.exists()


def test_a_seedless_sweep_takes_the_env_seed_as_simulate_does(tmp_path, monkeypatch, capsys):
    # a seedless sweep once ran seed 0 whatever PAGIANT_SEED said; it now
    # takes its seed as simulate does, and a bad one is a spec error
    sweep = {"kind": "susceptibility_vs_t", "weight_rule": {"kind": "linear_alpha", "alpha": 2.0},
             "t": [0.05, 0.15], "n": 2000, "replicates": 2}
    monkeypatch.setenv(cli.ENV_SEED, "5")
    rows = _assert_rows_are_the_simulate_summary(tmp_path, sweep, "S")
    assert rows == _sweep_rows(tmp_path, dict(sweep, seed=5), "seeded.csv")
    assert rows != _sweep_rows(tmp_path, dict(sweep, seed=0), "zero.csv")
    monkeypatch.setenv(cli.ENV_SEED, "five")
    out = tmp_path / "bad.csv"
    assert cli.main(["sweep", "--spec", write_spec(tmp_path, sweep, "bad.json"), "--out", str(out)]) == 2
    assert f"spec error: {cli.ENV_SEED}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["seed", "mode"])
def test_a_null_sweep_field_is_absent(tmp_path, monkeypatch, field):
    # "seed": null and "mode": null were spec errors in a sweep
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    sweep = {"kind": "susceptibility_vs_t", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
             "t": [0.05, 0.15], "n": 2000, "replicates": 2}
    assert _sweep_rows(tmp_path, dict(sweep, **{field: None})) == _sweep_rows(tmp_path, sweep, "absent.csv")


def test_a_null_checkpoints_rel_is_absent(tmp_path):
    # simulate read a null seed and comparison as absent, but a null
    # checkpoints_rel was a spec error
    data = dict(BASE_SPEC, checkpoints_rel=None, replicates=1)
    assert cli.parse_spec(data) == cli.parse_spec(dict(BASE_SPEC, replicates=1))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--spec", write_spec(tmp_path, data), "--out", str(out),
                     "--jobs", "1"]) == 0
    assert (out / "summary.json").exists()


def test_an_absent_or_null_mode_is_multigraph():
    # simulate once required mode; it now reads it as a sweep does
    data = dict(BASE_SPEC)
    del data["mode"]
    assert cli.parse_spec(data) == cli.parse_spec(BASE_SPEC)
    assert cli.parse_spec(dict(BASE_SPEC, mode=None)) == cli.parse_spec(BASE_SPEC)


def test_sweep_rows_follow_the_grid_order(tmp_path):
    # unsorted and repeated entries share their checkpoints: each row is
    # the row of its entry in the sorted grid
    base = {"kind": "rho_vs_eps", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
            "n": 2000, "replicates": 2, "seed": 3}
    by_eps = {row[0]: row for row in _sweep_rows(tmp_path, dict(base, eps=[0.2, 0.5, 1.0]))}
    rows = _sweep_rows(tmp_path, dict(base, eps=[1.0, 0.2, 1.0, 0.5, 0.2]), "shuffled.csv")
    assert [row[0] for row in rows] == ["1.0", "0.2", "1.0", "0.5", "0.2"]
    assert rows == [by_eps[row[0]] for row in rows]


def test_a_one_replicate_sweep_has_zero_stderr(tmp_path):
    rows = _sweep_rows(tmp_path, {"kind": "susceptibility_vs_t",
                                  "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
                                  "t": [0.05, 0.15], "n": 2000, "replicates": 1})
    assert [row[3] for row in rows] == ["0.0", "0.0"]


def test_an_empty_grid_writes_only_the_header(tmp_path, monkeypatch):
    def no_runs(*args):
        raise AssertionError("an empty grid ran a simulation")

    monkeypatch.setattr(cli, "run_replicates", no_runs)
    spec = write_spec(tmp_path, {"kind": "rho_vs_eps",
                                 "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
                                 "eps": [], "n": 2000, "replicates": 2}, "sweep.json")
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 0
    assert out.read_text() == "eps,m,l1_over_n_mean,l1_over_n_stderr,rho_theory\n"


def test_an_exhausted_sweep_replicate_exits_2_and_writes_nothing(tmp_path, capsys):
    # at alpha = 1e-7 nearly every proposal after the first edge repeats it
    # or is a loop on its ends, so both replicates spend the rejection
    # budget at m = 1 of the row's 9
    sweep = {"kind": "rho_vs_eps", "weight_rule": {"kind": "linear_alpha", "alpha": 1e-7},
             "eps": [3e7], "n": 6, "replicates": 2, "mode": "simple"}
    spec = write_spec(tmp_path, sweep, "sweep.json")
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("exhausted: eps[0] (m = 9): replicate 0 stopped at m = 1: "
                            "rejection budget exhausted in simple mode\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("sweep, field", [
    ({"kind": "susceptibility_vs_t", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
      "t": [0.1, 0.3], "n": 200, "replicates": 2}, "t[1]"),
    ({"kind": "rho_vs_eps", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
      "eps": [20], "n": 4, "replicates": 2, "mode": "simple"}, "eps[0]"),
    # a grid entry is a spec number: strings and booleans once ran as floats
    ({"kind": "rho_vs_eps", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
      "eps": [0.2, "0.5"], "n": 200, "replicates": 2}, "eps[1]: expected a number, got str"),
    ({"kind": "rho_vs_eps", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
      "eps": [True], "n": 200, "replicates": 2}, "eps[0]: expected a number, got bool"),
])
def test_sweep_rejects_bad_grid_before_compute(tmp_path, capsys, monkeypatch, sweep, field):
    def no_runs(*args):
        raise AssertionError("simulated before the grid was checked")

    monkeypatch.setattr(cli, "run_replicates", no_runs)
    spec_path = write_spec(tmp_path, sweep, "sweep.json")
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", "--spec", spec_path, "--out", str(out), "--jobs", "1"]) == 2
    assert f"spec error: {field}" in capsys.readouterr().err
    assert not out.exists()


SWEEPS = [
    {"kind": "rho_vs_eps", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
     "eps": [0.2, 0.5], "n": 2000, "replicates": 2, "mode": "simple", "seed": 3},
    {"kind": "susceptibility_vs_t", "weight_rule": {"kind": "linear_alpha", "alpha": 1.0},
     "t": [0.05, 0.15], "n": 2000, "replicates": 2},
    {"kind": "rho_vs_eps", "weight_rule": {"kind": "negative_integer", "r": 3},
     "eps": [0.2, 0.5], "n": 2000, "replicates": 2, "mode": "simple", "seed": 3},
]
SWEEP_FIELDS = [(sweep, field) for sweep in SWEEPS
                for field in [(key,) for key in sweep] + [("eps" if "eps" in sweep else "t", 1)]
                + [("weight_rule", key) for key in sweep["weight_rule"]]]
_MISSING = object()


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(SWEEP_FIELDS), value=JSON_VALUES | st.just(_MISSING))
def test_sweep_gives_a_csv_or_a_spec_error(case, value):
    # a valid grid, even a huge one, runs no simulation here: each
    # replicate, up to two whatever the replicate count, gets a trajectory
    # with a record at every checkpoint
    def fake_runs(cfg, seed, k, jobs):
        records = tuple(CheckpointRecord(m, 1, 0, 1.0, 0, 0, ()) for m in cfg.checkpoints)
        return [Trajectory(records, cfg.m_max)] * min(k, 2)

    base, field = case
    data = copy.deepcopy(base)
    parent = data
    for key in field[:-1]:
        parent = parent[key]
    if value is _MISSING:
        del parent[field[-1]]
    else:
        parent[field[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_replicates", fake_runs)
        spec_path = os.path.join(tmp, "sweep.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out = os.path.join(tmp, "grid.csv")
        code = cli.main(["sweep", "--spec", spec_path, "--out", out, "--jobs", "1"])
        assert code in (0, 2)
        assert os.path.exists(out) == (code == 0)


@pytest.mark.parametrize("text", ['{"kind": "rho_vs_eps", "eps": [0.1', "[1, 2]",
                                  # the old top-level alpha: no weight_rule, and a bad seed
                                  '{"kind": "rho_vs_eps", "alpha": 1.0, "eps": [0.5], '
                                  '"n": 100, "replicates": 1, "seed": "x"}',
                                  '{"kind": "rho_vs_eps", '
                                  '"weight_rule": {"kind": "linear_alpha", "alpha": 1.0}, '
                                  '"eps": [0.5], "n": 100, "replicates": 1, "seed": "x"}'])
def test_sweep_rejects_malformed_spec(tmp_path, capsys, text):
    path = tmp_path / "sweep.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
    assert "spec error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_memory_error_exits_2_with_one_line_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                               command):
    def too_large(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "run_replicates", too_large)
    if command == "simulate":
        spec = write_spec(tmp_path, BASE_SPEC)
    else:
        spec = write_spec(tmp_path, SWEEPS[1], "sweep.json")
    out = tmp_path / "out"
    assert cli.main([command, "--spec", spec, "--out", str(out), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "memory error: Unable to allocate 745. GiB for an array\n"
    assert captured.out == ""
    assert not out.exists()


def _no_compute(*args):
    raise AssertionError("computed before the output paths were checked")


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify"])
def test_an_output_path_under_a_file_exits_2_before_any_compute(tmp_path, capsys, monkeypatch,
                                                                command):
    monkeypatch.setattr(cli, "run_replicates", _no_compute)
    monkeypatch.setattr(cli, "cmd_verify", _no_compute)
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    if command == "simulate":
        # --out names an existing file
        argv = ["simulate", "--spec", write_spec(tmp_path, BASE_SPEC), "--out", str(taken)]
    elif command == "sweep":
        argv = ["sweep", "--spec", write_spec(tmp_path, SWEEPS[1], "sweep.json"),
                "--out", str(taken / "grid.csv")]
    else:
        argv = ["verify", "--json", str(taken / "r.json")]
    assert cli.main(argv + (["--jobs", "1"] if command != "verify" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == f"output error: {taken}: not a directory\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".json") == ["taken"]
    assert taken.read_text(encoding="utf-8") == "keep\n"


def test_an_output_path_that_is_a_directory_exits_2_before_any_compute(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setattr(cli, "run_replicates", _no_compute)
    data = json.loads(json.dumps(BASE_SPEC))
    data["outputs"]["degree_csv"] = "sub"
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    spec = write_spec(tmp_path, data)
    assert cli.main(["simulate", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 2
    assert capsys.readouterr().err == f"output error: {out / 'sub'}: is a directory\n"
    assert [p.name for p in out.iterdir()] == ["sub"]


def test_a_sweep_reports_a_run_field_error_before_an_output_error(tmp_path, capsys, monkeypatch):
    # as simulate does: the sweep once checked --out before n
    monkeypatch.setattr(cli, "run_replicates", _no_compute)
    spec = write_spec(tmp_path, dict(SWEEPS[1], n=0), "sweep.json")
    assert cli.main(["sweep", "--spec", spec, "--out", str(tmp_path), "--jobs", "1"]) == 2
    assert capsys.readouterr().err == "spec error: n: must be an integer >= 1, got 0\n"


def test_missing_output_directories_are_made(tmp_path):
    data = json.loads(json.dumps(BASE_SPEC))
    data["outputs"]["degree_csv"] = "nodir/deg.csv"
    data["replicates"] = 2
    out = tmp_path / "out"
    assert cli.main(["simulate", "--spec", write_spec(tmp_path, data), "--out", str(out),
                     "--jobs", "1"]) == 0
    assert (out / "nodir" / "deg.csv").read_text().startswith("replicate,m,degree,count\n")
    assert sorted(p.name for p in out.iterdir()) == ["nodir", "summary.json", "traj.csv"]
    spec = write_spec(tmp_path, SWEEPS[1], "sweep.json")
    assert cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "a" / "grid.csv"),
                     "--jobs", "1"]) == 0
    assert (tmp_path / "a" / "grid.csv").read_text().startswith("t,m,")
    assert cli.main(["verify", "--json", str(tmp_path / "b" / "r.json")]) == 0
    assert json.loads((tmp_path / "b" / "r.json").read_text())["ok"] is True


def test_a_failed_third_write_leaves_no_output_file(tmp_path, capsys, monkeypatch):
    write_text = cli.Path.write_text

    def no_space(self, *args, **kwargs):
        if self.name.startswith(".summary.json."):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(cli.Path, "write_text", no_space)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--spec", write_spec(tmp_path, BASE_SPEC), "--out", str(out),
                     "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.endswith("No space left on device\n")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_jobs_start_no_more_workers_than_replicates(monkeypatch):
    # a stand-in pool records its worker count and runs every call inline
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = cli.parse_spec(BASE_SPEC).config
    for k, jobs in ((2, 8), (3, 64), (5, 2)):
        assert cli.run_replicates(cfg, 1, k, jobs) == cli.run_replicates(cfg, 1, k, 1)
    assert workers == [2, 3, 2]


def test_verify_quick_passes_and_perturbation_fails(capsys, monkeypatch):
    assert cli.main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "FAIL" not in out.replace("FAILED", "")
    rho = T.rho
    monkeypatch.setattr(T, "rho", lambda a, eps: 1.01 * rho(a, eps))
    assert cli.main(["verify", "--level", "quick"]) == 1


def test_verify_writes_json_report(tmp_path):
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--level", "quick", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["ok"] is True
    assert any(c["name"] == "conditional_equivalence" for c in report["checks"])


def test_verify_report_times_every_check(tmp_path):
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--level", "quick", "--json", str(path)]) == 0
    checks = json.loads(path.read_text())["checks"]
    assert checks and all(math.isfinite(c["seconds"]) and c["seconds"] >= 0 for c in checks)


def test_verify_full_passes_within_budget():
    import time

    start = time.monotonic()
    code, report = cli.cmd_verify("full", seed=0)
    elapsed = time.monotonic() - start
    assert code == 0, [c for c in report["checks"] if not c["ok"]]
    names = {c["name"] for c in report["checks"]}
    assert {"tiny_law_multigraph", "tiny_law_simple", "degree_law_tv",
            "rewiring_long_run"} <= names
    assert all(0 <= c["seconds"] < math.inf for c in report["checks"])
    assert elapsed < 600


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_exits_2_naming_the_flag_before_any_run(tmp_path, capsys, monkeypatch,
                                                               command, jobs):
    monkeypatch.setattr(cli, "run_replicates", _no_compute)
    if command == "simulate":
        spec = write_spec(tmp_path, BASE_SPEC)
    else:
        spec = write_spec(tmp_path, SWEEPS[1], "sweep.json")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--spec", spec, "--out", str(out), "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --jobs: must be an integer >= 1, got {jobs!r}" in err
    assert not out.exists()
