"""Scenario configs, CLI verbs, report schemas, determinism."""

import csv
import dataclasses
import json
import logging
import re

import numpy as np
import pytest

import sensorsched as ss
from sensorsched import cli
from sensorsched.cli import load_scenario, main, run_scenario


def write_config(path, **overrides):
    cfg = {
        "name": "small-tracking",
        "seed": 1234,
        "prior": {
            "kind": "tracking",
            "n": 1,
            "K": 2,
            "marginal_var": 1.0,
            "neighbor_corr": 0.4,
        },
        "sensors": [
            {"kind": "linear_coordinate", "axis": 0, "noise_var": 1.0},
            {"kind": "linear_coordinate", "axis": 0, "noise_var": 0.25},
        ],
        "budgets": 1,
        "schedulers": ["greedy"],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def write_receding_config(path):
    return write_config(
        path,
        linearization="receding",
        schedulers=["greedy"],
        prior={
            "kind": "gauss_markov",
            "n": 1,
            "K": 3,
            "A": [[0.8]],
            "Q": [[0.5]],
            "Sigma0": [[1.0]],
            "mu0": [0.5],
        },
        sensors=[
            {"kind": "range", "anchor": [3.0], "noise_var": 0.5},
            {"kind": "linear_coordinate", "axis": 0, "noise_var": 1.0},
        ],
    )


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestConfigValidation:
    def test_minimal_config_loads(self, tmp_path):
        write_config(tmp_path / "c.json")
        scenario = load_scenario(tmp_path / "c.json")
        assert scenario.budgets == (1, 1)
        assert scenario.linearization == "prior_mean"

    def test_missing_field_is_diagnosed(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"prior": {"kind": "tracking", "n": 1, "K": 2}}))
        with pytest.raises(ss.ConfigError, match="marginal_var"):
            load_scenario(cfg_path)

    def test_bad_budget_is_diagnosed(self, tmp_path):
        write_config(tmp_path / "c.json", budgets=[1, 7])
        with pytest.raises(ss.ConfigError, match=r"budgets\[1\]"):
            load_scenario(tmp_path / "c.json")

    def test_bad_sensor_field_is_diagnosed(self, tmp_path):
        write_config(
            tmp_path / "c.json",
            sensors=[{"kind": "linear_coordinate", "axis": 5, "noise_var": 1.0}],
        )
        with pytest.raises(ss.ConfigError, match=r"sensors\[0\]\.axis"):
            load_scenario(tmp_path / "c.json")

    def test_unknown_scheduler_is_diagnosed(self, tmp_path):
        write_config(tmp_path / "c.json", schedulers=["simulated_annealing"])
        with pytest.raises(ss.ConfigError, match="scheduler"):
            load_scenario(tmp_path / "c.json")

    def test_invalid_json_is_diagnosed(self, tmp_path):
        (tmp_path / "c.json").write_text("{not json")
        with pytest.raises(ss.ConfigError, match="JSON"):
            load_scenario(tmp_path / "c.json")


def _set_prior(**fields):
    return lambda cfg: cfg["prior"].update(fields)


def _dense_custom(matrix):
    return lambda cfg: cfg.update(prior={"kind": "dense_custom", "n": 1, "K": 2, "matrix": matrix})


def _set_sensor(**fields):
    return lambda cfg: cfg["sensors"].__setitem__(0, fields)


# (config edit, field the error must name): each is malformed input that
# must stop `run` with a ConfigError, never a bare Python error or a run
MALFORMED = {
    "schedulers-not-a-list": (lambda cfg: cfg.update(schedulers=5), r"schedulers"),
    "mean-string": (_set_prior(mean="0 0"), r"prior\.mean"),
    "mean-ragged": (_set_prior(mean=[[0.0], [0.0, 1.0]]), r"prior\.mean"),
    "matrix-strings": (_dense_custom([["1", "0"], ["0", "x"]]), r"prior\.matrix"),
    "matrix-ragged": (_dense_custom([[1.0, 0.0], [0.0]]), r"prior\.matrix"),
    "noise_cov-string": (
        _set_sensor(kind="linear_coordinate", axis=0, noise_cov="x"), r"sensors\[0\]\.noise_cov"
    ),
    "anchor-strings": (
        _set_sensor(kind="range", anchor=["a"], noise_var=1.0), r"sensors\[0\]\.anchor"
    ),
    "noise_var-nan": (
        _set_sensor(kind="linear_coordinate", axis=0, noise_var=float("nan")),
        r"sensors\[0\]\.noise_var",
    ),
    "budgets-true": (lambda cfg: cfg.update(budgets=True), r"budgets"),
    "budgets-entry-true": (lambda cfg: cfg.update(budgets=[True, 1]), r"budgets\[0\]"),
    "seed-true": (lambda cfg: cfg.update(seed=True), r"seed"),
    "n-true": (_set_prior(n=True), r"prior\.n"),
    "K-true": (_set_prior(K=True), r"prior\.K"),
    "axis-true": (  # n = 2, so that true read as 1 is a valid axis
        lambda cfg: (_set_prior(n=2)(cfg), _set_sensor(kind="linear_coordinate", axis=True,
                                                       noise_var=1.0)(cfg)),
        r"sensors\[0\]\.axis",
    ),
    "exhaustive_cap-true": (lambda cfg: cfg.update(exhaustive_cap=True), r"exhaustive_cap"),
}


@pytest.mark.parametrize("edit, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_value_names_its_field_and_exits_2(tmp_path, capsys, edit, field):
    cfg = write_config(tmp_path / "c.json")
    edit(cfg)
    (tmp_path / "c.json").write_text(json.dumps(cfg))  # NaN is written as JSON NaN
    with pytest.raises(ss.ConfigError, match=field):
        load_scenario(tmp_path / "c.json")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(tmp_path / "c.json"), "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert re.search(field, capsys.readouterr().err)


class TestRunScenario:
    def test_minimal_run_matches_library_call(self, tmp_path):
        write_config(tmp_path / "c.json")
        paths = run_scenario(tmp_path / "c.json", tmp_path / "out")
        rows = read_csv(paths["results"])
        assert [r["scheduler"] for r in rows] == ["greedy"]

        prior = ss.build_tracking_prior(1, 2, 1.0, 0.4)
        suite = ss.SensorSuite(
            state_dim=1,
            sensors=(
                ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),
                ss.builtin_sensor("linear_coordinate", axis=0, noise_var=0.25),
            ),
        )
        ctx = ss.make_context(prior, suite)
        schedule, trace = ss.greedy_schedule(ctx, [1, 1])
        assert float(rows[0]["entropy_nats"]) == pytest.approx(
            ss.conditional_entropy(ctx, schedule), rel=1e-11
        )
        assert int(rows[0]["oracle_calls"]) == trace.total_oracle_calls

        trace_rows = read_csv(paths["trace"])
        assert len(trace_rows) == schedule.total_selected
        assert {r["sensor"] for r in trace_rows} == {"1"}  # low-noise sensor

    def test_exhaustive_adds_bound_ratio_column(self, tmp_path):
        write_config(
            tmp_path / "c.json", schedulers=["greedy", "lazy", "random", "exhaustive"]
        )
        paths = run_scenario(tmp_path / "c.json", tmp_path / "out")
        rows = read_csv(paths["results"])
        assert [r["scheduler"] for r in rows] == ["greedy", "lazy", "random", "exhaustive"]
        for row in rows:
            assert "bound_ratio" in row
        greedy_row = rows[0]
        assert float(greedy_row["bound_ratio"]) <= 0.5 + 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        write_config(
            tmp_path / "c.json", schedulers=["greedy", "lazy", "random", "exhaustive"]
        )
        a = run_scenario(tmp_path / "c.json", tmp_path / "a")
        b = run_scenario(tmp_path / "c.json", tmp_path / "b")
        assert a["results"].read_bytes() == b["results"].read_bytes()
        assert a["trace"].read_bytes() == b["trace"].read_bytes()

        # a rerun into the same directory replaces each report file with a
        # new one rather than truncating it: a hard link keeps the old file
        first = {name: path.read_bytes() for name, path in b.items()}
        for name, path in b.items():
            (tmp_path / f"old-{name}").hardlink_to(path)
        again = run_scenario(tmp_path / "c.json", tmp_path / "b")
        for name, path in again.items():
            assert not path.samefile(tmp_path / f"old-{name}")
            assert (tmp_path / f"old-{name}").read_bytes() == first[name]
            if name != "timings":
                assert path.read_bytes() == first[name]

    def test_manifest_round_trip(self, tmp_path):
        write_config(tmp_path / "c.json", schedulers=["greedy", "random"])
        first = run_scenario(tmp_path / "c.json", tmp_path / "a")
        second = run_scenario(first["manifest"], tmp_path / "b")
        assert first["results"].read_bytes() == second["results"].read_bytes()
        assert first["trace"].read_bytes() == second["trace"].read_bytes()

    def test_timings_live_in_separate_file(self, tmp_path):
        write_config(tmp_path / "c.json")
        paths = run_scenario(tmp_path / "c.json", tmp_path / "out")
        with open(paths["results"]) as f:
            results_header = f.readline()
        assert "wall_ms" not in results_header
        timing_rows = read_csv(paths["timings"])
        assert {r["scheduler"] for r in timing_rows} == {"greedy"}
        assert all(float(r["wall_ms"]) >= 0 for r in timing_rows)

    def test_receding_mode_runs_and_is_deterministic(self, tmp_path):
        write_receding_config(tmp_path / "c.json")
        a = run_scenario(tmp_path / "c.json", tmp_path / "a")
        b = run_scenario(tmp_path / "c.json", tmp_path / "b")
        assert a["results"].read_bytes() == b["results"].read_bytes()
        rows = read_csv(a["results"])
        assert rows[0]["scheduler"] == "greedy"

    def test_dense_custom_prior_config(self, tmp_path):
        write_config(
            tmp_path / "c.json",
            prior={
                "kind": "dense_custom",
                "n": 1,
                "K": 2,
                "representation": "precision",
                "matrix": [[2.0, -0.5], [-0.5, 1.5]],
            },
        )
        paths = run_scenario(tmp_path / "c.json", tmp_path / "out")
        assert read_csv(paths["results"])[0]["scheduler"] == "greedy"

    def test_unconverged_receding_map_logs_warning(self, tmp_path, monkeypatch, caplog):
        write_receding_config(tmp_path / "c.json")
        with caplog.at_level(logging.WARNING, logger="sensorsched.cli"):
            quiet = run_scenario(tmp_path / "c.json", tmp_path / "quiet")
        assert not caplog.records

        solve, solved = cli.map_linearization, []

        def unconverged_at_step_1(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            if len(solved) == 2:
                return dataclasses.replace(solved[-1], converged=False, iterations=50)
            return solved[-1]

        monkeypatch.setattr(cli, "map_linearization", unconverged_at_step_1)
        with caplog.at_level(logging.WARNING, logger="sensorsched.cli"):
            loud = run_scenario(tmp_path / "c.json", tmp_path / "loud")
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "receding step 1: MAP linearization did not converge in 50 iterations")
        ]
        for name in ("results", "trace"):
            assert quiet[name].read_bytes() == loud[name].read_bytes()


class TestVerbs:
    def test_run_verb(self, tmp_path, capsys):
        write_config(tmp_path / "c.json")
        code = main(
            ["run", "--config", str(tmp_path / "c.json"), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "results" in out
        assert (tmp_path / "o" / "results.csv").exists()

    def test_certify_verb_forces_exhaustive(self, tmp_path):
        write_config(tmp_path / "c.json", schedulers=["greedy"])
        code = main(
            ["certify", "--config", str(tmp_path / "c.json"),
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 0
        rows = read_csv(tmp_path / "o" / "results.csv")
        assert {r["scheduler"] for r in rows} == {"greedy", "exhaustive"}
        greedy = next(r for r in rows if r["scheduler"] == "greedy")
        assert float(greedy["bound_ratio"]) <= 0.5 + 1e-9

    def test_config_error_exits_nonzero(self, tmp_path):
        (tmp_path / "c.json").write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(tmp_path / "c.json")])
        assert exc.value.code == 2

