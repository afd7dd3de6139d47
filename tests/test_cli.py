"""CLI contract: config validation, exit codes, reproducible artifacts."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from partition_fields.cli import ConfigError, RunConfig, main

SEED = "00112233445566778899aabbccddeeff"


def _write(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _sim_config(**overrides) -> dict:
    cfg = {
        "command": "simulate",
        "model": {"kind": "karlin1d", "alphas": [0.6], "n": [10]},
        "grid": {"t1": [0.5, 1.0]},
        "replicates": 1,
        "seed": SEED,
        "output": "out/sim",
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# RunConfig parsing
# ---------------------------------------------------------------------------

def test_config_round_trip_equality():
    cfg = RunConfig.from_dict(_sim_config())
    again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert cfg == again


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown field"):
        RunConfig.from_dict(_sim_config(bogus=1))
    with pytest.raises(ConfigError, match="model"):
        RunConfig.from_dict(_sim_config(model={"kind": "karlin1d", "alphas": [0.6], "n": [10], "x": 1}))


def test_config_field_path_errors():
    with pytest.raises(ConfigError, match="model.alphas"):
        RunConfig.from_dict(_sim_config(model={"kind": "karlin1d", "n": [10]}))
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_dict({k: v for k, v in _sim_config().items() if k != "seed"})
    with pytest.raises(ConfigError, match="kind"):
        RunConfig.from_dict(_sim_config(model={"kind": "nope", "alphas": [0.6], "n": [10]}))
    with pytest.raises(ConfigError, match="suite"):
        RunConfig.from_dict(_sim_config(command="verify", suite="nope"))


def test_config_marginal_parsing():
    cfg = RunConfig.from_dict(_sim_config(model={
        "kind": "generalized-karlin1d", "alphas": [0.6], "n": [10],
        "marginal": {"kind": "two_point", "a": 2.0, "b": -1.0, "p": 1 / 3},
    }))
    assert cfg.model.marginal.second_moment == pytest.approx(2.0)
    rt = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert rt == cfg


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_simulate_writes_csv_and_roundtrip_metadata(tmp_path):
    runner = CliRunner()
    cfg = _sim_config(output=str(tmp_path / "sim"))
    res = runner.invoke(main, ["simulate", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 0, res.output
    csv_lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert csv_lines[0] == "t1,t2,raw,normalized"
    assert len(csv_lines) == 3  # header + one row per corner
    meta = json.loads((tmp_path / "sim.meta.json").read_text())
    parsed = RunConfig.from_dict(meta["config"])
    assert parsed == RunConfig.from_dict(cfg)


def test_simulate_deterministic_bytes(tmp_path):
    runner = CliRunner()
    cfg_path = _write(tmp_path, "c.json", _sim_config(output=str(tmp_path / "a")))
    assert runner.invoke(main, ["simulate", "--config", cfg_path]).exit_code == 0
    assert runner.invoke(main, ["simulate", "--config", cfg_path, "--out", str(tmp_path / "b")]).exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_simulate_missing_alpha_exits_2(tmp_path):
    runner = CliRunner()
    cfg = _sim_config(model={"kind": "karlin1d", "n": [10]})
    res = runner.invoke(main, ["simulate", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 2
    assert "model.alphas" in res.output


def test_verify_covariance_r_too_small_exits_2(tmp_path):
    runner = CliRunner()
    cfg = {
        "command": "verify", "suite": "covariance",
        "model": {"kind": "karlin2d", "alphas": [0.6, 0.6], "n": [16, 16]},
        "grid": {"t1": [0.5, 1.0], "t2": [0.5, 1.0]},
        "replicates": 2, "seed": SEED, "output": str(tmp_path / "v"),
    }
    res = runner.invoke(main, ["verify", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 2
    assert "at least 100 replicates" in res.output


def test_verify_passing_suite_exits_0(tmp_path):
    runner = CliRunner()
    cfg = {
        "command": "verify", "suite": "variance",
        "model": {"kind": "karlin1d", "alphas": [0.6], "n": [64]},
        "replicates": 400, "seed": SEED, "output": str(tmp_path / "v"),
    }
    res = runner.invoke(main, ["verify", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "v.report.json").read_text())
    assert report["report"]["passed"] is True
    checks_csv = (tmp_path / "v.checks.csv").read_text().splitlines()
    assert checks_csv[0] == "check,target,value,tolerance,passed"


def test_verify_failing_suite_exits_1(tmp_path):
    runner = CliRunner()
    cfg = {
        "command": "verify", "suite": "renewal-asymptotics",
        "model": {"kind": "hs1d", "alphas": [0.25], "n": [2048]},
        "seed": SEED, "output": str(tmp_path / "v"),
    }
    res = runner.invoke(main, ["verify", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 1
    report = json.loads((tmp_path / "v.report.json").read_text())
    names = {c["name"]: c["passed"] for c in report["report"]["checks"]}
    assert names["renewal-recursion-oracle"] is True
    assert names["weight-growth-realized"] is True
    assert names["weight-growth-c-alpha"] is False  # documented closed-form defect


def test_verify_parallelism_does_not_change_bytes(tmp_path):
    runner = CliRunner()
    base = {
        "command": "verify", "suite": "variance",
        "model": {"kind": "karlin1d", "alphas": [0.6], "n": [64]},
        "replicates": 200, "seed": SEED,
    }
    out1, out8 = str(tmp_path / "p1"), str(tmp_path / "p8")
    cfg1 = _write(tmp_path, "c1.json", dict(base, output=out1, parallelism=1))
    cfg8 = _write(tmp_path, "c8.json", dict(base, output=out8, parallelism=8))
    assert runner.invoke(main, ["verify", "--config", cfg1]).exit_code == 0
    assert runner.invoke(main, ["verify", "--config", cfg8]).exit_code == 0
    a = json.loads(Path(out1 + ".report.json").read_text())
    b = json.loads(Path(out8 + ".report.json").read_text())
    a["config"].pop("parallelism"), b["config"].pop("parallelism")
    a["config"].pop("output"), b["config"].pop("output")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert Path(out1 + ".checks.csv").read_bytes() == Path(out8 + ".checks.csv").read_bytes()


def test_renewal_command_and_kmax_validation(tmp_path):
    runner = CliRunner()
    cfg = {
        "command": "renewal",
        "model": {"kind": "hs1d", "alphas": [0.25], "n": [8]},
        "seed": SEED, "kmax": 10, "weights_n": None, "output": str(tmp_path / "r"),
    }
    res = runner.invoke(main, ["renewal", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 0, res.output
    assert "c_alpha(0.25) = 0.33863272" in res.output
    lines = (tmp_path / "r.renewal.csv").read_text().splitlines()
    assert lines[0] == "k,q_k" and len(lines) == 12 and lines[1] == "0,1"

    cfg["kmax"] = 0
    res = runner.invoke(main, ["renewal", "--config", _write(tmp_path, "c0.json", cfg)])
    assert res.exit_code == 2


def test_renewal_weights_csv(tmp_path):
    runner = CliRunner()
    cfg = {
        "command": "renewal",
        "model": {"kind": "hs1d", "alphas": [0.25], "n": [8]},
        "seed": SEED, "kmax": 256, "weights_n": 16, "output": str(tmp_path / "r"),
    }
    res = runner.invoke(main, ["renewal", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "r.weights.csv").read_text().splitlines()
    assert lines[0] == "j,b_nj"


def test_sample_fbs_command(tmp_path):
    runner = CliRunner()
    cfg = {
        "command": "sample-fbs", "hurst": [0.3, 0.75],
        "grid": {"t1": [0.5, 1.0], "t2": [0.5, 1.0]},
        "replicates": 3, "seed": SEED, "output": str(tmp_path / "f"),
    }
    res = runner.invoke(main, ["sample-fbs", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[0] == "replicate,t1,t2,value"
    assert len(lines) == 1 + 3 * 4


def test_parallelism_env_fallback(monkeypatch):
    monkeypatch.setenv("PARTITION_FIELDS_THREADS", "3")
    cfg = RunConfig.from_dict(_sim_config())
    assert cfg.parallelism == 3
    cfg = RunConfig.from_dict(_sim_config(parallelism=2))
    assert cfg.parallelism == 2  # explicit config wins over the environment


def test_command_mismatch_exits_2(tmp_path):
    runner = CliRunner()
    cfg_path = _write(tmp_path, "c.json", _sim_config())
    res = runner.invoke(main, ["verify", "--config", cfg_path])
    assert res.exit_code == 2


def test_seed_override(tmp_path):
    runner = CliRunner()
    cfg = _sim_config(output=str(tmp_path / "x"))
    cfg["model"]["n"] = [500]
    cfg["grid"]["t1"] = [0.25, 0.5, 0.75, 1.0]
    cfg_path = _write(tmp_path, "c.json", cfg)
    assert runner.invoke(main, ["simulate", "--config", cfg_path]).exit_code == 0
    assert runner.invoke(
        main, ["simulate", "--config", cfg_path, "--seed", "ff", "--out", str(tmp_path / "y")]
    ).exit_code == 0
    assert (tmp_path / "x.csv").read_bytes() != (tmp_path / "y.csv").read_bytes()
    meta = json.loads((tmp_path / "y.meta.json").read_text())
    assert meta["config"]["seed"] == "000000000000000000000000000000ff"


def test_verify_variance_one_replicate_exits_2(tmp_path):
    runner = CliRunner()
    cfg = {
        "command": "verify", "suite": "variance",
        "model": {"kind": "karlin1d", "alphas": [0.6], "n": [16]},
        "replicates": 1, "seed": SEED, "output": str(tmp_path / "v"),
    }
    res = runner.invoke(main, ["verify", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 2, res.output
    assert "at least 2 replicates" in res.output


def test_non_integer_threads_env_exits_2(tmp_path):
    cfg_path = _write(tmp_path, "c.json", _sim_config(output=str(tmp_path / "s")))
    res = CliRunner().invoke(main, ["simulate", "--config", cfg_path], env={"PARTITION_FIELDS_THREADS": "abc"})
    assert res.exit_code == 2, res.output
    assert "PARTITION_FIELDS_THREADS" in res.output


def test_renewal_kmax_below_weights_ratio_exits_2(tmp_path):
    cfg = {
        "command": "renewal",
        "model": {"kind": "hs1d", "alphas": [0.25], "n": [8]},
        "seed": SEED, "kmax": 255, "weights_n": 16, "output": str(tmp_path / "r"),
    }
    res = CliRunner().invoke(main, ["renewal", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 2, res.output
    assert "kmax=255 too small" in res.output
    assert not (tmp_path / "r.renewal.csv").exists()


def test_boolean_replicates_exits_2(tmp_path):
    cfg_path = _write(tmp_path, "c.json", _sim_config(replicates=True, output=str(tmp_path / "s")))
    res = CliRunner().invoke(main, ["simulate", "--config", cfg_path])
    assert res.exit_code == 2, res.output
    assert "replicates" in res.output


@pytest.mark.parametrize("model", [
    {"kind": "karlin1d", "alphas": [0.6], "n": [10.5]},
    {"kind": "karlin1d", "alphas": [0.6], "n": [True]},
    {"kind": "hs1d", "alphas": [0.25], "n": [10], "forest_depth": 10.5},
])
def test_non_integer_model_counts_exit_2(tmp_path, model):
    cfg_path = _write(tmp_path, "c.json", _sim_config(model=model, output=str(tmp_path / "s")))
    res = CliRunner().invoke(main, ["simulate", "--config", cfg_path])
    assert res.exit_code == 2, res.output
    assert "must be an integer" in res.output
    assert not (tmp_path / "s.csv").exists()


def test_string_alpha_exits_2(tmp_path):
    model = {"kind": "karlin1d", "alphas": ["0.6"], "n": [10]}
    cfg_path = _write(tmp_path, "c.json", _sim_config(model=model, output=str(tmp_path / "s")))
    res = CliRunner().invoke(main, ["simulate", "--config", cfg_path])
    assert res.exit_code == 2, res.output
    assert "must be a real number" in res.output
    assert not (tmp_path / "s.csv").exists()


def test_nan_grid_time_exits_2(tmp_path):
    cfg_path = _write(tmp_path, "c.json", _sim_config(grid={"t1": [0.5, float("nan")]},
                                                      output=str(tmp_path / "s")))
    res = CliRunner().invoke(main, ["simulate", "--config", cfg_path])
    assert res.exit_code == 2, res.output
    assert "grid" in res.output


@pytest.mark.parametrize("override", [[], ["--out", "x"], ["--seed", "ff"], ["--parallelism", "2"]])
def test_array_config_root_exits_2(tmp_path, override):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps([_sim_config()]))
    res = CliRunner().invoke(main, ["simulate", "--config", str(cfg_path), *override])
    assert res.exit_code == 2, res.output
    assert "<root>: must be a JSON object" in res.output


@pytest.mark.parametrize("section, value", [
    ("model", [0.6]),
    ("grid", 5),
    ("marginal", "rademacher"),
])
def test_non_object_config_section_exits_2(tmp_path, section, value):
    cfg = _sim_config(output=str(tmp_path / "s"))
    if section == "marginal":
        cfg["model"] = {"kind": "generalized-karlin1d", "alphas": [0.6], "n": [10], "marginal": value}
        path = "model.marginal"
    else:
        cfg[section] = value
        path = section
    res = CliRunner().invoke(main, ["simulate", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 2, res.output
    assert f"{path}: must be a JSON object" in res.output


@pytest.mark.parametrize("override, path", [
    ({"grid": {"t1": ["0.5", True]}}, "grid"),
    ({"model": {"kind": "generalized-karlin1d", "alphas": [0.6], "n": [10],
                "marginal": {"kind": "scaled_sign", "c": True}}}, "model.marginal"),
    ({"hurst": ["0.3", "0.4"]}, "hurst"),
    ({"hurst": [0.3, 0.4, 0.5]}, "hurst"),
    ({"seed": True}, "seed"),
    ({"output": None}, "output"),
    # json reads bare NaN and Infinity as floats
    ({"model": {"kind": "generalized-karlin1d", "alphas": [0.6], "n": [10],
                "marginal": {"kind": "two_point", "a": float("nan"), "b": -1.0, "p": 0.5}}}, "model.marginal"),
    ({"model": {"kind": "generalized-karlin1d", "alphas": [0.6], "n": [10],
                "marginal": {"kind": "scaled_sign", "c": float("inf")}}}, "model.marginal"),
])
def test_config_value_of_wrong_json_type_exits_2(tmp_path, monkeypatch, override, path):
    monkeypatch.chdir(tmp_path)  # a run with output null would write None.csv here
    cfg = dict(_sim_config(output="s"), **override)
    res = CliRunner().invoke(main, ["simulate", "--config", _write(tmp_path, "c.json", cfg)])
    assert res.exit_code == 2, res.output
    assert f"{path}: " in res.output
    assert not list(tmp_path.glob("*.csv"))
