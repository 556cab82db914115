"""Command-line flows: config handling, all eight verbs, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pcparam

from pcparam.cli import (
    ConfigError,
    build_parser,
    finalize_config,
    load_run_config,
    main,
)
from pcparam.domains import preset_domain
from pcparam.io import load_cloud, load_mesh, load_table, save_cloud, save_mesh
from pcparam.meshing import delaunay
from pcparam.neural import NetworkSpec, save_checkpoint
from pcparam.optimizer import StageConfig, train


# ---------------------------------------------------------------------------
# fixtures: a tiny cloud, a tiny fit, and a near-identity checkpoint
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def tiny_cloud_csv(workdir):
    rng = np.random.default_rng(0)
    cloud = rng.uniform(0.1, 0.9, (8, 2))
    path = workdir / "cloud.csv"
    save_cloud(path, cloud)
    return path


def _tiny_config(cloud_path, out_dir, **over):
    cfg = {
        "input": str(cloud_path),
        "output_dir": str(out_dir),
        "mode": "fixed_boundary",
        "seed": 0,
        "domain": {"preset": "square"},
        "objective": {"beta1": 1.0, "beta2": 1.0},
        "stage": {
            "epochs": 2, "batch_points": 8, "batch_domain": 8, "epochs_min": 1,
        },
        "map_net": {"hidden_widths": [8]},
        "lambda_net": {"hidden_widths": [4]},
        "domain_size": 16,
        "eval_sample_size": 16,
    }
    cfg.update(over)
    return cfg


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def fitted(workdir, tiny_cloud_csv):
    out = workdir / "fit_out"
    cfg_path = _write_config(
        workdir / "fit.json", _tiny_config(tiny_cloud_csv, out)
    )
    assert main(["fit", "--config", cfg_path]) == 0
    return out


@pytest.fixture(scope="module")
def identity_setup(workdir):
    """A checkpoint that maps the plane (almost) to itself, plus a dense
    square cloud, for exercising reconstruct/boundary/audit flows."""
    eps = 1e-4
    spec = NetworkSpec(2, (2,), 2)
    params = np.concatenate([
        np.array([eps, 0.0, 0.0, eps]),  # W1
        np.zeros(2),                     # b1
        np.array([1 / eps, 0.0, 0.0, 1 / eps]),  # W2
        np.zeros(2),                     # b2
    ])
    ckpt = workdir / "identity.ckpt.json"
    save_checkpoint(ckpt, spec, params)

    lspec = NetworkSpec(2, (2,), 1, output_activation="softplus")
    lparams = np.concatenate([np.zeros(4), np.zeros(2), np.zeros(2), [0.5413]])
    lckpt = workdir / "lambda_const.ckpt.json"
    save_checkpoint(lckpt, lspec, lparams)

    rng = np.random.default_rng(5)
    cloud = np.vstack([
        rng.uniform(0, 1, (300, 2)),
        np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=np.float64),
    ])
    cloud_path = workdir / "dense.csv"
    save_cloud(cloud_path, cloud)
    return {"ckpt": ckpt, "lambda": lckpt, "cloud": cloud_path, "points": cloud}


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------


def test_config_unknown_keys(tmp_path, tiny_cloud_csv):
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o")
    cfg["learning_rate"] = 0.1
    path = _write_config(tmp_path / "c.json", cfg)
    with pytest.raises(ConfigError, match="unknown config key 'learning_rate'"):
        load_run_config(path)
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o")
    cfg["objective"]["beta9"] = 1.0
    path = _write_config(tmp_path / "c2.json", cfg)
    with pytest.raises(ConfigError, match=r"objective\.beta9"):
        load_run_config(path)


def test_fit_rejects_the_retired_domain_pool_key(tmp_path, tiny_cloud_csv, caplog):
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o", fixed_domain_pool=False)
    path = _write_config(tmp_path / "c.json", cfg)
    assert main(["fit", "--config", path]) == 2
    assert "unknown config key 'fixed_domain_pool'" in caplog.text
    assert not (tmp_path / "o").exists()


def test_config_invalid_json_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "input": "x.csv",\n}\n')
    with pytest.raises(ConfigError, match=r"broken\.json:3:1: invalid JSON"):
        load_run_config(path)


def test_config_required_keys(tmp_path, tiny_cloud_csv):
    path = _write_config(tmp_path / "c.json", {"output_dir": "o"})
    with pytest.raises(ConfigError, match="'input' is required"):
        load_run_config(path)
    path = _write_config(tmp_path / "c2.json", {"input": str(tiny_cloud_csv)})
    with pytest.raises(ConfigError, match="output_dir"):
        load_run_config(path)
    # --out-dir substitutes for output_dir
    cfg = load_run_config(path, out_dir_override=str(tmp_path / "alt"))
    assert cfg["output_dir"] == str(tmp_path / "alt")


def test_config_field_validation(tmp_path, tiny_cloud_csv):
    base = lambda: _tiny_config(tiny_cloud_csv, tmp_path / "o")  # noqa: E731
    cfg = base()
    cfg["mode"] = "conformal"
    with pytest.raises(ConfigError, match="mode must be one of"):
        load_run_config(_write_config(tmp_path / "a.json", cfg))
    cfg = base()
    cfg["seed"] = -1
    with pytest.raises(ConfigError, match="seed"):
        load_run_config(_write_config(tmp_path / "b.json", cfg))
    cfg = base()
    cfg["seed"] = True
    with pytest.raises(ConfigError, match="seed"):
        load_run_config(_write_config(tmp_path / "c.json", cfg))
    cfg = base()
    cfg["domain"] = {"preset": "square", "file": "d.json"}
    with pytest.raises(ConfigError, match="exactly one"):
        load_run_config(_write_config(tmp_path / "d.json", cfg))
    cfg = base()
    cfg["domain"] = {"preset": "blob"}
    with pytest.raises(ConfigError, match="preset"):
        load_run_config(_write_config(tmp_path / "e.json", cfg))
    cfg = base()
    cfg["domain"] = {"file": 5}  # not a path, and open(5) would read a file descriptor
    with pytest.raises(ConfigError, match="domain.file must be a path, got 5"):
        load_run_config(_write_config(tmp_path / "g.json", cfg))
    # nor is any other JSON value that str() would turn into one
    for key, value in (("input", 5), ("input", None), ("output_dir", ["o"])):
        cfg = {**base(), key: value}
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be a path, got {value!r}")):
            load_run_config(_write_config(tmp_path / "h.json", cfg))


def test_fit_with_a_bool_output_dir_exits_2_and_writes_nothing(tmp_path, tiny_cloud_csv,
                                                               monkeypatch, caplog):
    monkeypatch.chdir(tmp_path)  # str(True) would be the directory ./True
    cfg = {**_tiny_config(tiny_cloud_csv, "o"), "output_dir": True}
    path = _write_config(tmp_path / "c.json", cfg)
    assert main(["fit", "--config", path]) == 2
    assert "config error: output_dir must be a path, got True" in caplog.messages
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_config_landmark_validation(tmp_path, tiny_cloud_csv):
    def with_landmarks(lm):
        cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o")
        cfg["mode"] = "landmark"
        cfg["landmarks"] = lm
        return _write_config(tmp_path / "lm.json", cfg)

    with pytest.raises(ConfigError, match="must be a list"):
        load_run_config(with_landmarks({"rows": [1]}))
    with pytest.raises(ConfigError, match=r"landmarks\[0\]\.rows"):
        load_run_config(with_landmarks([{"rows": [], "target": [[0, 0]]}]))
    with pytest.raises(ConfigError, match=r"landmarks\[0\]\.rows"):
        load_run_config(with_landmarks([{"rows": [True], "target": [[0, 0]]}]))
    for target in ([[0, 0, 0]], [["a", 1]], [[None, 1]], [[True, 1]]):
        with pytest.raises(ConfigError, match=r"landmarks\[0\]\.target must be"):
            load_run_config(with_landmarks([{"rows": [1], "target": target}]))
    ok = load_run_config(with_landmarks([{"rows": [1, 2], "target": [[0, 1]]}]))
    assert ok["landmarks"] == [{"rows": [1, 2], "target": [[0.0, 1.0]]}]


def test_finalize_mode_forcing(tmp_path, tiny_cloud_csv):
    cfg = load_run_config(_write_config(
        tmp_path / "c.json",
        _tiny_config(tiny_cloud_csv, tmp_path / "o", mode="free_boundary"),
    ))
    eff = finalize_config(cfg, input_dim=2)
    assert eff["objective"]["beta2"] == 0.0
    assert eff["objective"]["beta3"] == 0.0
    assert eff["objective"]["beta1"] == 1.0

    cfg["mode"] = "shape_matching"
    eff = finalize_config(cfg, input_dim=2)
    assert eff["objective"]["beta1"] == 0.0
    assert eff["objective"]["beta3"] == 0.0

    cfg["mode"] = "fixed_boundary"
    eff = finalize_config(cfg, input_dim=2)
    assert eff["objective"]["beta3"] == 0.0
    assert eff["objective"]["beta1"] == 1.0

    cfg["mode"] = "landmark"
    with pytest.raises(ConfigError, match="landmark mode needs"):
        finalize_config(cfg, input_dim=2)
    cfg["mode"] = "fixed_boundary"
    cfg["landmarks"] = [{"rows": [0], "target": [[0.0, 0.0]]}]
    with pytest.raises(ConfigError, match="only allowed in landmark mode"):
        finalize_config(cfg, input_dim=2)


def test_finalize_network_defaults(tmp_path, tiny_cloud_csv):
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o")
    del cfg["map_net"], cfg["lambda_net"]
    cfg = load_run_config(_write_config(tmp_path / "c.json", cfg))
    eff2 = finalize_config(cfg, input_dim=2)
    assert eff2["map_net"]["hidden_widths"] == [64, 64, 64]
    eff3 = finalize_config(cfg, input_dim=3)
    assert eff3["map_net"]["hidden_widths"] == [256] * 5
    assert eff3["lambda_net"]["hidden_widths"] == [128] * 3
    assert eff3["map_net"]["omega"] == 1.0
    # no hidden layer is a linear net, as NetworkSpec and checkpoints allow
    cfg["map_net"] = {"hidden_widths": []}
    assert finalize_config(cfg, input_dim=2)["map_net"]["hidden_widths"] == []


def test_train_and_fit_pick_the_same_default_map_net(tmp_path, tiny_cloud_csv):
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o")
    del cfg["map_net"]
    net = finalize_config(load_run_config(_write_config(tmp_path / "c.json", cfg)), 2)["map_net"]
    result = train(
        load_cloud(tiny_cloud_csv), preset_domain("square"),
        stage=StageConfig(epochs=1, batch_points=8, batch_domain=8, epochs_min=1),
        map_spec=None, lambda_spec=NetworkSpec(2, (4,), 1, output_activation="softplus"),
        domain_size=16, eval_sample_size=16,
    )
    assert result.map_spec == NetworkSpec(2, tuple(net["hidden_widths"]), 2, omega=net["omega"],
                                          dtype="float32")


def test_print_effective_config_round_trips(tmp_path, tiny_cloud_csv, capsys):
    cfg_path = _write_config(
        tmp_path / "c.json", _tiny_config(tiny_cloud_csv, tmp_path / "o")
    )
    assert main(["fit", "--config", cfg_path, "--print-effective-config"]) == 0
    printed = capsys.readouterr().out
    eff = json.loads(printed)
    assert eff["map_net"]["hidden_widths"] == [8]
    # feeding the effective config back reproduces itself exactly
    again_path = tmp_path / "eff.json"
    again_path.write_text(printed)
    assert main(["fit", "--config", str(again_path), "--print-effective-config"]) == 0
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("dim", [2, 3])
def test_print_effective_config_of_a_minimal_config(tmp_path, capsys, dim):
    # every default that a config may leave out, as `fit` fills it in
    cloud = tmp_path / "cloud.csv"
    save_cloud(cloud, np.random.default_rng(1).uniform(0.0, 1.0, (8, dim)))
    out_dir = tmp_path / "o"
    cfg_path = _write_config(tmp_path / "c.json", {"input": str(cloud), "output_dir": str(out_dir)})
    want = {
        "domain": {"preset": "square"},
        "domain_size": 4096,
        "eval_mesh": None,
        "eval_sample_size": 4096,
        "input": str(cloud),
        "lambda_net": {"hidden_widths": [128, 128, 128], "omega": 1.0},
        "map_net": {"hidden_widths": [256] * 5 if dim == 3 else [64] * 3, "omega": 1.0},
        "mode": "fixed_boundary",
        "objective": {"beta1": 5.0, "beta2": 1.0, "beta3": 0.0},
        "optimizer": {"eps": 1e-08, "learning_rate": 0.0001, "momentum": 0.9, "rho": 0.99},
        "output_dir": str(out_dir),
        "seed": 0,
        "stage": {
            "alpha_final": 20.0, "alpha_init": 2.0, "alpha_max": 100.0,
            "batch_domain": 1024, "batch_points": 1024, "epochs": 10000,
            "epochs_min": 1000, "sigma": 0.5, "sigma_min": 0.001,
        },
    }
    assert main(["fit", "--config", cfg_path, "--print-effective-config"]) == 0
    assert capsys.readouterr().out == json.dumps(want, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("over", [
    pytest.param({"stage": {"epochs": 0}}, id="epochs-0"),
    pytest.param({"optimizer": {"rho": 2}}, id="rho-2"),
    pytest.param({"map_net": {"omega": "fast"}}, id="omega-string"),
    pytest.param({"objective": {"beta2": None}}, id="beta2-null"),
    pytest.param({"stage": {"epochs": True}}, id="epochs-true"),
    pytest.param({"stage": {"sigma": "0.5"}}, id="sigma-string"),
    pytest.param({"stage": {"sigma": 10**400}}, id="sigma-past-the-float-range"),
    pytest.param({"seed": 10**400}, id="seed-past-the-float-range"),
    # shape matching forces beta1 = 0, so `fit` trains no lambda net, but the
    # effective config prints its section
    pytest.param({"mode": "shape_matching", "lambda_net": {"omega": 0}},
                 id="lambda-net-at-beta1-0"),
    pytest.param({"mode": "landmark", "objective": {"beta3": 1.0},
                  "landmarks": [{"rows": [0], "target": [["a", 1]]}]}, id="landmark-target"),
])
def test_fit_and_print_effective_config_refuse_a_bad_config_alike(tmp_path, tiny_cloud_csv, over):
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o")
    for key, val in over.items():
        cfg[key] = {**cfg.get(key, {}), **val} if isinstance(val, dict) else val
    path = _write_config(tmp_path / "c.json", cfg)
    errors = []
    for extra in ([], ["--print-effective-config"]):
        proc = _run_pcparam("fit", "--config", path, *extra)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        errors.append([line for line in proc.stderr.splitlines()
                       if line.startswith("config error: ")])
    assert len(errors[0]) == 1 and errors[0] == errors[1]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("over, message", [
    ({"map_net": {"omega": True}}, "map_net.omega must be positive and finite, got True"),
    ({"map_net": {"omega": "2"}}, "map_net.omega must be positive and finite, got '2'"),
    ({"lambda_net": {"omega": None}}, "lambda_net.omega must be positive and finite, got None"),
    ({"map_net": {"hidden_widths": None}},
     "map_net.hidden_widths must be a list of positive integers, got None"),
    # a net's precision is not a config value: the CLI runs the float32 defaults
    ({"lambda_net": {"dtype": "float64"}}, "unknown config key 'lambda_net.dtype'"),
    # NetworkSpec, not the config loader, checks the widths
    ({"map_net": {"hidden_widths": [8, 0]}},
     "map_net.hidden_widths must be a list of positive integers, got [8, 0]"),
])
def test_a_bad_net_value_names_its_key(tmp_path, tiny_cloud_csv, caplog, over, message):
    cfg = {**_tiny_config(tiny_cloud_csv, tmp_path / "o"), **over}
    path = _write_config(tmp_path / "c.json", cfg)
    for extra in ([], ["--print-effective-config"]):
        caplog.clear()
        assert main(["fit", "--config", path, *extra]) == 2
        assert f"config error: {message}" in caplog.messages
    assert not (tmp_path / "o").exists()


def test_readme_quick_start_config_prints(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)  # the block names cloud.csv relative to the working directory
    save_cloud(tmp_path / "cloud.csv", np.random.default_rng(2).uniform(0.0, 1.0, (8, 3)))
    (tmp_path / "run1.json").write_text(block)
    assert main(["fit", "--config", "run1.json", "--print-effective-config"]) == 0
    eff = json.loads(capsys.readouterr().out)
    for key, val in json.loads(block).items():
        assert eff[key] == ({**eff[key], **val} if isinstance(val, dict) else val), key


def test_fit_missing_input_exits_2(tmp_path, caplog):
    cfg_path = _write_config(tmp_path / "c.json", {
        "input": str(tmp_path / "nope.csv"), "output_dir": str(tmp_path / "o"),
    })
    assert main(["fit", "--config", cfg_path]) == 2
    assert "i/o error: " in caplog.text and "nope.csv" in caplog.text
    assert main(["fit", "--config", str(tmp_path / "missing.json")]) == 2


def test_fit_bad_stage_value_exits_2(tmp_path, tiny_cloud_csv):
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o")
    cfg["stage"]["sigma"] = -0.5
    assert main(["fit", "--config", _write_config(tmp_path / "c.json", cfg)]) == 2


@pytest.mark.parametrize("name", ["sigma", "sigma_min"])
def test_fit_tiny_sigma_exits_2_with_message(tmp_path, tiny_cloud_csv, name):
    # a sigma whose square is not a normal float is a config error, reported
    # as one line and no traceback from the installed entry point's main
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o")
    cfg["stage"][name] = 1e-200
    proc = _run_pcparam("fit", "--config", _write_config(tmp_path / "c.json", cfg))
    assert proc.returncode == 2
    assert f"{name} must be at least" in proc.stderr
    assert "1e-200" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_fit_huge_input_cloud_exits_2_with_message(tmp_path, caplog):
    cloud = tmp_path / "cloud.csv"
    save_cloud(cloud, np.random.default_rng(3).uniform(0.1, 0.9, (8, 2)) * 1e200)
    cfg = _tiny_config(cloud, tmp_path / "o")
    assert main(["fit", "--config", _write_config(tmp_path / "c.json", cfg)]) == 2
    assert "input coordinates reach magnitude" in caplog.text
    assert not (tmp_path / "o" / "log.csv").exists()


def test_fit_gradient_overflow_exits_1_naming_the_batch(tmp_path):
    # a float32 gradient past float32's range is a numeric failure of the run,
    # reported with its stage, epoch and batch, not a config error
    cloud = tmp_path / "cloud.csv"
    save_cloud(cloud, np.random.default_rng(0).uniform(0.1, 0.9, (40, 3)))
    cfg = _tiny_config(cloud, tmp_path / "o", objective={"beta1": 1.0, "beta2": 1e300},
                       domain_size=64)
    cfg["stage"].update(batch_points=32, batch_domain=32)
    proc = _run_pcparam("fit", "--config", _write_config(tmp_path / "c.json", cfg))
    assert proc.returncode == 1, proc.stderr
    assert ("runtime failure: stage 1 epoch 1 batch 0: the float32 gradient left float32's "
            "range") in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fit_float32_divergence_exits_1_naming_the_batch(tmp_path, tiny_cloud_csv):
    # the diverged float32 weights overflow the next pass: a numeric failure
    # of the run, not a config error
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o", optimizer={"learning_rate": 1e200})
    proc = _run_pcparam("fit", "--config", _write_config(tmp_path / "c.json", cfg))
    assert proc.returncode == 1, proc.stderr
    assert re.search(r"runtime failure: stage 1 epoch \d+ batch \d+: the float32 pass left "
                     r"float32's range", proc.stderr)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_fit_overflowing_update_exits_1_and_leaves_no_output_dir(tmp_path, tiny_cloud_csv):
    # the first update overflows at learning rate 1e308: a numeric failure
    # of the run in stage 1, before any file, so no output directory is made
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o", optimizer={"learning_rate": 1e308})
    proc = _run_pcparam("fit", "--config", _write_config(tmp_path / "c.json", cfg))
    assert proc.returncode == 1, proc.stderr
    assert ("runtime failure: stage 1 epoch 1 batch 0: the update at parameter index "
            in proc.stderr)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sigma", [1.5e-154, 2.0e-154])
@pytest.mark.parametrize("name", ["sigma", "sigma_min"])
def test_fit_sigma_with_overflowing_gradient_scale_exits_2(tmp_path, tiny_cloud_csv, name, sigma):
    cfg = _tiny_config(tiny_cloud_csv, tmp_path / "o")
    cfg["stage"][name] = sigma
    assert main(["fit", "--config", _write_config(tmp_path / "c.json", cfg)]) == 2
    assert not (tmp_path / "o").exists()


def _run_pcparam(*args):
    """`pcparam args` in a fresh interpreter, as the installed script runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(pcparam.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys; from pcparam.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


# ---------------------------------------------------------------------------
# fit outputs
# ---------------------------------------------------------------------------


def test_fit_outputs(fitted):
    for name in (
        "map.ckpt.json", "lambda.ckpt.json", "log.csv", "mapped.csv",
        "effective_config.json", "map_stage1.ckpt.json", "lambda_stage1.ckpt.json",
    ):
        assert (fitted / name).is_file(), name
    header, rows = load_table(fitted / "log.csv")
    assert header[0] == "stage"
    assert len(rows) == 1  # batch_points covers the cloud: single stage
    mapped = load_cloud(fitted / "mapped.csv")
    assert mapped.shape == (8, 2)
    eff = json.loads((fitted / "effective_config.json").read_text())
    assert eff["objective"]["beta3"] == 0.0  # fixed_boundary forcing recorded


def test_fit_log_csv_shape(fitted, tmp_path, tiny_cloud_csv, monkeypatch):
    header, rows = load_table(fitted / "log.csv")
    assert header == [
        "stage", "sigma", "alpha_init", "alpha_final", "epochs", "batch_points",
        "batch_domain", "loss_total", "loss_leg", "loss_hand", "loss_landmark",
        "eval_hausdorff", "eval_mean_abs_angle", "eval_landmark_hausdorff",
    ]
    assert rows[0][0] == "1"
    assert rows[0][12] == "" and rows[0][13] == ""  # None renders empty

    # a stage config of numpy integers, which StageConfig accepts, logs plain integers
    def numpy_stage(**kw):
        return StageConfig(**{k: np.int64(v) if type(v) is int else v for k, v in kw.items()})

    monkeypatch.setattr(pcparam.cli, "StageConfig", numpy_stage)
    out = tmp_path / "o"
    assert main(["fit", "--config", _write_config(
        tmp_path / "c.json", _tiny_config(tiny_cloud_csv, out))]) == 0
    assert (out / "log.csv").read_bytes() == (fitted / "log.csv").read_bytes()


def test_fit_final_checkpoints_are_last_stage_files(workdir, tiny_cloud_csv):
    out = workdir / "fit_staged"
    stage = {"epochs": 2, "batch_points": 4, "batch_domain": 8, "epochs_min": 1}
    cfg_path = _write_config(
        workdir / "fit_staged.json", _tiny_config(tiny_cloud_csv, out, stage=stage)
    )
    assert main(["fit", "--config", cfg_path]) == 0
    _, rows = load_table(out / "log.csv")
    last = len(rows)
    assert last >= 2
    for net in ("map", "lambda"):
        final = (out / f"{net}.ckpt.json").read_bytes()
        assert final == (out / f"{net}_stage{last}.ckpt.json").read_bytes()
        assert final != (out / f"{net}_stage1.ckpt.json").read_bytes()


def test_fit_that_fails_in_stage_2_keeps_the_stage_1_row(tmp_path, tiny_cloud_csv, monkeypatch,
                                                        caplog):
    # log.csv is rewritten as each stage ends, so a fit that diverges in its
    # second stage still leaves the first stage's row next to its checkpoints
    stage = {"epochs": 2, "batch_points": 4, "batch_domain": 8, "epochs_min": 1}
    whole = tmp_path / "whole"
    assert main(["fit", "--config", _write_config(
        tmp_path / "whole.json", _tiny_config(tiny_cloud_csv, whole, stage=stage))]) == 0
    total_loss_with_grad = pcparam.optimizer.total_loss_with_grad

    def nan_in_stage_2(original, *args, **kwargs):
        breakdown, g_mapped, g_v = total_loss_with_grad(original, *args, **kwargs)
        if len(original) == 8:  # the full batch of stage 2
            breakdown = dataclasses.replace(breakdown, total=float("nan"))
        return breakdown, g_mapped, g_v

    monkeypatch.setattr(pcparam.optimizer, "total_loss_with_grad", nan_in_stage_2)
    out = tmp_path / "failed"
    assert main(["fit", "--config", _write_config(
        tmp_path / "failed.json", _tiny_config(tiny_cloud_csv, out, stage=stage))]) == 1
    assert "stage 2 epoch 1 batch 0: loss is nan" in caplog.text
    whole_lines = (whole / "log.csv").read_text().splitlines()
    assert (out / "log.csv").read_text().splitlines() == whole_lines[:2]
    assert (out / "map_stage1.ckpt.json").is_file()
    assert not (out / "map_stage2.ckpt.json").exists()


def test_fit_reruns_byte_identical(workdir, tiny_cloud_csv, fitted):
    out2 = workdir / "fit_again"
    cfg_path = _write_config(
        workdir / "fit2.json", _tiny_config(tiny_cloud_csv, out2)
    )
    assert main(["fit", "--config", cfg_path]) == 0
    for name in ("map.ckpt.json", "lambda.ckpt.json", "log.csv", "mapped.csv"):
        assert (out2 / name).read_bytes() == (fitted / name).read_bytes(), name


# ---------------------------------------------------------------------------
# map / eval
# ---------------------------------------------------------------------------


def test_map_writes_cloud_and_lambda(workdir, tiny_cloud_csv, fitted):
    out = workdir / "remapped.csv"
    lam_out = workdir / "lam.csv"
    rc = main([
        "map", "--checkpoint", str(fitted / "map.ckpt.json"),
        "--input", str(tiny_cloud_csv), "--out", str(out),
        "--lambda-checkpoint", str(fitted / "lambda.ckpt.json"),
        "--lambda-out", str(lam_out),
    ])
    assert rc == 0
    assert load_cloud(out).shape == (8, 2)
    np.testing.assert_array_equal(
        load_cloud(out), load_cloud(fitted / "mapped.csv")
    )
    header, rows = load_table(lam_out)
    assert header == ["lambda_inv"]
    vals = np.array([float(r[0]) for r in rows])
    assert (vals > 0).all() and len(vals) == 8


def test_map_dimension_mismatch_exits_2(workdir, fitted):
    cloud3 = workdir / "c3.xyz"
    save_cloud(cloud3, np.random.default_rng(1).normal(0, 1, (5, 3)))
    rc = main([
        "map", "--checkpoint", str(fitted / "map.ckpt.json"),
        "--input", str(cloud3), "--out", str(workdir / "x.csv"),
    ])
    assert rc == 2


def test_eval_metrics(workdir, tiny_cloud_csv, fitted):
    out_dir = workdir / "eval_out"
    mesh_path = workdir / "cloud_mesh.obj"
    save_mesh(mesh_path, delaunay(load_cloud(tiny_cloud_csv)))
    rc = main([
        "eval", "--checkpoint", str(fitted / "map.ckpt.json"),
        "--input", str(tiny_cloud_csv), "--out-dir", str(out_dir),
        "--sample-size", "64", "--mesh", str(mesh_path), "--bins", "9",
    ])
    assert rc == 0
    header, rows = load_table(out_dir / "metrics.csv")
    metrics = {r[0]: float(r[1]) for r in rows}
    assert set(metrics) == {
        "hausdorff", "domain_sample_gap", "mapped_sample_gap", "mean_abs_angle",
    }
    assert all(v >= 0 for v in metrics.values())
    hh, hr = load_table(out_dir / "histogram.csv")
    assert hh == ["bin_left", "bin_right", "count"]
    assert len(hr) == 9
    n_faces = len(delaunay(load_cloud(tiny_cloud_csv)).triangles)
    assert sum(int(r[2]) for r in hr) == 3 * n_faces


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def test_boundary_from_mapped(workdir, identity_setup):
    out_dir = workdir / "bnd"
    mapped_csv = workdir / "bnd_in.csv"
    save_cloud(mapped_csv, identity_setup["points"])
    rc = main([
        "boundary", "--mapped", str(mapped_csv), "--h", "0.3",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    header, rows = load_table(out_dir / "loops.csv")
    assert header == ["loop", "order", "vertex", "x", "y"]
    assert {r[0] for r in rows} == {"0"}  # solid square: one loop
    svg = (out_dir / "boundary.svg").read_text()
    assert svg.startswith("<svg") and "polygon" in svg


def test_boundary_on_a_cloud_past_the_coordinate_limit_exits_1(tmp_path):
    mapped_csv = tmp_path / "huge.csv"
    save_cloud(mapped_csv, np.random.default_rng(5).uniform(0, 1, (30, 2)) * 2.0**990)
    proc = _run_pcparam("boundary", "--mapped", str(mapped_csv), "--h", "0.3",
                        "--out-dir", str(tmp_path / "bnd"))
    assert proc.returncode == 1
    assert "must stay below about 4.49e+297" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_boundary_exit_codes(tmp_path, identity_setup):
    mapped_csv = tmp_path / "bnd_in.csv"
    save_cloud(mapped_csv, identity_setup["points"])
    out = str(tmp_path / "bnd_err")
    assert main(["boundary", "--mapped", str(mapped_csv),
                 "--h", "-1", "--out-dir", out]) == 2
    # a tiny threshold prunes every face: runtime failure
    assert main(["boundary", "--mapped", str(mapped_csv),
                 "--h", "1e-09", "--out-dir", out]) == 1
    assert main(["boundary", "--h", "0.3", "--out-dir", out]) == 2  # no source
    cloud3 = tmp_path / "b3.xyz"
    save_cloud(cloud3, np.random.default_rng(3).normal(0, 1, (6, 3)))
    assert main(["boundary", "--mapped", str(cloud3),
                 "--h", "0.3", "--out-dir", out]) == 2


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_reconstruct_uniform(workdir, identity_setup):
    out = workdir / "recon.obj"
    param_out = workdir / "recon_param.obj"
    rc = main([
        "reconstruct", "--checkpoint", str(identity_setup["ckpt"]),
        "--input", str(identity_setup["cloud"]), "--target-edge", "0.2",
        "--out", str(out), "--param-out", str(param_out),
    ])
    assert rc == 0
    surface = load_mesh(out)
    assert len(surface.triangles) > 10
    # identity checkpoint: lifted vertices sit where the parameter mesh does
    param = load_mesh(param_out)
    assert len(param.vertices) >= len(surface.vertices)
    assert np.abs(surface.vertices[:, 2]).max() < 1e-6


def test_reconstruct_lambda_adapted(workdir, identity_setup):
    out = workdir / "recon_ada.off"
    rc = main([
        "reconstruct", "--checkpoint", str(identity_setup["ckpt"]),
        "--input", str(identity_setup["cloud"]), "--target-edge", "0.2",
        "--mode", "lambda_adapted",
        "--lambda-checkpoint", str(identity_setup["lambda"]),
        "--out", str(out),
    ])
    assert rc == 0
    assert len(load_mesh(out).triangles) > 10


def test_reconstruct_past_the_coordinate_bound_exits_1(tmp_path, identity_setup):
    # an affine map onto 1e200-scale coordinates, which point location rejects
    ckpt = tmp_path / "huge.ckpt.json"
    save_checkpoint(ckpt, NetworkSpec(2, (), 2), np.array([1e200, 0.0, 0.0, 1e200, 0.0, 0.0]))
    proc = _run_pcparam("reconstruct", "--checkpoint", str(ckpt),
                        "--input", str(identity_setup["cloud"]), "--target-edge", "0.2",
                        "--out", str(tmp_path / "x.obj"))
    assert proc.returncode == 1
    assert "mapped coordinates reach magnitude 1e+200" in proc.stderr
    assert "below 1e+150" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.obj").exists()


def test_eval_past_the_coordinate_bound_exits_1(tmp_path, identity_setup):
    # the exact extrema form squared distances, which overflow past the bound
    ckpt = tmp_path / "huge.ckpt.json"
    save_checkpoint(ckpt, NetworkSpec(2, (), 2), np.array([1e200, 0.0, 0.0, 1e200, 0.0, 0.0]))
    proc = _run_pcparam("eval", "--checkpoint", str(ckpt),
                        "--input", str(identity_setup["cloud"]), "--sample-size", "64",
                        "--out-dir", str(tmp_path / "e"))
    assert proc.returncode == 1
    assert "coordinates reach magnitude 1e+200" in proc.stderr
    assert "below 1e+150" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "e").exists()


def test_reconstruct_refused_allocation_exits_1(tmp_path, identity_setup):
    # the disk's boundary polyline would take 488 TiB at 1e-12 and about
    # 10 GiB at 1e-7, which a large machine would allocate; both pass the
    # mesh's vertex limit and are refused before anything is allocated
    for edge in ("1e-12", "1e-7"):
        proc = _run_pcparam("reconstruct", "--checkpoint", str(identity_setup["ckpt"]),
                            "--input", str(identity_setup["cloud"]), "--domain-preset", "disk",
                            "--target-edge", edge, "--out", str(tmp_path / "x.obj"))
        assert proc.returncode == 1
        assert "runtime failure: the parameter mesh" in proc.stderr
        assert "past the limit of 262144 (2**18) vertices" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.obj").exists()


def test_reconstruct_past_the_vertex_limit_exits_1_at_once(tmp_path, identity_setup, caplog):
    # at 1e-5 the disk's ring and darts would be triangulated for minutes;
    # the vertex limit refuses them at once
    t0 = time.perf_counter()
    rc = main(["reconstruct", "--checkpoint", str(identity_setup["ckpt"]),
               "--input", str(identity_setup["cloud"]), "--domain-preset", "disk",
               "--target-edge", "1e-5", "--out", str(tmp_path / "x.obj")])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert "runtime failure: the parameter mesh" in caplog.text
    assert "past the limit of 262144 (2**18) vertices" in caplog.text
    assert not (tmp_path / "x.obj").exists()


def test_reconstruct_lambda_adapted_needs_checkpoint(workdir, identity_setup):
    rc = main([
        "reconstruct", "--checkpoint", str(identity_setup["ckpt"]),
        "--input", str(identity_setup["cloud"]), "--target-edge", "0.2",
        "--mode", "lambda_adapted", "--out", str(workdir / "x.obj"),
    ])
    assert rc == 2


# ---------------------------------------------------------------------------
# sample-domain / plot
# ---------------------------------------------------------------------------


def test_sample_domain_area_and_boundary(workdir):
    area_out = workdir / "area.csv"
    assert main(["sample-domain", "--domain-preset", "disk", "--n", "200",
                 "--out", str(area_out)]) == 0
    pts = load_cloud(area_out)
    assert pts.shape == (200, 2)
    assert (np.linalg.norm(pts, axis=1) <= 1.0 + 1e-9).all()

    b_out = workdir / "bnd.csv"
    assert main(["sample-domain", "--domain-preset", "disk", "--n", "50",
                 "--kind", "boundary", "--out", str(b_out)]) == 0
    bpts = load_cloud(b_out)
    np.testing.assert_allclose(np.linalg.norm(bpts, axis=1), 1.0, atol=1e-9)

    again = workdir / "area2.csv"
    assert main(["sample-domain", "--domain-preset", "disk", "--n", "200",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == area_out.read_bytes()
    assert main(["sample-domain", "--domain-preset", "disk", "--n", "0",
                 "--out", str(workdir / "zero.csv")]) == 2


def test_sample_domain_custom_file(workdir):
    from pcparam.domains import preset_domain, save_domain

    dom_path = workdir / "custom_dom.json"
    save_domain(dom_path, preset_domain("car"))
    out = workdir / "car_pts.csv"
    assert main(["sample-domain", "--domain-file", str(dom_path), "--n", "50",
                 "--out", str(out)]) == 0
    assert load_cloud(out).shape == (50, 2)


def test_sample_domain_file_with_a_bad_point_exits_2_naming_it(tmp_path):
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps({"loops": [[
        {"type": "line", "start": [0], "end": [1, 0]},
        {"type": "line", "start": [1, 0], "end": [0, 0]},
    ]]}))
    proc = _run_pcparam("sample-domain", "--domain-file", str(bad), "--n", "10",
                        "--out", str(tmp_path / "d.csv"))
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {bad}: malformed line segment: start must be a point [x, y], " \
        "got [0]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "d.csv").exists()


def test_plot_kinds(workdir, fitted):
    line_out = workdir / "lines.svg"
    assert main(["plot", "--input", str(fitted / "log.csv"),
                 "--kind", "stage_lines", "--out", str(line_out)]) == 0
    svg = line_out.read_text()
    assert svg.startswith("<svg") and "loss_total" in svg

    scatter_out = workdir / "scatter.svg"
    assert main(["plot", "--input", str(fitted / "mapped.csv"),
                 "--kind", "scatter", "--out", str(scatter_out)]) == 0
    assert "circle" in scatter_out.read_text()

    hist_out = workdir / "hist.svg"
    assert main(["plot", "--input", str(fitted / "mapped.csv"),
                 "--kind", "histogram", "--bins", "7",
                 "--out", str(hist_out)]) == 0
    assert 'data-bins="7"' in hist_out.read_text()

    again = workdir / "lines2.svg"
    assert main(["plot", "--input", str(fitted / "log.csv"),
                 "--kind", "stage_lines", "--out", str(again)]) == 0
    assert again.read_bytes() == line_out.read_bytes()


def test_plot_errors(workdir, fitted):
    assert main(["plot", "--input", str(workdir / "missing.csv"),
                 "--kind", "scatter", "--out", str(workdir / "x.svg")]) == 2
    assert main(["plot", "--input", str(fitted / "mapped.csv"),
                 "--kind", "stage_lines", "--out", str(workdir / "y.svg")]) == 2


# a ragged table and one with a word among the numbers, with what the error names
MALFORMED_TABLES = [
    pytest.param("ragged.csv", "x,y\n0.1,0.2\n0.3\n", "ragged.csv: inconsistent column counts",
                 id="ragged"),
    pytest.param("word.csv", "x,y\n0.1,0.2\n0.3,abc\n", "word.csv:3: not a numeric row",
                 id="non-numeric"),
    pytest.param("gap.csv", "x,y\n0.1,\n0.3,0.4\n", "gap.csv:2: not a numeric row",
                 id="empty-cell"),
    pytest.param("short.csv", "x,y\n0.1,0.2\n0.3,0.4\n0.5\n0.6\n",
                 "short.csv: inconsistent column counts, first at line 4", id="ragged-line"),
]


def test_plot_stage_lines_bad_cell_exits_2_naming_the_line(tmp_path, caplog):
    log_csv = tmp_path / "log.csv"
    out = tmp_path / "x.svg"
    # blank lines count: the bad cell is on line 4 of the second file
    for text, line in (("stage,loss_total\n1,0.5\n2,abc\n", 3),
                       ("stage,loss_total\n\n1,0.5\n2,abc\n", 4)):
        log_csv.write_text(text)
        caplog.clear()
        assert main(["plot", "--input", str(log_csv), "--kind", "stage_lines",
                     "--out", str(out)]) == 2
        assert f"config error: {log_csv}:{line}: not a numeric row" in caplog.text
        assert not out.exists()


@pytest.mark.parametrize("name, text, message", MALFORMED_TABLES)
@pytest.mark.parametrize("kind", ["scatter", "histogram"])
def test_plot_malformed_table_exits_2(tmp_path, caplog, name, text, message, kind):
    table = tmp_path / name
    table.write_text(text)
    out = tmp_path / "x.svg"
    assert main(["plot", "--input", str(table), "--kind", kind, "--out", str(out)]) == 2
    assert f"config error: {table.parent / message}" in caplog.text
    assert not out.exists()


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_extremum(workdir):
    out = workdir / "audit.csv"
    assert main(["audit", "--kind", "extremum", "--trials", "40",
                 "--seed", "1", "--out", str(out)]) == 0
    header, rows = load_table(out)
    assert header[-1] == "ok"
    assert len(rows) == 40 * 5  # five alphas per trial
    assert all(r[-1] == "1" for r in rows)
    for trials in ("0", "-3"):
        empty = workdir / f"audit_{trials}.csv"
        assert main(["audit", "--kind", "extremum", "--trials", trials,
                     "--out", str(empty)]) == 2
        assert not empty.exists()


def test_audit_distortion_bound(workdir, identity_setup):
    mesh_path = workdir / "audit_mesh.obj"
    pts = identity_setup["points"]
    save_mesh(mesh_path, delaunay(pts))
    mapped_csv = workdir / "audit_mapped.csv"
    save_cloud(mapped_csv, pts)
    lam_csv = workdir / "audit_lam.csv"
    from pcparam.io import save_table

    save_table(lam_csv, ["lambda_inv"], [[0.5]] * len(pts))
    out = workdir / "bound.csv"
    rc = main([
        "audit", "--kind", "distortion-bound", "--mesh", str(mesh_path),
        "--mapped", str(mapped_csv), "--lambda-inv", str(lam_csv),
        "--out", str(out),
    ])
    assert rc == 0
    header, rows = load_table(out)
    report = dict(zip(header, rows[0]))
    assert report["holds"] == "1"
    assert float(report["lhs"]) >= float(report["rhs"])
    assert main(["audit", "--kind", "distortion-bound",
                 "--out", str(workdir / "z.csv")]) == 2


@pytest.mark.parametrize("name, text, message", [
    *MALFORMED_TABLES,
    pytest.param("empty.csv", "lambda_inv\n", "empty.csv: no values found", id="empty"),
])
def test_audit_malformed_lambda_table_exits_2(range_inputs, tmp_path, caplog, name, text,
                                              message):
    table = tmp_path / name
    table.write_text(text)
    argv = range_inputs["audit-bound"]
    argv = [*argv[: argv.index("--lambda-inv") + 1], str(table), "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 2
    assert f"config error: {table.parent / message}" in caplog.text
    assert not (tmp_path / "b.csv").exists()


@pytest.fixture(scope="module")
def range_inputs(workdir, identity_setup):
    """Valid arguments for each command whose numeric flags must be > 0."""
    pts = identity_setup["points"]
    mesh, lam = workdir / "range_mesh.obj", workdir / "range_lam.csv"
    save_mesh(mesh, delaunay(pts))
    from pcparam.io import save_table

    save_table(lam, ["lambda_inv"], [[0.5]] * len(pts))
    ck, cloud = str(identity_setup["ckpt"]), str(identity_setup["cloud"])
    out = str(workdir / "range_out")
    return {
        "eval": ["eval", "--checkpoint", ck, "--input", cloud, "--out-dir", out],
        "boundary": ["boundary", "--mapped", cloud, "--h", "0.3", "--out-dir", out],
        "reconstruct": ["reconstruct", "--checkpoint", ck, "--input", cloud,
                        "--target-edge", "0.2", "--out", out + ".obj"],
        "sample-domain": ["sample-domain", "--n", "10", "--out", out + ".csv"],
        "plot": ["plot", "--input", cloud, "--kind", "histogram", "--out", out + ".svg"],
        "audit-extremum": ["audit", "--kind", "extremum", "--trials", "2",
                           "--out", out + ".csv"],
        "audit-bound": ["audit", "--kind", "distortion-bound", "--mesh", str(mesh),
                        "--mapped", cloud, "--lambda-inv", str(lam), "--out", out + ".csv"],
    }


# one malformed file of each kind the commands read, and checkpoints that
# parse as JSON but are not one: a list, a nested params list that holds
# as many numbers as the spec wants, hidden_widths as a string of digits.
# The mesh and domain errors come from int() and json, whose messages do
# not name the file
MALFORMED_FILES = {
    "cloud": ("bad.csv", "x,y\n0.1,0.2\n0.3,abc\n"),
    # a 3-column cloud with an empty middle column, and one with trailing
    # commas: neither is a 2-d cloud
    "cloud-gap": ("cloud.csv", "x,y,z\n0.12,,0.64\n0.5,,0.25\n"),
    "cloud-trailing": ("cloud.csv", "x,y\n0.12,0.64,\n0.5,0.25,\n"),
    "mesh": ("bad.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n"),
    "checkpoint": ("bad.ckpt.json", "{"),
    "checkpoint-list": ("list.ckpt.json", "[1, 2]"),
    "checkpoint-nested": ("nested.ckpt.json", json.dumps({
        "version": 1, "spec": {"input_dim": 2, "hidden_widths": [], "output_dim": 2},
        "params": [[1, 2], [3, 4], [5, 6]],
    })),
    "checkpoint-widths": ("widths.ckpt.json", json.dumps({
        "version": 1, "spec": {"input_dim": 2, "hidden_widths": "256", "output_dim": 2},
        "params": [0.0] * 71,  # as many as widths (2, 5, 6) would want
    })),
    "domain": ("bad.json", "{"),
}


def _with_flag(argv, flag, value):
    """argv with flag set to value, replacing the value it had."""
    if flag in argv:
        k = argv.index(flag)
        return [*argv[: k + 1], value, *argv[k + 2:]]
    return [*argv, flag, value]


@pytest.mark.parametrize("command, flag, kind", [
    ("map", "--input", "cloud"),
    ("map", "--checkpoint", "checkpoint"),
    ("map", "--lambda-checkpoint", "checkpoint"),
    ("map", "--checkpoint", "checkpoint-list"),
    ("map", "--checkpoint", "checkpoint-nested"),
    ("map", "--checkpoint", "checkpoint-widths"),
    ("eval", "--input", "cloud"),
    ("eval", "--checkpoint", "checkpoint"),
    ("eval", "--mesh", "mesh"),
    ("eval", "--domain-file", "domain"),
    ("boundary", "--mapped", "cloud"),
    ("reconstruct", "--input", "cloud"),
    ("reconstruct", "--checkpoint", "checkpoint"),
    ("reconstruct", "--domain-file", "domain"),
    ("reconstruct-lambda", "--lambda-checkpoint", "checkpoint"),
    ("sample-domain", "--domain-file", "domain"),
    ("plot", "--input", "cloud"),
    ("audit-bound", "--mesh", "mesh"),
    ("audit-bound", "--mapped", "cloud"),
    ("audit-bound", "--lambda-inv", "cloud"),
])
def test_malformed_input_file_exits_2_naming_it(range_inputs, identity_setup, tmp_path, caplog,
                                                command, flag, kind):
    name, text = MALFORMED_FILES[kind]
    bad = tmp_path / name
    bad.write_text(text)
    ck, lam = str(identity_setup["ckpt"]), str(identity_setup["lambda"])
    argv = {
        **range_inputs,
        "map": ["map", "--checkpoint", ck, "--input", str(identity_setup["cloud"]),
                "--out", str(tmp_path / "m.csv"), "--lambda-checkpoint", lam,
                "--lambda-out", str(tmp_path / "l.csv")],
        "reconstruct-lambda": [*range_inputs["reconstruct"], "--mode", "lambda_adapted",
                               "--lambda-checkpoint", lam],
    }[command]
    assert main(_with_flag(argv, flag, str(bad))) == 2
    assert "config error: " in caplog.text and str(bad) in caplog.text


# `where` is the line the message must name after the path, when it names one
@pytest.mark.parametrize("key, kind, where", [
    pytest.param(key, kind, where, id=f"{key}-{kind}") for key, kind, where in [
        ("config", None, ""), ("input", "cloud", ":3"), ("eval_mesh", "mesh", ":4"),
        ("domain", "domain", ""), ("input", "cloud-gap", ":2"),
        ("input", "cloud-trailing", ":2"),
    ]
])
def test_fit_malformed_file_exits_2_naming_it(tmp_path, tiny_cloud_csv, caplog, key, kind,
                                              where):
    cfg_path = tmp_path / "fit.json"
    if kind is None:
        bad = cfg_path
        cfg_path.write_bytes(b"\xff{}")  # not UTF-8
    else:
        name, text = MALFORMED_FILES[kind]
        bad = tmp_path / name
        bad.write_text(text)
        value = {"file": str(bad)} if key == "domain" else str(bad)
        _write_config(cfg_path, _tiny_config(tiny_cloud_csv, tmp_path / "out", **{key: value}))
    assert main(["fit", "--config", str(cfg_path)]) == 2
    assert "config error: " in caplog.text and f"{bad}{where}" in caplog.text


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--sample-size", "0"),
    ("eval", "--bins", "0"),
    ("boundary", "--h", "-1"),
    ("boundary", "--h", "nan"),
    ("reconstruct", "--target-edge", "0"),
    ("reconstruct", "--target-edge", "-1"),
    ("sample-domain", "--n", "0"),
    ("plot", "--bins", "0"),
    ("audit-extremum", "--trials", "0"),
    ("audit-bound", "--sigma", "0"),
])
def test_nonpositive_numeric_flag_exits_2_naming_it(range_inputs, caplog, command, flag, value):
    argv = range_inputs[command]
    assert main(argv) == 0
    caplog.clear()
    assert main([*argv, flag, value]) == 2
    assert f"{flag} must be positive, got " in caplog.text


@pytest.mark.parametrize("command", ["eval", "reconstruct", "sample-domain", "audit-extremum"])
def test_negative_seed_exits_2(range_inputs, caplog, command):
    assert main([*range_inputs[command], "--seed", "-1"]) == 2
    assert "config error: --seed must be non-negative, got -1" in caplog.text


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parser_lists_all_verbs():
    help_text = build_parser().format_help()
    for verb in ("fit", "map", "eval", "boundary", "reconstruct",
                 "sample-domain", "plot", "audit"):
        assert verb in help_text
