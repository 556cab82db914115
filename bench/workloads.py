"""Inputs, commands and output checks of the three benchmark workloads.

Each workload writes its inputs (clouds, meshes, checkpoints, a fit config)
into an empty working directory from the cloud-generator seed alone, then
lists the `pcparam` commands to run there. The program only ever sees those
files. `check` reads the outputs back, runs the correctness checks and
extracts the quality figures the user gets from the run.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pcparam.domains import preset_domain
from pcparam.geometry import TriangleMesh, hausdorff_exact
from pcparam.io import load_cloud, load_mesh, load_table, save_cloud, save_mesh
from pcparam.meshing import delaunay
from pcparam.neural import NetworkSpec, forward, load_checkpoint, save_checkpoint

# fit3d runs the default 3-d nets on a stage schedule cut to a few epochs:
# 6 epochs x 2 batches at batch 1024, then 3 full-batch epochs at 2046.
FIT3D_EPOCHS = 6
FIT3D_EPOCHS_MIN = 3
# While RMSprop's squared-gradient average fills, its first steps move each
# parameter by about 10x the learning rate. With so few steps, the default
# 1e-4 throws the 5x256 sine net around and the last stage's Hausdorff beat
# the first on only 2 of 5 seeds; at 3e-6 it did on all 13 seeds tried.
# The work per step does not depend on the rate.
FIT3D_LEARNING_RATE = 3e-6

# the staged schedule of the c8 acceptance check, batch 128 doubling to the
# full 1000 points over four stages, except that the epoch count halves
# down to 20 instead of staying at 60: stages of 60, 30, 20 and 20 epochs,
# 660 steps in all, so that one run holds two iterations
C8_STAGE = {
    "epochs": 60, "batch_points": 128, "batch_domain": 128,
    "sigma": 0.5, "alpha_init": 2.0, "alpha_final": 20.0,
    "sigma_min": 0.2, "alpha_max": 40.0, "epochs_min": 20,
}

POSTFIT_BOUNDARY_H = 0.15
# at 0.08 the dart throwing in lambda_adapted mode makes the same number of
# rounds on every seed; at 0.1 its stopping round, and so its work, varies
POSTFIT_TARGET_EDGE = 0.08
# inverse-factor checkpoint of postfit: lambda_inv = softplus(A z + B), so
# reconstruct places smaller triangles up the spike
POSTFIT_LAMBDA_A, POSTFIT_LAMBDA_B = 4.0, -1.0

CIRCLE = np.column_stack([
    np.cos(2 * np.pi * np.arange(4096) / 4096),
    np.sin(2 * np.pi * np.arange(4096) / 4096),
])


@dataclass
class Plan:
    """What one workload runs in its working directory."""

    name: str
    commands: list[list[str]]
    # commands the allocation pass needs: the ones that reach the loss and
    # geometry entry points it measures
    alloc_commands: list[list[str]]
    info: dict = field(default_factory=dict)


def polar_grid(rng, rings, lift, jitter):
    """Jittered polar grid of the unit disk (the acceptance-test generator).

    Returns the planar footprint, the lifted 3-d cloud and the number of
    points on the outer ring, which is never jittered and closes the cloud.
    """
    pts = [np.zeros((1, 2))]
    for j in range(1, rings + 1):
        r = j / rings
        m = max(8, int(round(2 * np.pi * r * rings)))
        th = 2 * np.pi * np.arange(m) / m
        ring = np.column_stack([r * np.cos(th), r * np.sin(th)])
        if j < rings:
            ring += rng.normal(0.0, jitter, ring.shape)
        pts.append(ring)
    xy = np.vstack(pts)
    return xy, np.column_stack([xy, lift(xy)]), len(pts[-1])


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _setup_fit3d(seed: int, work: Path) -> Plan:
    xy, cloud, outer = polar_grid(
        np.random.default_rng(100 + seed), rings=25, jitter=0.004,
        lift=lambda p: 0.6 * np.exp(-(p ** 2).sum(axis=1) / 0.18),
    )
    save_cloud(work / "cloud.csv", cloud)
    save_mesh(work / "mesh.obj", TriangleMesh(cloud, delaunay(xy).triangles))
    _write_json(work / "fit.json", {
        "input": "cloud.csv",
        "output_dir": "fit",
        "mode": "fixed_boundary",
        "seed": 0,
        "domain": {"preset": "disk"},
        "stage": {"epochs": FIT3D_EPOCHS, "epochs_min": FIT3D_EPOCHS_MIN},
        "optimizer": {"learning_rate": FIT3D_LEARNING_RATE},
        "eval_mesh": "mesh.obj",
    })
    cmd = [["fit", "--config", "fit.json"]]
    return Plan("fit3d", cmd, cmd, {"outer_ring": outer})


def _setup_fit2d_landmark(seed: int, work: Path) -> Plan:
    cloud = np.random.default_rng(200 + seed).uniform(0.0, 1.0, (1000, 2))
    anchor = np.array([0.25, 0.25])
    rows = np.sort(np.argsort(((cloud - anchor) ** 2).sum(axis=1))[:20])
    t = np.linspace(0.0, 1.0, 60)
    target = np.column_stack([0.55 + 0.3 * t, np.full(60, 0.7)])
    save_cloud(work / "cloud.csv", cloud)
    save_mesh(work / "mesh.obj", delaunay(cloud))
    _write_json(work / "fit.json", {
        "input": "cloud.csv",
        "output_dir": "fit",
        "mode": "landmark",
        "seed": 0,
        "domain": {"preset": "square"},
        "objective": {"beta1": 5.0, "beta2": 1.0, "beta3": 1.0},
        "stage": dict(C8_STAGE),
        "map_net": {"hidden_widths": [64, 64, 64]},
        "lambda_net": {"hidden_widths": [32, 32]},
        "landmarks": [{
            "rows": [int(i) for i in rows],
            "target": [[float(a), float(b)] for a, b in target],
        }],
        "domain_size": 1024,
        "eval_sample_size": 1024,
        "eval_mesh": "mesh.obj",
    })
    cmd = [["fit", "--config", "fit.json"]]
    return Plan("fit2d_landmark", cmd, cmd)


def _affine_checkpoint(path: Path, spec: NetworkSpec, weight, bias) -> None:
    params = np.concatenate([np.asarray(weight, float).ravel(), np.asarray(bias, float)])
    save_checkpoint(path, spec, params)


def _setup_postfit(seed: int, work: Path) -> Plan:
    amp, width = 1.1, 0.04
    xy, cloud, _ = polar_grid(
        np.random.default_rng(77 + seed), rings=24, jitter=0.003,
        lift=lambda p: amp * np.exp(-(p ** 2).sum(axis=1) / width),
    )
    save_cloud(work / "cloud.csv", cloud)
    save_mesh(work / "mesh.obj", TriangleMesh(cloud, delaunay(xy).triangles))
    # one affine layer that drops z: maps the spike onto its footprint exactly
    _affine_checkpoint(work / "map.ckpt.json", NetworkSpec(3, (), 2),
                       [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.0, 0.0])
    _affine_checkpoint(
        work / "lambda.ckpt.json",
        NetworkSpec(3, (), 1, output_activation="softplus"),
        [[0.0], [0.0], [POSTFIT_LAMBDA_A]], [POSTFIT_LAMBDA_B],
    )
    common = ["--checkpoint", "map.ckpt.json", "--input", "cloud.csv"]
    domain = ["--domain-preset", "disk"]
    edge = ["--target-edge", str(POSTFIT_TARGET_EDGE)]
    evaluate = ["eval", *common, *domain, "--mesh", "mesh.obj", "--out-dir", "eval"]
    commands = [
        evaluate,
        ["boundary", *common, "--h", str(POSTFIT_BOUNDARY_H), "--out-dir", "bnd"],
        ["reconstruct", *common, *domain, "--mode", "uniform", *edge,
         "--out", "uniform.obj", "--param-out", "uniform_param.obj"],
        ["reconstruct", *common, *domain, "--mode", "lambda_adapted", *edge,
         "--lambda-checkpoint", "lambda.ckpt.json",
         "--out", "adapted.obj", "--param-out", "adapted_param.obj"],
    ]
    return Plan("postfit", commands, [evaluate])


def setup(name: str, seed: int, work: Path) -> Plan:
    """Write the workload's inputs into `work` and return what to run there."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return {
        "fit3d": _setup_fit3d,
        "fit2d_landmark": _setup_fit2d_landmark,
        "postfit": _setup_postfit,
    }[name](seed, work)


# ---------------------------------------------------------------------------
# outputs: digests, checks, quality figures
# ---------------------------------------------------------------------------

# deterministic products of each workload's commands, relative to its
# working directory; timing never reaches any of them
OUTPUTS = {
    "fit3d": ("fit/log.csv", "fit/mapped.csv", "fit/map.ckpt.json",
              "fit/lambda.ckpt.json"),
    "fit2d_landmark": ("fit/log.csv", "fit/mapped.csv", "fit/map.ckpt.json",
                       "fit/lambda.ckpt.json"),
    "postfit": ("eval/metrics.csv", "eval/histogram.csv", "bnd/loops.csv",
                "uniform.obj", "uniform_param.obj", "adapted.obj",
                "adapted_param.obj"),
}


def digest(name: str, work: Path) -> str:
    """SHA-256 over the workload's deterministic outputs, in a fixed order."""
    h = hashlib.sha256()
    for rel in OUTPUTS[name]:
        path = work / rel
        h.update(rel.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def _log_rows(path: Path) -> list[dict]:
    header, rows = load_table(path)
    return [dict(zip(header, r)) for r in rows]


def _cell(row: dict, key: str) -> float:
    return float(row[key]) if row.get(key, "") != "" else math.nan


def _check_fit(work: Path, checks: dict) -> list[dict]:
    rows = _log_rows(work / "fit" / "log.csv")
    checks["log_has_2_stages"] = len(rows) >= 2
    numeric = [_cell(r, k) for r in rows for k in r if r[k] != ""]
    checks["log_finite"] = bool(numeric) and all(math.isfinite(v) for v in numeric)
    checks["hausdorff_improves"] = (
        len(rows) >= 2 and _cell(rows[-1], "eval_hausdorff") < _cell(rows[0], "eval_hausdorff")
    )
    return rows


def check(plan: Plan, work: Path, returncodes: list[int]) -> tuple[dict, dict]:
    """(checks by name -> passed, quality figures by metric name).

    Call only after every command of the plan ran; a command that failed
    makes the checks that read its outputs fail too.
    """
    checks = {"exit_codes_zero": all(rc == 0 for rc in returncodes)}
    quality = {}
    try:
        if plan.name in ("fit3d", "fit2d_landmark"):
            rows = _check_fit(work, checks)
            last = rows[-1]
            quality["final_hausdorff"] = _cell(last, "eval_hausdorff")
            quality["final_angle_rad"] = _cell(last, "eval_mean_abs_angle")
            if plan.name == "fit2d_landmark":
                quality["landmark_hausdorff"] = _cell(last, "eval_landmark_hausdorff")
            else:
                # fixed_boundary pins the cloud's outer ring to the unit circle
                mapped = load_cloud(work / "fit" / "mapped.csv")
                ring = mapped[-plan.info["outer_ring"]:]
                quality["landmark_hausdorff"] = hausdorff_exact(ring, CIRCLE)
        else:
            quality.update(_check_postfit(plan, work, checks))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"output check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        checks["outputs_readable"] = False
    return checks, quality


def _check_postfit(plan: Plan, work: Path, checks: dict) -> dict:
    header, rows = load_table(work / "eval" / "metrics.csv")
    metrics = {r[0]: float(r[1]) for r in rows}
    # eval's own points: the mapped cloud, and the first draw of its sampler
    # at seed 0 and the default --sample-size 4096
    mapped = forward(*load_checkpoint(work / "map.ckpt.json"), load_cloud(work / "cloud.csv"))
    dense = preset_domain("disk").sample_area(4096, np.random.default_rng(0))
    checks["eval_hausdorff_exact"] = metrics["hausdorff"] == hausdorff_exact(mapped, dense)

    loops = {}
    _, loop_rows = load_table(work / "bnd" / "loops.csv")
    for r in loop_rows:
        loops.setdefault(int(r[0]), []).append((float(r[3]), float(r[4])))
    checks["one_boundary_loop"] = len(loops) == 1

    for mesh_name in ("uniform.obj", "adapted.obj"):
        mesh = load_mesh(work / mesh_name)  # TriangleMesh validates on load
        checks[f"{mesh_name}_over_100_faces"] = len(mesh.triangles) > 100
    loop = np.array(next(iter(loops.values()))) if loops else np.empty((0, 2))
    return {
        "final_hausdorff": metrics["hausdorff"],
        "final_angle_rad": metrics["mean_abs_angle"],
        "landmark_hausdorff": hausdorff_exact(loop, CIRCLE) if len(loop) else math.nan,
    }
