"""Golden outputs: tiny fixed-seed runs must reproduce pinned SHA-256 hashes.

c11 in test_acceptance compares two runs made by the same code; this test
compares against hashes frozen once, so a refactor that changes a single
float bit of the training or reconstruction path fails here. Each run goes
through `pcparam.cli.main` in a fresh subprocess with one BLAS thread, since
the thread count changes the bits of the matrix products.

- `landmark_2d`: a 2-d landmark fit with beta1 > 0, which exercises the
  distortion energy, the domain surrogate, the landmark surrogate and the
  inverse-factor network.
- `fixed_boundary_3d`: a 3-d fixed-boundary fit with an evaluation mesh,
  which exercises the three-coordinate distance kernels.
- `reconstruct_disk`: `pcparam reconstruct` in `uniform` and
  `lambda_adapted` mode on a small lifted disk, through a projection
  checkpoint, which exercises dart throwing, the inverse interpolator
  (interior, shared-edge and off-hull queries) and the lift.

The hashes were frozen with numpy 2.4.6 on scipy-openblas 0.3.31.188.0
(OpenBLAS DYNAMIC_ARCH, Haswell kernels) on an x86-64 CPU with AVX-512.
numpy's sin/cos/exp loops and OpenBLAS's kernels are chosen per CPU and per
build, so on another build the bits may differ without any change to this
code; the test then skips rather than report a false failure.

A change that moves these bits on purpose re-freezes them with

    PYTHONPATH=src python tests/test_golden.py

which runs the three cases as the tests do and prints FROZEN_BUILD, GOLDEN
and GOLDEN_RECONSTRUCT in this file's format, to paste over the tables
below. Every re-freeze needs a CHANGES.md entry that names the change that
moved the bits and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pcparam.geometry import TriangleMesh
from pcparam.io import save_cloud, save_mesh
from pcparam.meshing import delaunay
from pcparam.neural import NetworkSpec, save_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"

FROZEN_BUILD = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "avx512f": True,
}

GOLDEN = {
    "landmark_2d": {
        "log.csv": "173d341bcaf72c9a4861d7b82de439f3f17a76840374b95ea9f1f6bc3493aa61",
        "mapped.csv": "72543b60d5f9873224862c82c27b62e419c6fd7d95597c9e6f8d61906d0e2587",
        "map.ckpt.json": "452bdd8032da9be4136633ad4cbbc9727e806f924aa7aebf332ed9001da2c7a4",
        "lambda.ckpt.json": "34c527602920762b063d4e6f2f04cfd2ef57ecaaa2ff711d0a233cd6e8e18ead",
    },
    "fixed_boundary_3d": {
        "log.csv": "187cf4d79d4fff41f9fd58958a3805ec843a78f9e0d89509374567445f83ee25",
        "mapped.csv": "c32db344114e4e26a8bd266932969a639ced68cc95342cc0e3573f47a97eb745",
        "map.ckpt.json": "528e0339333c38b4987009ea69e5db6e4144565058d1bbc069e66d79bdd7c899",
        "lambda.ckpt.json": "62b530c83ab8124700fd5cd34c9120bd1b9de5ca9f80a14da5259efb402364e2",
    },
}

GOLDEN_RECONSTRUCT = {
    "uniform.obj": "a97708b2f63410071f4bcdbd206852eeaf0f45929e4ce2d5c36b80e62a9e4602",
    "uniform_param.obj": "d0e1cd124efd9e503a3e67a74e87fc8158d3fdc46b5169a30e6207a7e6d7e76c",
    "adapted.obj": "c3e20ac0cfd0c647b71a3c5b7d1a3ceff9fe2600ecb4547a19b57f15a5397e45",
    "adapted_param.obj": "8ce938bde4a043b20f331fc838d4a9bf9779d141cecf512007134da4fcd4eed5",
}

OUTPUTS = ("log.csv", "mapped.csv", "map.ckpt.json", "lambda.ckpt.json")


def _build() -> dict:
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "avx512f": bool(__cpu_features__.get("AVX512F")),
    }


def _setup_landmark_2d(work: Path) -> dict:
    rng = np.random.default_rng(7)
    cloud = rng.uniform(0.0, 1.0, (300, 2))
    anchor = np.array([0.25, 0.25])
    rows = np.sort(np.argsort(((cloud - anchor) ** 2).sum(axis=1))[:8])
    t = np.linspace(0.0, 1.0, 12)
    target = np.column_stack([0.55 + 0.3 * t, np.full(12, 0.7)])
    save_cloud(work / "cloud.csv", cloud)
    return {
        "input": "cloud.csv",
        "output_dir": "out",
        "mode": "landmark",
        "seed": 3,
        "domain": {"preset": "square"},
        "objective": {"beta1": 5.0, "beta2": 1.0, "beta3": 1.0},
        "stage": {
            "epochs": 6, "batch_points": 128, "batch_domain": 128,
            "epochs_min": 3, "sigma_min": 0.2,
        },
        "map_net": {"hidden_widths": [32, 32]},
        "lambda_net": {"hidden_widths": [16]},
        "landmarks": [{
            "rows": [int(i) for i in rows],
            "target": [[float(a), float(b)] for a, b in target],
        }],
        "domain_size": 256,
        "eval_sample_size": 256,
    }


def _setup_fixed_boundary_3d(work: Path) -> dict:
    rng = np.random.default_rng(11)
    pts = [np.zeros((1, 2))]
    rings = 10
    for j in range(1, rings + 1):
        r = j / rings
        m = max(8, int(round(2 * np.pi * r * rings)))
        th = 2 * np.pi * np.arange(m) / m
        ring = np.column_stack([r * np.cos(th), r * np.sin(th)])
        if j < rings:
            ring += rng.normal(0.0, 0.004, ring.shape)
        pts.append(ring)
    xy = np.vstack(pts)
    cloud = np.column_stack([xy, 0.6 * np.exp(-(xy ** 2).sum(axis=1) / 0.18)])
    save_cloud(work / "cloud.csv", cloud)
    save_mesh(work / "mesh.obj", TriangleMesh(cloud, delaunay(xy).triangles))
    return {
        "input": "cloud.csv",
        "output_dir": "out",
        "mode": "fixed_boundary",
        "seed": 5,
        "domain": {"preset": "disk"},
        "objective": {"beta1": 25.0, "beta2": 1.0},
        "stage": {
            "epochs": 6, "batch_points": 128, "batch_domain": 128,
            "epochs_min": 3,
        },
        "map_net": {"hidden_widths": [24, 24, 24]},
        "lambda_net": {"hidden_widths": [16, 16]},
        "domain_size": 256,
        "eval_sample_size": 256,
        "eval_mesh": "mesh.obj",
    }


SETUPS = {
    "landmark_2d": _setup_landmark_2d,
    "fixed_boundary_3d": _setup_fixed_boundary_3d,
}


def _run_cli(work: Path, argv: list[str]) -> None:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys; from pcparam.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=work, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _hashes(directory: Path, names) -> dict[str, str]:
    return {f: hashlib.sha256((directory / f).read_bytes()).hexdigest() for f in names}


def _run_fit(name: str, work: Path) -> dict[str, str]:
    cfg = SETUPS[name](work)
    (work / "fit.json").write_text(json.dumps(cfg))
    _run_cli(work, ["fit", "--config", "fit.json"])
    return _hashes(work / "out", OUTPUTS)


def _run_reconstruct(work: Path) -> dict[str, str]:
    rng = np.random.default_rng(13)
    pts = [np.zeros((1, 2))]
    rings = 8
    for j in range(1, rings + 1):
        r = j / rings
        m = max(8, int(round(2 * np.pi * r * rings)))
        th = 2 * np.pi * np.arange(m) / m
        ring = np.column_stack([r * np.cos(th), r * np.sin(th)])
        if j < rings:
            ring += rng.normal(0.0, 0.004, ring.shape)
        pts.append(ring)
    xy = np.vstack(pts)
    save_cloud(work / "cloud.csv", np.column_stack([xy, np.exp(-(xy ** 2).sum(axis=1) / 0.1)]))
    # one affine layer that drops z, and lambda_inv = softplus(4 z - 1)
    save_checkpoint(work / "map.ckpt.json", NetworkSpec(3, (), 2),
                    np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    save_checkpoint(work / "lambda.ckpt.json",
                    NetworkSpec(3, (), 1, output_activation="softplus"),
                    np.array([0.0, 0.0, 4.0, -1.0]))
    common = ["reconstruct", "--checkpoint", "map.ckpt.json", "--input", "cloud.csv",
              "--domain-preset", "disk", "--target-edge", "0.15"]
    _run_cli(work, [*common, "--mode", "uniform",
                    "--out", "uniform.obj", "--param-out", "uniform_param.obj"])
    _run_cli(work, [*common, "--mode", "lambda_adapted",
                    "--lambda-checkpoint", "lambda.ckpt.json",
                    "--out", "adapted.obj", "--param-out", "adapted_param.obj"])
    return _hashes(work, GOLDEN_RECONSTRUCT)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fit_hashes(name, tmp_path):
    build = _build()
    if build != FROZEN_BUILD:
        pytest.skip(f"hashes were frozen on {FROZEN_BUILD}, this build is {build}")
    assert _run_fit(name, tmp_path) == GOLDEN[name]


def test_golden_reconstruct_hashes(tmp_path):
    build = _build()
    if build != FROZEN_BUILD:
        pytest.skip(f"hashes were frozen on {FROZEN_BUILD}, this build is {build}")
    assert _run_reconstruct(tmp_path) == GOLDEN_RECONSTRUCT


def _print_table(name: str, table: dict) -> None:
    print(f"{name} = {{")
    for key, value in table.items():
        if isinstance(value, dict):
            print(f'    "{key}": {{')
            for k, v in value.items():
                print(f'        "{k}": "{v}",')
            print("    },")
        else:
            print(f'    "{key}": {json.dumps(value) if isinstance(value, str) else value},')
    print("}\n")


def main() -> None:
    """Print the golden tables as this checkout and build compute them."""
    with tempfile.TemporaryDirectory() as tmp:
        fits = {}
        for name in GOLDEN:
            work = Path(tmp) / name
            work.mkdir()
            fits[name] = _run_fit(name, work)
        work = Path(tmp) / "reconstruct_disk"
        work.mkdir()
        reconstruct = _run_reconstruct(work)
    _print_table("FROZEN_BUILD", _build())
    _print_table("GOLDEN", fits)
    _print_table("GOLDEN_RECONSTRUCT", reconstruct)


if __name__ == "__main__":
    main()
