"""Golden outputs: tiny fixed-seed runs must reproduce pinned SHA-256 hashes.

c11 in test_acceptance compares two runs made by the same code; this test
compares against hashes frozen once, so a refactor that changes a single
float bit of the training or reconstruction path fails here. Each run goes
through `pcparam.cli.main` in a fresh subprocess with one BLAS thread. The
BLAS thread count no longer changes the bits of a fit: `train` holds
OpenBLAS at one thread and runs its rows in one piece or in two halves, cut
by the sizes alone, the same on every machine.
`test_fit_bits_do_not_depend_on_blas_threads_or_the_worker` checks that at
1 and 2 threads, with the first half on the worker thread or on the caller;
unlike the hashes, it runs on any build.

- `landmark_2d`: a 2-d landmark fit with beta1 > 0, which exercises the
  distortion energy, the domain surrogate, the landmark surrogate and the
  inverse-factor network.
- `fixed_boundary_3d`: a 3-d fixed-boundary fit with an evaluation mesh,
  which exercises the three-coordinate distance kernels.
- `reconstruct_disk`: `pcparam reconstruct` in `uniform` and
  `lambda_adapted` mode on a small lifted disk, through a projection
  checkpoint, which exercises dart throwing, the inverse interpolator
  (interior and off-hull queries) and the lift. None of its queries lies on
  an edge that two triangles share; `tests/test_bitexact.py` pins that case.

The hashes were frozen with numpy 2.4.6 on scipy-openblas 0.3.31.188.0
(OpenBLAS DYNAMIC_ARCH, Haswell kernels) on an x86-64 CPU with AVX-512.
numpy's sin/cos/exp loops and OpenBLAS's kernels are chosen per CPU and per
build, so on another build the bits may differ without any change to this
code; the test then skips rather than report a false failure. The CPU is
told by numpy's X86_V4 (AVX-512) dispatch group, which, unlike the AVX512F
flag, reads False when NPY_DISABLE_CPU_FEATURES turns those loops off:
with "X86_V4 X86_V3" off, the float32 sin and cos loops give other bits.

GOLDEN_PARAMS pins the parameters in each fit's checkpoints apart from the
file: the SHA-256 of the float64 array that `load_checkpoint` returns. A
change to the checkpoint encoding alone moves the `*.ckpt.json` hashes in
GOLDEN and leaves GOLDEN_PARAMS as it is.

The fits run their nets in the default float32. GOLDEN_FLOAT64 and
GOLDEN_PARAMS_FLOAT64 pin the same fits with both default specs turned to
float64 in the child interpreter (`_FLOAT64_NETS`). They hold the hashes of
the fits from before float32 became the default: a float64 checkpoint
holds no dtype field, so its bytes did not change either.

A change that moves these bits on purpose re-freezes them with

    PYTHONPATH=src python tests/test_golden.py

which runs the cases as the tests do and prints FROZEN_BUILD, GOLDEN,
GOLDEN_PARAMS, GOLDEN_FLOAT64, GOLDEN_PARAMS_FLOAT64 and GOLDEN_RECONSTRUCT
in this file's format, to paste over the tables below. Every re-freeze
needs a CHANGES.md entry that names the change that moved the bits and
why.
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
from pcparam.neural import NetworkSpec, load_checkpoint, save_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"

FROZEN_BUILD = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "x86_v4": True,
}

GOLDEN = {
    "landmark_2d": {
        "log.csv": "4719588dcc2898e39677795c375845387ab11101c9920d80433a7fa4cdcce916",
        "mapped.csv": "403ac71f09bcedc03b6167ffc18b3fab61979043df669680d52a4737bada1db1",
        "map.ckpt.json": "bfd8c9de1d65c6e3cd70c67a8af91bf69bd0a8da3c7aa6346e8f670b9df38adf",
        "lambda.ckpt.json": "b329833f06073833781ca7a8a5b43adea64260cfc2880cacc4ee80e2c10f0d97",
    },
    "fixed_boundary_3d": {
        "log.csv": "a76b5c0f1e46d9b61801dc16aeda805404d4475776a93773f386064cf13d6c62",
        "mapped.csv": "928e0990e3e12a252c126fe8d4ac86cc5babb34b1a9a29541c2883d7a770f062",
        "map.ckpt.json": "ee966f4f20a58f89785cdfeda67dfb207cb8be37794eab5e92e9aaa077acb183",
        "lambda.ckpt.json": "8066fec8f4ca02323251af0ba8e25ab1069669dbdd8b66334e01da6d05bd2177",
    },
}

GOLDEN_PARAMS = {
    "landmark_2d": {
        "map.ckpt.json": "d6c796247b764667e13a99e279b394fb38d9479b5b9dba83ae61f77be8cf8bc1",
        "lambda.ckpt.json": "812c0f743ae9af236d656b52822adbee66d5ae3d388b25440fdcc54ad0fae313",
    },
    "fixed_boundary_3d": {
        "map.ckpt.json": "348740fad587acf3e4e89333a449e007d6c28bc5fc051bdad913be6e6e9f8da7",
        "lambda.ckpt.json": "6b46d9e67510238dd0c3ec1e9aa46b069c50cb94f4c07977f666e90680c1c111",
    },
}

GOLDEN_FLOAT64 = {
    "landmark_2d": {
        "log.csv": "57665ce512e9c3d5a837d6b6c7326da15a8eef2c828db4d293ad7d5300de9fcb",
        "mapped.csv": "8adb0578d2af145acec6fec014cb54a85dce66011cc2f5f26975f67a1fec7aaa",
        "map.ckpt.json": "4a0ef4bd341e091eeeb1736a6ab2558f27de47e414eb330d6470e79fb5e8b657",
        "lambda.ckpt.json": "f89d8ca0ee1a7e34fa5ea42b3dad87ba8bdc1e67a1964698875bcd029292acde",
    },
    "fixed_boundary_3d": {
        "log.csv": "bbc7a5952a4e61977b64fcce5bbc157b4531fd0bfec59a952c6d16627ebcf35a",
        "mapped.csv": "268278e14a7ffd7286718f608baf327e359240737d8272594b74b2d023795e6d",
        "map.ckpt.json": "e79c42e0925205f5b4a185f8cf5834b2005a5ba6d44881c7284ede790d730110",
        "lambda.ckpt.json": "a41e292e321db6fb5b7500fd64452b72a0d264e8edb928330cbc930f5f25f5f5",
    },
}

GOLDEN_PARAMS_FLOAT64 = {
    "landmark_2d": {
        "map.ckpt.json": "ea242479b6626d83ee4916d299a981cbb0f7e5221a340a68083c21bf4d14fe64",
        "lambda.ckpt.json": "d0831d65065822625515c6c49adb10d67a400d1662f452f017f520e12d28f5ce",
    },
    "fixed_boundary_3d": {
        "map.ckpt.json": "410e20484f1311602b432c1197d07b95de86e5bf2a917cba378bb54783212128",
        "lambda.ckpt.json": "7f57a9530157022360314896ab953c929f981d86bcd44a7b64582f12746774de",
    },
}

GOLDEN_RECONSTRUCT = {
    "uniform.obj": "a97708b2f63410071f4bcdbd206852eeaf0f45929e4ce2d5c36b80e62a9e4602",
    "uniform_param.obj": "d0e1cd124efd9e503a3e67a74e87fc8158d3fdc46b5169a30e6207a7e6d7e76c",
    "adapted.obj": "c3e20ac0cfd0c647b71a3c5b7d1a3ceff9fe2600ecb4547a19b57f15a5397e45",
    "adapted_param.obj": "8ce938bde4a043b20f331fc838d4a9bf9779d141cecf512007134da4fcd4eed5",
}

OUTPUTS = ("log.csv", "mapped.csv", "map.ckpt.json", "lambda.ckpt.json")
CHECKPOINTS = ("map.ckpt.json", "lambda.ckpt.json")


def _build() -> dict:
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "x86_v4": bool(__cpu_features__.get("X86_V4")),
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


# how the two row halves run: "shipped" as shipped (this fit's small nets in
# one piece), "pool" every computation cut in two and the first half on the
# worker thread, "caller" cut the same way with both halves on the calling
# thread, "none" as where no OpenBLAS thread control is found (no hold,
# halves on the caller)
_HALVES = {
    "shipped": "",
    "pool": "import pcparam._halves as h; h._MIN_HALF = 0\n",
    "caller": (
        "import concurrent.futures as cf, pcparam._halves as h\n"
        "class Now:\n"
        "    def submit(self, fn, *args):\n"
        "        f = cf.Future(); f.set_result(fn(*args)); return f\n"
        "h._worker, h._MIN_HALF = Now, 0\n"
    ),
    "none": "import pcparam._halves as h; h._control = False\n",
}

# the default map and lambda specs of `pcparam fit`, in float64
_FLOAT64_NETS = (
    "import dataclasses, pcparam.cli as c\n"
    "for f in ('default_map_spec', 'default_lambda_spec'):\n"
    "    setattr(c, f, lambda d, g=getattr(c, f): dataclasses.replace(g(d), dtype='float64'))\n"
)


def _run_cli(work: Path, argv: list[str], threads: int = 1, halves: str = "shipped",
             prelude: str = "") -> None:
    """`pcparam argv` in a fresh interpreter with `threads` BLAS threads, the
    row halves run as `_HALVES[halves]` says, after the code `prelude`."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["OMP_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys; from pcparam.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", _HALVES[halves] + prelude + code, *argv],
        cwd=work, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _hashes(directory: Path, names) -> dict[str, str]:
    return {f: hashlib.sha256((directory / f).read_bytes()).hexdigest() for f in names}


def _param_hashes(directory: Path, names) -> dict[str, str]:
    return {
        f: hashlib.sha256(load_checkpoint(directory / f)[1].tobytes()).hexdigest()
        for f in names
    }


def _run_fit(name: str, work: Path, float64: bool = False) -> tuple[dict[str, str],
                                                                    dict[str, str]]:
    """The hashes of the fit's output files and of its checkpoints'
    parameters; with `float64`, both nets run in float64."""
    (work / "fit.json").write_text(json.dumps(SETUPS[name](work)))
    _run_cli(work, ["fit", "--config", "fit.json"], prelude=_FLOAT64_NETS if float64 else "")
    return _hashes(work / "out", OUTPUTS), _param_hashes(work / "out", CHECKPOINTS)


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
    files, params = _run_fit(name, tmp_path)
    assert params == GOLDEN_PARAMS[name]
    assert files == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FLOAT64))
def test_golden_float64_fit_hashes(name, tmp_path):
    build = _build()
    if build != FROZEN_BUILD:
        pytest.skip(f"hashes were frozen on {FROZEN_BUILD}, this build is {build}")
    files, params = _run_fit(name, tmp_path, float64=True)
    assert params == GOLDEN_PARAMS_FLOAT64[name]
    assert files == GOLDEN_FLOAT64[name]


def test_golden_reconstruct_hashes(tmp_path):
    build = _build()
    if build != FROZEN_BUILD:
        pytest.skip(f"hashes were frozen on {FROZEN_BUILD}, this build is {build}")
    assert _run_reconstruct(tmp_path) == GOLDEN_RECONSTRUCT


def test_fit_bits_do_not_depend_on_blas_threads_or_the_worker(tmp_path):
    # nets wide enough that OpenBLAS would split their products over two
    # threads; `train` holds it at one, so the fit gives the same bytes at
    # either count, with the first half on the worker thread or on the
    # caller. Without the hold ("none"), 2 threads may move the bits of
    # eval's distance products, so that case runs at 1 thread only. Cutting
    # in two sums in another order, so "pool" and "caller" are compared with
    # each other, and the rest with the fit as shipped.
    cfg = _setup_fixed_boundary_3d(tmp_path)
    cfg.update(map_net={"hidden_widths": [128, 128]}, lambda_net={"hidden_widths": [96]})
    cfg["stage"].update(epochs=2, epochs_min=1)
    runs = {}
    for threads, halves in ((1, "shipped"), (2, "shipped"), (1, "pool"), (2, "pool"),
                            (1, "caller"), (2, "caller"), (1, "none")):
        cfg["output_dir"] = out = f"out_{threads}_{halves}"
        (tmp_path / "fit.json").write_text(json.dumps(cfg))
        _run_cli(tmp_path, ["fit", "--config", "fit.json"], threads, halves)
        files = sorted(p.name for p in (tmp_path / out).iterdir() if p.suffix != ".json")
        files += sorted(p.name for p in (tmp_path / out).glob("*.ckpt.json"))
        runs[threads, halves] = _hashes(tmp_path / out, files)
    assert {"log.csv", "mapped.csv", "map_stage1.ckpt.json"} <= set(runs[1, "shipped"])
    for key, hashes in runs.items():
        assert hashes == runs[1, "pool" if key[1] in ("pool", "caller") else "shipped"], key
    assert runs[1, "pool"] != runs[1, "shipped"]  # the cut was made


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
        fits, params, fits64, params64 = {}, {}, {}, {}
        for name in GOLDEN:
            work = Path(tmp) / name
            work.mkdir()
            fits[name], params[name] = _run_fit(name, work)
            (work / "float64").mkdir()
            fits64[name], params64[name] = _run_fit(name, work / "float64", float64=True)
        work = Path(tmp) / "reconstruct_disk"
        work.mkdir()
        reconstruct = _run_reconstruct(work)
    _print_table("FROZEN_BUILD", _build())
    _print_table("GOLDEN", fits)
    _print_table("GOLDEN_PARAMS", params)
    _print_table("GOLDEN_FLOAT64", fits64)
    _print_table("GOLDEN_PARAMS_FLOAT64", params64)
    _print_table("GOLDEN_RECONSTRUCT", reconstruct)


if __name__ == "__main__":
    main()
