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
- `shape_matching_2d`: a 2-d shape-matching fit (beta1 = 0), the path
  without an inverse-factor network: it writes no lambda checkpoint.
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
float64 in the child interpreter (`_FLOAT64_NETS`); a float64 checkpoint
holds no dtype field. The float32 nets take the loss gradients cast to
float32, so a change to the last bits of the float64 losses moves the
logged losses of the float32 fits but can leave their parameters, and so
GOLDEN_PARAMS and the checkpoint and mapped.csv hashes, as they are.

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
        "log.csv": "b153b16c0fe98cbef6723173c6fb2ba85b116a697376cc559a1581bde84c13dd",
        "mapped.csv": "7647969b8c282dd84a9e36deafd76c946714c246652d89115613ed375624f9ae",
        "map.ckpt.json": "e9cbfed1df62854f022d7dde85d9f5968f945456e714c62b3e8215f261ea9202",
        "lambda.ckpt.json": "243a8581fe7f88bad1da421ab4bbd82fd05c8796dc4e6e97566af43b8b6a7d95",
    },
    "fixed_boundary_3d": {
        "log.csv": "966c1f1e3cfd2cc77d8c5d74cb4c0b4005d28e978b848b53b094c16d026c394d",
        "mapped.csv": "02fedaabad91ff5e584a35586ccfb8eed37142e83c86868c83f31982a670b984",
        "map.ckpt.json": "970a2c9bd189e2cb2f806c95e93b03d662621b21bc7225e222316716dbacf805",
        "lambda.ckpt.json": "2d2d61a1fbac69bef3a776cfca01add3111e970bdbd6f7c2518b5f722ac32113",
    },
    "shape_matching_2d": {
        "log.csv": "a84412f9ff1e7582f1a6ffd525030845facdff4863fad03bb01e5bc2ae1a3b24",
        "mapped.csv": "83f268ae6f5375afb2d73aebb1ddf2385bca3ca8a4b15000b0cadf80e9c53b32",
        "map.ckpt.json": "9e156b21e424f4fb3a675a9119e1a8ee5f96daadcf4d8912268767589d5de35a",
    },
}

GOLDEN_PARAMS = {
    "landmark_2d": {
        "map.ckpt.json": "955cd413da7f78c395fbc5dd2d39eddee47c7e670f095dd81ddadc745f1839d9",
        "lambda.ckpt.json": "037b768bc7eacb084c9e72362ff32048e7bbe569479a850fe8d72c37d21e2ae4",
    },
    "fixed_boundary_3d": {
        "map.ckpt.json": "2f0352da006dd26542afb58022be9838888aaae44e45d3616a6f9423d9cd3110",
        "lambda.ckpt.json": "bcd3c1400d7b3d1200459aace2a5e08e24a73f3d213e336b548f59880b2e42d9",
    },
    "shape_matching_2d": {
        "map.ckpt.json": "eff07727df935caac71393956a8e0dd2eb5473453f4fad71277ce239b8f5a14a",
    },
}

GOLDEN_FLOAT64 = {
    "landmark_2d": {
        "log.csv": "63a1568ea9ed4bc59859575234d6ef8be959178c6144fc6aa699955b0e2a05bd",
        "mapped.csv": "553f69b56b787597902c6d2fa3e75f49777bf187aaee9083b05b012fe3f2bd13",
        "map.ckpt.json": "c95b59114a069b5a21718c142d3237fb548202f3b40cc1323d9b0a234a755c72",
        "lambda.ckpt.json": "fb191bdbd076f032038a80057e9ba69ebac3614a0f8241d9227c00552150955d",
    },
    "fixed_boundary_3d": {
        "log.csv": "df078b8e99768b7f66c1c91b54a18190aac2fa76ec828cb1e153f47821ce91a2",
        "mapped.csv": "9d359e4741d8f397e3093f45d584b18fdc0e30455e2799ae36a130e6089a0c09",
        "map.ckpt.json": "0b06d3d20c4d966ebb3ed05227a0f8b117353d6b65ff724445ef9c304f4da73f",
        "lambda.ckpt.json": "05291876d3c8be063c0281406720e0ca1c3a9fc937c70e251a22adce57f0d7f4",
    },
    "shape_matching_2d": {
        "log.csv": "cf47928464e015b74b181b2e9ae068c10ac736a0f4bb10c153484298897d3703",
        "mapped.csv": "1d70ac4eee42c6666ec0c6033cb6335eec607f9725a048b203bd1b82c55c1561",
        "map.ckpt.json": "57315a9d4a591fefb2aebda9ed0a3b82d5da07c4a22aa04b43e5aa19d2f3a4df",
    },
}

GOLDEN_PARAMS_FLOAT64 = {
    "landmark_2d": {
        "map.ckpt.json": "94d12f93efd87e63ebc272ab88c5e8500cc2718fedbb147548ff07cd144b0396",
        "lambda.ckpt.json": "43696e50a32be7713392b8da809e8c5959a3cb4a1c52ce9f1b35d265b9f8c375",
    },
    "fixed_boundary_3d": {
        "map.ckpt.json": "f0fd02695edebeae3f9a1bf4bd2bb47f53c987ae18c313e9142cb6d10bc52021",
        "lambda.ckpt.json": "a27d1cf786a9ce226a82e6135fe971d6d90e76dcf83f07ab87c3a96c3de9ff9f",
    },
    "shape_matching_2d": {
        "map.ckpt.json": "fee4bf79afffd82887395cf1fa89c6891959fd4ff6e071e40245ff06da20f66e",
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


def _setup_shape_matching_2d(work: Path) -> dict:
    rng = np.random.default_rng(17)
    # a slanted elliptical blob, matched to the disk
    r = np.sqrt(rng.uniform(0.0, 1.0, 300))
    th = rng.uniform(0.0, 2 * np.pi, 300)
    xy = np.column_stack([0.8 * r * np.cos(th), 0.4 * r * np.sin(th)])
    save_cloud(work / "cloud.csv", xy @ np.array([[0.8, 0.6], [-0.6, 0.8]]))
    return {
        "input": "cloud.csv",
        "output_dir": "out",
        "mode": "shape_matching",
        "seed": 9,
        "domain": {"preset": "disk"},
        "objective": {"beta2": 1.0},
        "stage": {
            "epochs": 6, "batch_points": 128, "batch_domain": 128,
            "epochs_min": 3,
        },
        "map_net": {"hidden_widths": [32, 32]},
        "domain_size": 256,
        "eval_sample_size": 256,
    }


SETUPS = {
    "landmark_2d": _setup_landmark_2d,
    "fixed_boundary_3d": _setup_fixed_boundary_3d,
    "shape_matching_2d": _setup_shape_matching_2d,
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
    """The hashes of the files among names that directory holds."""
    return {f: hashlib.sha256((directory / f).read_bytes()).hexdigest()
            for f in names if (directory / f).exists()}


def _param_hashes(directory: Path, names) -> dict[str, str]:
    return {
        f: hashlib.sha256(load_checkpoint(directory / f)[1].tobytes()).hexdigest()
        for f in names if (directory / f).exists()
    }


def _run_fit(name: str, work: Path, float64: bool = False) -> tuple[dict[str, str],
                                                                    dict[str, str]]:
    """The hashes of the fit's output files and of its checkpoints'
    parameters; with `float64`, both nets run in float64."""
    cfg = SETUPS[name](work)
    (work / "fit.json").write_text(json.dumps(cfg))
    _run_cli(work, ["fit", "--config", "fit.json"], prelude=_FLOAT64_NETS if float64 else "")
    # a fit writes lambda checkpoints exactly when it has an inverse-factor net
    lambda_files = sorted(p.name for p in (work / "out").glob("lambda*"))
    assert bool(lambda_files) == (cfg["mode"] != "shape_matching"), lambda_files
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
        for name in SETUPS:
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
