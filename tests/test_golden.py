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
}

GOLDEN_FLOAT64 = {
    "landmark_2d": {
        "log.csv": "c4d68b5ad1c667eaaaa197d75337372e8a097d9e92b163eddf789bbecb4f5f75",
        "mapped.csv": "d7388601858e80e06084bcde2fa0035269c070d67fdcefcf0b285c030fe84a05",
        "map.ckpt.json": "937847aa6fc2d43326e9da6f4ed0b74349a0e11016dd91f5198f8209bc150365",
        "lambda.ckpt.json": "4e15adb103fbc49298a29c85e345b1b814f90c8dece01b8b77ebd01f31e40f71",
    },
    "fixed_boundary_3d": {
        "log.csv": "b65661604ec350597cce4b70c6fe5dfeeb68d701aa6db4761dfe09487e087958",
        "mapped.csv": "e78bdeff98832dab179b98227f7e2c1e742f7254db10913f8a9b19881d8eb5b9",
        "map.ckpt.json": "55a4ebada574e986bbce7b223e3c83138aa5f5f41b98c9209079273a546eac47",
        "lambda.ckpt.json": "376b54ca8d3656754607f5a4040b57b2686f6421f2721115150a90c599c3590a",
    },
}

GOLDEN_PARAMS_FLOAT64 = {
    "landmark_2d": {
        "map.ckpt.json": "ed5a2ab21540fbe8fc8e7c35a4aff60904dfaf6c89f4d673d1ea5d33fecb2dce",
        "lambda.ckpt.json": "82a06292057de67b81789d9357ea57438fce8ec78c0e7df26024047a40e47ddc",
    },
    "fixed_boundary_3d": {
        "map.ckpt.json": "4f76dcffb1178c39898c51b6b32b43a3c165c9be659db89555fec7b2b1211ff3",
        "lambda.ckpt.json": "7ce36407d35b14338bcfa500757977d34f210d5fed17982242d60aaace99bc57",
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
