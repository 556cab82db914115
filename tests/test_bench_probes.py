"""The benchmark's instruments still find the names they patch.

`bench/probes.py` times each layer by replacing module attributes such as
`pcparam.losses.hand_with_grad`, and records a name it cannot find instead
of failing. So a rename in the program quietly zeroes a per-layer span.
This test loads that file without changing it, installs its step clock and
spans, runs the `postfit`-style commands after a tiny fit through
`pcparam.cli.main`, and checks that every layer span saw a call.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from pcparam import cli
from pcparam.io import save_cloud, save_mesh
from pcparam.meshing import delaunay
from pcparam.neural import NetworkSpec, save_checkpoint

PROBES = Path(__file__).resolve().parents[1] / "bench" / "probes.py"

# names the probes still patch although the program dropped them; the next
# benchmark change removes them from bench/probes.py
STALE = [
    "pcparam.geometry.pairwise_distances",
    "pcparam.losses.boltzmann_rows",
    "pcparam.losses.boltzmann_rows_grad",
    "pcparam.losses.pairwise_distances",
    "pcparam.optimizer.pairwise_distances",
]

# every span these commands must reach; `geometry.pairwise` is left out
# because only the stale names above led to it
SPANS = [
    "optimizer.train", "optimizer.rmsprop",
    "losses.total", "losses.hand", "losses.leg", "boltzmann.extrema",
    "geometry.hausdorff", "geometry.gap", "geometry.angle",
    "neural.forward", "neural.backward",
    "domains.sample",
    "meshing.delaunay", "meshing.param_mesh", "meshing.boundary",
    "meshing.reconstruct", "meshing.interp_build", "meshing.interp_query",
    "io.ckpt_write", "io.ckpt_read", "io.cloud_io", "io.other",
]


def _load_probes():
    spec = importlib.util.spec_from_file_location("bench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _commands(tmp: Path) -> list[list[str]]:
    """A tiny fit, then eval with a mesh, boundary and both reconstruct modes."""
    rng = np.random.default_rng(0)
    cloud = np.vstack([rng.uniform(0.0, 1.0, (40, 2)), [[0, 0], [1, 0], [1, 1], [0, 1]]])
    save_cloud(tmp / "cloud.csv", cloud)
    save_mesh(tmp / "mesh.obj", delaunay(cloud))
    # reconstruct lifts through the identity map, so its meshes are not empty
    save_checkpoint(tmp / "id.ckpt.json", NetworkSpec(2, (), 2),
                    np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    (tmp / "fit.json").write_text(json.dumps({
        "input": str(tmp / "cloud.csv"), "output_dir": str(tmp / "fit"),
        "objective": {"beta1": 1.0, "beta2": 1.0},
        "stage": {"epochs": 2, "batch_points": 32, "batch_domain": 32, "epochs_min": 1},
        "map_net": {"hidden_widths": [8]}, "lambda_net": {"hidden_widths": [4]},
        "domain_size": 64, "eval_sample_size": 64,
    }))
    cloud_args = ["--input", str(tmp / "cloud.csv")]
    fitted = ["--checkpoint", str(tmp / "fit" / "map.ckpt.json"), *cloud_args]
    lifted = ["--checkpoint", str(tmp / "id.ckpt.json"), *cloud_args, "--target-edge", "0.3"]
    return [
        ["fit", "--config", str(tmp / "fit.json")],
        ["eval", *fitted, "--mesh", str(tmp / "mesh.obj"), "--sample-size", "64",
         "--out-dir", str(tmp / "eval")],
        ["boundary", *fitted, "--h", "1", "--out-dir", str(tmp / "boundary")],
        ["reconstruct", *lifted, "--out", str(tmp / "uniform.obj")],
        ["reconstruct", *lifted, "--mode", "lambda_adapted",
         "--lambda-checkpoint", str(tmp / "fit" / "lambda.ckpt.json"),
         "--out", str(tmp / "adapted.obj")],
    ]


def test_bench_probes_reach_every_layer(tmp_path):
    probes = _load_probes()
    commands = _commands(tmp_path)
    patches = probes.Patches()
    clock = probes.StepClock()
    tracer = probes.Tracer()
    patches.replace(cli, "train", clock.wrap_train)
    probes.install_spans(tracer, patches)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        patches.undo()
    assert codes == [0] * len(commands)
    assert sorted(patches.missing) == STALE
    assert len(clock.marks) > 0
    silent = [name for name in SPANS if tracer.spans.get(name, [0])[0] == 0]
    assert silent == []


def test_bench_alloc_probe_finds_its_names():
    probes = _load_probes()
    patches = probes.Patches()
    probes.install_alloc(probes.AllocProbe(), patches)
    patches.undo()
    assert patches.missing == []
