"""The demo scripts run end to end against the current package. The two
that train are marked slow; the fast suite still checks that they import."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pcparam
from pcparam.io import load_mesh

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name: str, *args: str) -> str:
    """The stdout of demos/<name>.py run with args in a fresh interpreter,
    once it exited 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(pcparam.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py"), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_annulus_boundary_demo_runs(tmp_path):
    out = _run_demo("annulus_boundary", "--out-dir", str(tmp_path))
    assert "h = 0.15: 2 loop(s)" in out
    for label in ("pruned", "unpruned"):
        assert (tmp_path / f"annulus_{label}.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("name", ["blob_to_square", "bump_to_disk"])
def test_training_demo_imports(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.slow
def test_blob_to_square_demo_runs(tmp_path):
    # shape matching through the library API: train with no inverse-factor net
    out = _run_demo("blob_to_square", "--alphas", "10", "--out-dir", str(tmp_path))
    lines = out.splitlines()
    assert lines[0].split() == ["alpha", "exact", "Hausdorff", "to", "square"]
    row = re.fullmatch(r"\s*10\s+(\S+)\s+\(mapped_alpha10\.svg\)", lines[1])
    assert row is not None, lines
    # the blob reaches about 0.6 from the square's far points; the map less
    assert 0.0 < float(row.group(1)) < 0.3
    assert len(lines) == 2
    for name in ("blob.svg", "mapped_alpha10.svg"):
        assert (tmp_path / name).read_text().startswith("<svg")


@pytest.mark.slow
def test_bump_to_disk_demo_runs(tmp_path):
    # a fit with an inverse-factor net, whose values then size the
    # lambda-adapted reconstruction
    out = _run_demo("bump_to_disk", "--out-dir", str(tmp_path))
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["stage", "batch", "alpha"]
    stages = [line.split() for line in lines[1:] if re.match(r"\s*\d+\s", line)]
    assert [int(r[0]) for r in stages] == list(range(1, len(stages) + 1))
    assert len(stages) >= 2
    # the last stage ends with a lower Hausdorff and angle error than the first
    first, last = stages[0], stages[-1]
    assert float(last[-2]) < float(first[-2]) and float(last[-1]) < float(first[-1])
    cv = {}
    for mode in ("uniform", "lambda_adapted"):
        row = re.search(rf"^{mode}\s*:\s*(\d+) faces, area CV (\S+)", out, re.M)
        assert row is not None, out
        mesh = load_mesh(tmp_path / f"bump_{mode}.obj")
        assert len(mesh.triangles) == int(row.group(1)) > 0
        cv[mode] = float(row.group(2))
    assert cv["lambda_adapted"] < cv["uniform"]
