"""The demo scripts run, or at least import, against the current package."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcparam

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_annulus_boundary_demo_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(pcparam.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "annulus_boundary.py"), "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "h = 0.15: 2 loop(s)" in proc.stdout
    for label in ("pruned", "unpruned"):
        assert (tmp_path / f"annulus_{label}.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("name", ["blob_to_square", "bump_to_disk"])
def test_training_demo_imports(name):
    # these two train for tens of seconds, so only their imports are checked
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
