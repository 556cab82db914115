"""Release acceptance: eleven numbered end-to-end checks.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
check. The training checks (6, 7, 8) share one set of fits through a
module fixture; check 11 re-runs those fits and compares bytes.
"""

import json
import time

import numpy as np
import pytest

from pcparam.boltzmann import extremum_error_and_bound
from pcparam.cli import main
from pcparam.domains import preset_domain
from pcparam.geometry import (
    TriangleMesh,
    angle_distortion,
    hausdorff_exact,
    modified_hausdorff_exact,
)
from pcparam.io import load_cloud, load_table, save_cloud, save_mesh
from pcparam.losses import (
    HandConfig,
    LegConfig,
    ObjectiveConfig,
    audit_theorem_bound,
    hand_with_grad,
    leg_with_grad,
    total_loss_with_grad,
)
from pcparam.meshing import (
    boundary_edges,
    delaunay,
    prune_long_faces,
    reconstruct_surface,
)
from pcparam.neural import NetworkSpec, backward, forward, init_params


# ---------------------------------------------------------------------------
# shared numeric helpers
# ---------------------------------------------------------------------------


def _fd_grad(f, x, eps):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x.ravel())
    flat = x.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f(x)
        flat[i] = old - eps
        fm = f(x)
        flat[i] = old
        g[i] = (fp - fm) / (2 * eps)
    return g.reshape(x.shape)


def _rel_err(g, g_fd):
    g = np.asarray(g, dtype=np.float64).ravel()
    g_fd = np.asarray(g_fd, dtype=np.float64).ravel()
    return float(np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12))


def _polar_grid(rng, rings, lift=None, jitter=0.004):
    """Near-uniform jittered polar sampling of the unit disk."""
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
    if lift is None:
        return xy
    return xy, np.column_stack([xy, lift(xy)])


# ---------------------------------------------------------------------------
# training fixture shared by checks 6, 7, 8, 11
# ---------------------------------------------------------------------------

_STAGED = {
    "epochs": 60, "batch_points": 128, "batch_domain": 128,
    "sigma": 0.5, "alpha_init": 2.0, "alpha_final": 20.0,
    "sigma_min": 0.2, "alpha_max": 40.0, "epochs_min": 60,
}


def _blob_cloud():
    return np.random.default_rng(42).normal(0.5, 0.12, (1000, 2))


def _bump_surface(seed):
    rng = np.random.default_rng(100 + seed)
    xy, cloud = _polar_grid(
        rng, rings=18,
        lift=lambda p: 0.6 * np.exp(-(p ** 2).sum(axis=1) / 0.18),
    )
    mesh = TriangleMesh(cloud, delaunay(xy).triangles)
    return cloud, mesh


def _landmark_problem():
    rng = np.random.default_rng(200)
    cloud = rng.uniform(0.0, 1.0, (1000, 2))
    anchor = np.array([0.25, 0.25])
    rows = np.sort(np.argsort(((cloud - anchor) ** 2).sum(axis=1))[:20])
    t = np.linspace(0.0, 1.0, 60)
    target = np.column_stack([0.55 + 0.3 * t, np.full(60, 0.7)])
    return cloud, rows, target


def _fit(cfg, cfg_path, out_dir):
    cfg = dict(cfg, output_dir=str(out_dir))
    cfg_path.write_text(json.dumps(cfg))
    assert main(["fit", "--config", str(cfg_path)]) == 0
    return out_dir


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("accept")


@pytest.fixture(scope="module")
def training_runs(workdir):
    """Runs every desk-scale fit once: 4 for check 6, 2 for check 7, 1 for
    check 8. Returns configs, output dirs, and per-group wall times."""
    runs = {"configs": {}, "dirs": {}, "elapsed": {}}

    blob_path = workdir / "blob.csv"
    save_cloud(blob_path, _blob_cloud())
    t0 = time.monotonic()
    for alpha in (2.0, 100.0):
        for seed in (0, 1):
            key = f"c6_a{alpha:g}_s{seed}"
            cfg = {
                "input": str(blob_path),
                "mode": "shape_matching",
                "seed": seed,
                "domain": {"preset": "square"},
                "objective": {"beta2": 1.0},
                "stage": {
                    "epochs": 200, "batch_points": 1000, "batch_domain": 1024,
                    "alpha_init": alpha, "alpha_final": alpha, "epochs_min": 1,
                },
                "map_net": {"hidden_widths": [64, 64, 64]},
                "domain_size": 1024,
                "eval_sample_size": 1024,
            }
            runs["configs"][key] = cfg
            runs["dirs"][key] = _fit(cfg, workdir / f"{key}.json",
                                     workdir / key)
    runs["elapsed"]["c6"] = time.monotonic() - t0

    t0 = time.monotonic()
    for seed in (0, 1):
        key = f"c7_s{seed}"
        cloud, mesh = _bump_surface(seed)
        cloud_path = workdir / f"bump{seed}.csv"
        mesh_path = workdir / f"bump{seed}.obj"
        save_cloud(cloud_path, cloud)
        save_mesh(mesh_path, mesh)
        cfg = {
            "input": str(cloud_path),
            "mode": "fixed_boundary",
            "seed": seed,
            "domain": {"preset": "disk"},
            "objective": {"beta1": 25.0, "beta2": 1.0},
            "stage": dict(_STAGED),
            "map_net": {"hidden_widths": [64, 64, 64]},
            "lambda_net": {"hidden_widths": [32, 32]},
            "domain_size": 1024,
            "eval_sample_size": 1024,
            "eval_mesh": str(mesh_path),
        }
        runs["configs"][key] = cfg
        runs["dirs"][key] = _fit(cfg, workdir / f"{key}.json", workdir / key)
    runs["elapsed"]["c7"] = time.monotonic() - t0

    t0 = time.monotonic()
    cloud, rows, target = _landmark_problem()
    cloud_path = workdir / "lmcloud.csv"
    save_cloud(cloud_path, cloud)
    cfg = {
        "input": str(cloud_path),
        "mode": "landmark",
        "seed": 0,
        "domain": {"preset": "square"},
        "objective": {"beta1": 5.0, "beta2": 1.0, "beta3": 1.0},
        "stage": dict(_STAGED),
        "map_net": {"hidden_widths": [64, 64, 64]},
        "lambda_net": {"hidden_widths": [32, 32]},
        "landmarks": [{
            "rows": [int(i) for i in rows],
            "target": [[float(a), float(b)] for a, b in target],
        }],
        "domain_size": 1024,
        "eval_sample_size": 1024,
    }
    runs["configs"]["c8"] = cfg
    runs["dirs"]["c8"] = _fit(cfg, workdir / "c8.json", workdir / "c8")
    runs["elapsed"]["c8"] = time.monotonic() - t0
    return runs


def _log_rows(out_dir):
    header, rows = load_table(out_dir / "log.csv")
    return [dict(zip(header, r)) for r in rows]


# ---------------------------------------------------------------------------
# 1. Boltzmann extremum bound audit
# ---------------------------------------------------------------------------


def test_c01_extremum_bound_audit():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        scale = 10.0 ** rng.uniform(-1.0, 2.0)
        values = rng.normal(0.0, scale, n)
        for alpha in (1.0, 2.0, 5.0, 10.0, 50.0):
            err_max, bnd_max, err_min, bnd_min = extremum_error_and_bound(
                values, alpha)
            if err_max > bnd_max or err_min > bnd_min:
                violations += 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. smooth Hausdorff surrogate error decay
# ---------------------------------------------------------------------------


def test_c02_surrogate_error_decay():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)

    def cloud(n):
        # radially lognormal points: scale-diverse clouds whose extremum
        # gaps are generic, so the exponential error decay shows cleanly
        u = rng.normal(0, 1, (n, 2))
        u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-12)
        return np.exp(rng.normal(0.0, 1.8, (n, 1))) * u

    halved = 0
    cases = 0
    for _ in range(50):
        ny, nw = int(rng.integers(2, 65)), int(rng.integers(2, 65))
        y, w = cloud(ny), cloud(nw)
        exact = modified_hausdorff_exact(y, w)
        errs = {k: abs(hand_with_grad(y, w, HandConfig(alpha=float(k)))[0] - exact)
                for k in (5, 10, 20, 40, 80, 100)}
        for k in (5, 10, 20, 40):
            cases += 1
            halved += errs[2 * k] <= errs[k]
        both = np.vstack([y, w])
        diam = float(np.linalg.norm(both.max(axis=0) - both.min(axis=0)))
        assert errs[100] < 1e-2 * diam
    elapsed = time.monotonic() - t0
    assert halved / cases >= 0.95
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. analytic gradients against central finite differences
# ---------------------------------------------------------------------------


def test_c03_gradient_checks():
    t0 = time.monotonic()
    rng = np.random.default_rng(13)
    tol = 1e-4
    for _ in range(20):
        ny, nw = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        y = rng.normal(0, 1, (ny, 2))
        w = rng.normal(0, 1, (nw, 2))
        hcfg = HandConfig(alpha=rng.uniform(2, 30))
        _, gy, gw = hand_with_grad(y, w, hcfg)
        fy = _fd_grad(lambda t: hand_with_grad(t, w, hcfg)[0], y.copy(), 1e-6)
        fw = _fd_grad(lambda t: hand_with_grad(y, t, hcfg)[0], w.copy(), 1e-6)
        assert _rel_err(np.vstack([gy, gw]), np.vstack([fy, fw])) < tol

        # original in 3D, sigma comparable to the cloud spread so the
        # Gaussian kernels (and with them the gradient) stay alive
        x3 = rng.normal(0, 0.7, (ny, 3))
        v = rng.uniform(0.3, 2.0, ny)
        lcfg = LegConfig(sigma=rng.uniform(0.8, 1.6))
        _, g_mapped, _ = leg_with_grad(x3, y, v, lcfg)
        f_mapped = _fd_grad(lambda t: leg_with_grad(x3, t, v, lcfg)[0], y.copy(), 1e-5)
        assert _rel_err(g_mapped, f_mapped) < tol

        rows = [np.array([0, 1])]
        tgt = [rng.normal(0, 1, (3, 2))]
        ocfg = ObjectiveConfig(beta1=1.3, beta2=0.7, beta3=0.9,
                               hand=hcfg, leg=lcfg)
        _, g_map, g_v = total_loss_with_grad(
            x3, y, v, w, rows, tgt, ocfg, n_base=ny - 1)
        f_map = _fd_grad(
            lambda t: total_loss_with_grad(x3, t, v, w, rows, tgt, ocfg,
                                           n_base=ny - 1)[0].total, y.copy(), 1e-5)
        f_v = _fd_grad(
            lambda t: total_loss_with_grad(x3, y, t, w, rows, tgt, ocfg,
                                           n_base=ny - 1)[0].total, v.copy(), 1e-5)
        assert _rel_err(np.concatenate([g_map.ravel(), g_v]),
                        np.concatenate([f_map.ravel(), f_v])) < tol

        spec = NetworkSpec(3, (6, 5), 2)
        params = init_params(spec, rng)
        xin = rng.normal(0, 1, (4, 3))
        cot = rng.normal(0, 1, (4, 2))
        tape = []
        forward(spec, params, xin, tape=tape)
        g_params, _ = backward(spec, params, xin, cot, tape=tape)
        f_params = _fd_grad(
            lambda t: float((forward(spec, t, xin) * cot).sum()),
            params.copy(), 1e-6)
        assert _rel_err(g_params, f_params) < tol

        lspec = NetworkSpec(3, (6,), 1, output_activation="softplus")
        lparams = init_params(lspec, rng)
        lcot = rng.normal(0, 1, (4, 1))
        forward(lspec, lparams, xin, tape=tape)
        gl_params, _ = backward(lspec, lparams, xin, lcot, tape=tape)
        fl_params = _fd_grad(
            lambda t: float((forward(lspec, t, xin) * lcot).sum()),
            lparams.copy(), 1e-6)
        assert _rel_err(gl_params, fl_params) < tol
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 4. distortion-energy fixed points and invariances
# ---------------------------------------------------------------------------


def test_c04_distortion_fixed_points_and_invariances():
    rng = np.random.default_rng(14)
    x = rng.uniform(0, 1, (12, 2))
    cfg = LegConfig(sigma=0.5)

    v_id = np.full(12, 0.5)  # lambda = 1
    assert leg_with_grad(x, x, v_id, cfg)[0] < 1e-12

    for c in (0.5, 2.7):
        v_c = np.full(12, 1.0 / (2.0 * c))
        assert leg_with_grad(x, c * x, v_c, cfg)[0] < 1e-12

    y = rng.uniform(0, 1, (12, 2))
    base = leg_with_grad(x, y, v_id, cfg)[0]
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert abs(leg_with_grad(x, y @ rot.T + np.array([3.0, -1.5]), v_id, cfg)[0]
               - base) < 1e-10
    assert abs(leg_with_grad(x @ rot.T + 2.0, y, v_id, cfg)[0] - base) < 1e-10

    for c in (0.25, 4.0):
        v_scaled = np.full(12, 0.5 / c)
        assert abs(leg_with_grad(x, c * y, v_scaled, cfg)[0] - base) < 1e-10


# ---------------------------------------------------------------------------
# 5. distortion-vs-angle bound audit
# ---------------------------------------------------------------------------


def _warped_grid_instance(seed):
    rng = np.random.default_rng(seed)
    g = np.linspace(0.0, 1.0, 5)
    gx, gy = np.meshgrid(g, g)
    verts = np.column_stack([gx.ravel(), gy.ravel()])
    verts[1:-1] += rng.normal(0.0, 0.02, verts[1:-1].shape)
    tri = delaunay(verts)
    amp = rng.uniform(0.05, 0.2)
    mapped = verts + amp * np.sin(np.pi * verts[:, ::-1]) * rng.uniform(
        0.5, 1.0, 2)
    v = rng.uniform(0.4, 1.2, len(verts))
    return tri, mapped, v


def test_c05_angle_bound_audit():
    t0 = time.monotonic()
    for seed in range(100):
        tri, mapped, v = _warped_grid_instance(3000 + seed)
        report = audit_theorem_bound(tri, mapped, v, LegConfig(sigma=0.5))
        assert report.holds, f"instance seed {3000 + seed}"
    assert time.monotonic() - t0 < 20.0


# ---------------------------------------------------------------------------
# 6. shape matching: sharper alpha gives smaller exact Hausdorff distance
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c06_shape_matching_alpha_trend(training_runs):
    dense = preset_domain("square").sample_area(4000, seed=999)
    for seed in (0, 1):
        h = {}
        for alpha in (2.0, 100.0):
            mapped = load_cloud(
                training_runs["dirs"][f"c6_a{alpha:g}_s{seed}"] / "mapped.csv")
            h[alpha] = hausdorff_exact(mapped, dense)
        assert h[100.0] < h[2.0], f"seed {seed}: {h}"
    assert training_runs["elapsed"]["c6"] < 900.0


# ---------------------------------------------------------------------------
# 7. staged runs improve angle distortion and Hausdorff distance
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c07_staged_parametrization_trend(training_runs):
    for seed in (0, 1):
        rows = _log_rows(training_runs["dirs"][f"c7_s{seed}"])
        assert len(rows) >= 2
        first, last = rows[0], rows[-1]
        assert (float(last["eval_mean_abs_angle"])
                < float(first["eval_mean_abs_angle"])), f"seed {seed}"
        assert (float(last["eval_hausdorff"])
                < float(first["eval_hausdorff"])), f"seed {seed}"
    assert training_runs["elapsed"]["c7"] < 1800.0


# ---------------------------------------------------------------------------
# 8. landmark region converges toward its unbalanced target
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c08_landmark_trend(training_runs):
    rows = _log_rows(training_runs["dirs"]["c8"])
    assert len(rows) >= 2
    first = float(rows[0]["eval_landmark_hausdorff"])
    last = float(rows[-1]["eval_landmark_hausdorff"])
    assert last < first
    assert training_runs["elapsed"]["c8"] < 1800.0


# ---------------------------------------------------------------------------
# 9. boundary detection on an annulus
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c09_annulus_boundary_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(21)
    rings = 10
    pts = []
    for j in range(rings):
        r = 0.5 + 0.5 * j / (rings - 1)
        m = int(round(2 * np.pi * r / 0.05))
        th = 2 * np.pi * np.arange(m) / m
        ring = np.column_stack([r * np.cos(th), r * np.sin(th)])
        if 0 < j < rings - 1:
            ring += rng.normal(0.0, 0.004, ring.shape)
        pts.append(ring)
    pts = np.vstack(pts)
    spacing = max(0.5 / (rings - 1), 0.05)

    tri = delaunay(pts)
    pruned = prune_long_faces(tri, 0.15)
    loops = boundary_edges(pruned)
    assert len(loops) == 2

    th = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
    radii = []
    for loop in loops:
        loop_pts = pruned.vertices[loop]
        mean_r = float(np.linalg.norm(loop_pts, axis=1).mean())
        truth_r = 0.5 if mean_r < 0.75 else 1.0
        radii.append(truth_r)
        circle = np.column_stack([truth_r * np.cos(th), truth_r * np.sin(th)])
        assert hausdorff_exact(loop_pts, circle) < 2.0 * spacing
    assert sorted(radii) == [0.5, 1.0]

    hull_only = boundary_edges(prune_long_faces(tri, 1e9))
    assert len(hull_only) == 1
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 10. adapted reconstruction equalizes triangle areas on a spike
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c10_adapted_reconstruction_uniformity():
    t0 = time.monotonic()
    amp, width = 1.1, 0.04
    rng = np.random.default_rng(77)
    xy, cloud3 = _polar_grid(
        rng, rings=24, jitter=0.003,
        lift=lambda p: amp * np.exp(-(p ** 2).sum(axis=1) / width),
    )

    def stretch_half(p):
        # half the metric stretch of the height map: the inverse factors an
        # exact inverse-lambda net would predict for this parametrization
        p = np.asarray(p)
        r2 = (p ** 2).sum(axis=1)
        grad = 2.0 * amp * np.sqrt(r2) / width * np.exp(-r2 / width)
        return np.sqrt(1.0 + grad ** 2) / 2.0

    disk = preset_domain("disk")
    cv = {}
    for mode, field in (("uniform", None), ("lambda_adapted", stretch_half)):
        res = reconstruct_surface(xy, cloud3, disk, mode=mode,
                                  target_edge=0.08, seed=0,
                                  lambda_inv_field=field)
        areas = res.surface.triangle_areas()
        assert len(areas) > 100
        cv[mode] = float(areas.std() / areas.mean())
    assert cv["lambda_adapted"] < cv["uniform"], cv
    assert time.monotonic() - t0 < 600.0


# ---------------------------------------------------------------------------
# 11. identical seeds reproduce logs and checkpoints byte for byte
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c11_training_determinism(workdir, training_runs):
    compare = ("log.csv", "mapped.csv", "map.ckpt.json", "lambda.ckpt.json")
    for key, cfg in training_runs["configs"].items():
        rerun_dir = _fit(cfg, workdir / f"{key}_rerun.json",
                         workdir / f"{key}_rerun")
        first_dir = training_runs["dirs"][key]
        stage_ckpts = sorted(
            p.name for p in first_dir.glob("*_stage*.ckpt.json"))
        assert stage_ckpts, key
        for name in list(compare) + stage_ckpts:
            first = first_dir / name
            again = rerun_dir / name
            assert first.exists() == again.exists(), (key, name)
            if first.exists():
                assert first.read_bytes() == again.read_bytes(), (key, name)
