"""Delaunay construction, pruning, boundary loops, domain meshes, pullback."""

import time
import warnings

import numpy as np
import pytest

from pcparam.domains import Domain, Line, preset_domain
from pcparam.geometry import TriangleMesh
from pcparam.meshing import (
    DuplicatePointsWarning,
    InverseInterpolator,
    _boundary_ring,
    _throw_darts,
    boundary_edges,
    delaunay,
    generate_param_mesh,
    incircle,
    orient2d,
    prune_long_faces,
    reconstruct_surface,
)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_orient2d_signs():
    assert orient2d(0, 0, 1, 0, 0, 1) == 1  # ccw
    assert orient2d(0, 0, 0, 1, 1, 0) == -1  # cw
    assert orient2d(0, 0, 1, 1, 2, 2) == 0  # collinear
    # exactly collinear at a scale where the float determinant is shaky
    assert orient2d(0.0, 0.0, 1e16, 1e16, 3e16, 3e16) == 0
    assert orient2d(0.0, 1.0, 1e16, 1e16, 3e16, 3e16) != 0


def test_orient2d_near_degenerate_consistency():
    # walking a point across a line flips the sign exactly once; offsets are
    # powers of two so 0.5 + off is exactly representable
    a, b = (0.0, 0.0), (1.0, 1.0)
    base = 0.5
    signs = [
        orient2d(a[0], a[1], b[0], b[1], base, base + off)
        for off in (-(2.0 ** -50), 0.0, 2.0 ** -50, 1e-12, 1e-6)
    ]
    assert signs == [-1, 0, 1, 1, 1]


def test_incircle_signs():
    # ccw triangle (0,0) (1,0) (0,1); its circumcircle passes through (1,1)
    assert incircle(0, 0, 1, 0, 0, 1, 0.5, 0.5) == 1  # strictly inside
    assert incircle(0, 0, 1, 0, 0, 1, 2.0, 2.0) == -1  # outside
    assert incircle(0, 0, 1, 0, 0, 1, 1.0, 1.0) == 0  # cocircular, exact


# ---------------------------------------------------------------------------
# Delaunay
# ---------------------------------------------------------------------------


def test_delaunay_single_triangle():
    mesh = delaunay([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
    np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2]])


def test_delaunay_interior_point_three_faces():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0], [1.0, 1.0]])
    mesh = delaunay(pts)
    np.testing.assert_array_equal(
        mesh.triangles, [[0, 1, 3], [0, 3, 2], [1, 2, 3]]
    )
    # every face ccw
    for a, b, c in mesh.triangles:
        assert orient2d(*pts[a], *pts[b], *pts[c]) == 1


def _assert_empty_circumcircles(pts, tris):
    for k, (a, b, c) in enumerate(tris):
        for i in range(len(pts)):
            if i not in (a, b, c):
                assert (
                    incircle(*pts[a], *pts[b], *pts[c], *pts[i]) <= 0
                ), f"point {i} strictly inside circumcircle of face {k}"


def test_delaunay_empty_circumcircle_property():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (200, 2))
    mesh = delaunay(pts)
    _assert_empty_circumcircles(pts, mesh.triangles)
    # Euler sanity for a triangulated point set with hull size h:
    # t = 2n - h - 2
    hull = len(boundary_edges(mesh)[0])
    assert len(mesh.triangles) == 2 * 200 - hull - 2


def test_delaunay_cocircular_grid():
    # 4x4 integer grid: many cocircular quadruples, still a valid cover
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    mesh = delaunay(pts)
    assert len(mesh.triangles) == 18  # 2 per grid cell
    _assert_empty_circumcircles(pts, mesh.triangles)
    areas = mesh.triangle_areas()
    assert areas.sum() == pytest.approx(9.0, rel=1e-12)
    assert (areas > 0).all()


def test_delaunay_deterministic_and_order_independent_geometry():
    rng = np.random.default_rng(4)
    pts = rng.normal(0, 1, (120, 2))
    m1 = delaunay(pts)
    m2 = delaunay(pts)
    np.testing.assert_array_equal(m1.triangles, m2.triangles)
    perm = rng.permutation(120)
    m3 = delaunay(pts[perm])
    # map permuted indices back and compare as sets of vertex triples
    back = {tuple(sorted(perm[list(t)])) for t in m3.triangles}
    orig = {tuple(sorted(t)) for t in m1.triangles}
    assert back == orig


def test_delaunay_rejections_and_dedup():
    with pytest.raises(ValueError, match="3 distinct"):
        delaunay([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="collinear"):
        delaunay([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.warns(DuplicatePointsWarning):
        mesh = delaunay([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert len(mesh.vertices) == 3
    with pytest.raises(ValueError, match="3 distinct"):
        with pytest.warns(DuplicatePointsWarning):
            delaunay([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("k", [-1000, -700, 300, 500, 900])
def test_delaunay_scale_invariant_at_extreme_scales(k):
    # products in the float filters underflow or overflow at these scales;
    # the exact path must decide instead, silently, and scaling the points
    # by a power of two changes the sign of no predicate among them
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (50, 2))
    unit = delaunay(pts).triangles
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = delaunay(pts * 2.0**k).triangles
    np.testing.assert_array_equal(scaled, unit)


def test_delaunay_rejects_coordinates_past_the_limit():
    # the bounding triangle sits 1e10 spans out; past about 4.49e297 its
    # corners overflowed and the exact predicates raised a bare OverflowError
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (50, 2))
    np.testing.assert_array_equal(delaunay(pts * 2.0**988).triangles, delaunay(pts).triangles)
    with pytest.raises(ValueError, match=r"must stay below about 4\.49e\+297"):
        delaunay(pts * 2.0**990)


# ---------------------------------------------------------------------------
# pruning and boundary loops
# ---------------------------------------------------------------------------


def _unit_square_mesh():
    return delaunay([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_prune_thresholds():
    mesh = _unit_square_mesh()  # edges 1 and sqrt(2)
    kept = prune_long_faces(mesh, 1.5)
    np.testing.assert_array_equal(kept.triangles, mesh.triangles)
    np.testing.assert_array_equal(kept.vertices, mesh.vertices)
    gone = prune_long_faces(mesh, 1.2)  # diagonals exceed 1.2
    assert len(gone.triangles) == 0
    assert len(gone.vertices) == 4  # vertices always survive
    with pytest.raises(ValueError):
        prune_long_faces(mesh, 0.0)
    with pytest.raises(ValueError):
        prune_long_faces(mesh, float("nan"))


def test_prune_idempotent_and_monotone():
    rng = np.random.default_rng(6)
    mesh = delaunay(rng.uniform(0, 1, (60, 2)))
    for h in (0.1, 0.2, 0.4):
        once = prune_long_faces(mesh, h)
        twice = prune_long_faces(once, h)
        np.testing.assert_array_equal(once.triangles, twice.triangles)
    small = {tuple(t) for t in prune_long_faces(mesh, 0.15).triangles}
    big = {tuple(t) for t in prune_long_faces(mesh, 0.3).triangles}
    assert small <= big


def test_boundary_single_triangle():
    mesh = delaunay([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    assert boundary_edges(mesh) == [[0, 1, 2]]


def test_boundary_square():
    assert boundary_edges(_unit_square_mesh()) == [[0, 1, 2, 3]]


def test_boundary_ring_two_loops():
    outer = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    inner = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]
    verts = np.array(outer + inner)
    faces = np.array([
        [0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5],
        [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7],
    ])
    loops = boundary_edges(TriangleMesh(verts, faces))
    assert loops == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_boundary_bowtie_two_loops_at_shared_vertex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [-1.0, 1.0]])
    faces = np.array([[0, 1, 2], [0, 3, 4]])
    loops = boundary_edges(TriangleMesh(verts, faces))
    assert loops == [[0, 1, 2], [0, 3, 4]]


def test_annulus_boundary_two_loops():
    # jittered polar grid; pruning at ~2.4x the radial spacing separates the
    # hole rim from the outer rim, and a huge threshold leaves one hull loop
    rng = np.random.default_rng(8)
    rows = []
    for k, r in enumerate(np.linspace(0.5, 1.0, 5)):
        ang = np.linspace(0, 2 * np.pi, 28, endpoint=False) + 0.1 * k
        rr = r + rng.uniform(-1e-3, 1e-3, 28)
        rows.append(np.column_stack([rr * np.cos(ang), rr * np.sin(ang)]))
    pts = np.vstack(rows)
    mesh = delaunay(pts)
    pruned = prune_long_faces(mesh, 0.3)
    loops = boundary_edges(pruned)
    assert len(loops) == 2
    radii = [np.linalg.norm(pts[loop], axis=1).mean() for loop in loops]
    assert min(radii) < 0.6 and max(radii) > 0.9
    # control: without pruning the only boundary is the convex hull
    assert len(boundary_edges(mesh)) == 1


# ---------------------------------------------------------------------------
# parameter-domain meshes
# ---------------------------------------------------------------------------


def test_param_mesh_uniform_square():
    dom = preset_domain("square")
    te = 0.1
    mesh = generate_param_mesh(dom, "uniform", target_edge=te, seed=0)
    assert dom.contains_many(mesh.vertices).all()
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    assert dom.contains_many(cent).all()
    lengths = mesh.edge_lengths().ravel()
    assert lengths.min() > 0.3 * te
    assert lengths.max() < 2.5 * te
    med = np.median(lengths)
    assert 0.6 * te < med < 1.4 * te
    # darts are deterministic per seed
    again = generate_param_mesh(dom, "uniform", target_edge=te, seed=0)
    np.testing.assert_array_equal(mesh.vertices, again.vertices)
    np.testing.assert_array_equal(mesh.triangles, again.triangles)
    other = generate_param_mesh(dom, "uniform", target_edge=te, seed=1)
    assert not np.array_equal(mesh.vertices, other.vertices)


def test_param_mesh_constant_field_matches_uniform_density():
    dom = preset_domain("square")
    te = 0.1
    uni = generate_param_mesh(dom, "uniform", target_edge=te, seed=3)
    ada = generate_param_mesh(
        dom, "lambda_adapted", target_edge=te, seed=3,
        lambda_inv_field=lambda p: np.full(len(np.atleast_2d(p)), 2.5),
    )
    med_u = np.median(uni.edge_lengths().ravel())
    med_a = np.median(ada.edge_lengths().ravel())
    assert abs(med_a - med_u) / med_u < 0.10


def test_param_mesh_adapted_refines_high_lambda_region():
    dom = preset_domain("square")

    def field(p):
        p = np.atleast_2d(p)
        return np.where(p[:, 0] < 0.5, 4.0, 1.0)

    mesh = generate_param_mesh(
        dom, "lambda_adapted", target_edge=0.12, seed=5, lambda_inv_field=field
    )
    mid = mesh.vertices[mesh.triangles].mean(axis=1)
    lengths = mesh.edge_lengths()
    left = lengths[mid[:, 0] < 0.4].ravel()
    right = lengths[mid[:, 0] > 0.6].ravel()
    ratio = np.median(left) / np.median(right)
    # radius scales with 1/sqrt(u): expect about one half
    assert 0.35 < ratio < 0.7


def test_dart_grid_stays_bounded_at_a_tiny_radius():
    # one cell per dart radius would make 1e18 cells on the unit box
    rng = np.random.default_rng(4)
    acc, cand = rng.uniform(0, 1, (50, 2)), rng.uniform(0, 1, (512, 2))
    took = _throw_darts(acc, np.full(50, 1e-9), cand, np.full(512, 1e-9),
                        np.zeros(2), np.ones(2))
    np.testing.assert_array_equal(took, np.arange(512))


def test_param_mesh_validation():
    dom = preset_domain("square")
    with pytest.raises(ValueError, match="mode"):
        generate_param_mesh(dom, "adaptive")
    with pytest.raises(ValueError, match="target_edge"):
        generate_param_mesh(dom, "uniform", target_edge=0.0)
    with pytest.raises(ValueError, match="extent"):
        generate_param_mesh(dom, "uniform", target_edge=5.0)
    with pytest.raises(ValueError, match="lambda_inv_field"):
        generate_param_mesh(dom, "lambda_adapted", target_edge=0.1)
    with pytest.raises(ValueError, match="positive finite"):
        generate_param_mesh(
            dom, "lambda_adapted", target_edge=0.1,
            lambda_inv_field=lambda p: np.full(len(np.atleast_2d(p)), -1.0),
        )


@pytest.mark.parametrize("mode", ["uniform", "lambda_adapted"])
def test_param_mesh_past_the_vertex_limit_is_refused_at_once(mode):
    # the ring of 840k points is within the polyline limit; with the darts
    # it would pass the vertex limit, and nothing is placed before the check
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"past the limit of 262144 \(2\*\*18\) vertices"):
        generate_param_mesh(preset_domain("disk"), mode, target_edge=1e-5,
                            lambda_inv_field=lambda p: np.ones(len(p)))
    assert time.perf_counter() - t0 < 1.0
    # at most 57000 ring points on the unit square: with 205000 darts they
    # are just inside the limit, with 205200 just past it
    dom = preset_domain("square")
    spacing = lambda p: np.full(len(p), 4.0 / 57000)  # noqa: E731
    assert 0 < len(_boundary_ring(dom, spacing, 205000)) <= 57000
    with pytest.raises(ValueError, match="vertices"):
        _boundary_ring(dom, spacing, 205200)


# ---------------------------------------------------------------------------
# inverse interpolation
# ---------------------------------------------------------------------------


def test_interpolator_exact_vertices():
    rng = np.random.default_rng(9)
    mapped = rng.uniform(0, 1, (40, 2))
    original = rng.normal(0, 1, (40, 3))
    interp = InverseInterpolator(mapped, original)
    out, ok = interp(mapped)
    assert ok.all()
    np.testing.assert_array_equal(out, original)  # bitwise for vertex hits


def test_interpolator_reproduces_affine_maps():
    rng = np.random.default_rng(10)
    mapped = rng.uniform(0, 1, (60, 2))
    a_mat = np.array([[1.5, -0.25], [0.5, 2.0], [1.0, 1.0]])
    b_vec = np.array([0.1, -0.4, 2.0])
    original = mapped @ a_mat.T + b_vec
    interp = InverseInterpolator(mapped, original)
    # strictly interior queries: centroids of the built triangulation
    cent = interp.mesh.vertices[interp.mesh.triangles].mean(axis=1)
    out, ok = interp(cent)
    assert ok.all()
    np.testing.assert_allclose(out, cent @ a_mat.T + b_vec, atol=1e-9)


def test_interpolator_outside_and_snap():
    mapped = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    original = np.column_stack([mapped, mapped.sum(axis=1)])
    interp = InverseInterpolator(mapped, original)
    out, ok = interp([[2.0, 2.0], [0.5, -0.2]])
    assert not ok.any()
    assert np.isnan(out).all()
    # a hair outside a hull edge snaps onto it
    out, ok = interp([[0.5, -1e-10], [0.5, 0.5]])
    assert ok.all()
    np.testing.assert_allclose(out[0], [0.5, 0.0, 0.5], atol=1e-9)
    np.testing.assert_allclose(out[1], [0.5, 0.5, 1.0], atol=1e-12)


def test_interpolator_duplicate_mapped_rows():
    mapped = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    original = np.array([[10.0], [20.0], [99.0], [30.0]])
    with pytest.warns(DuplicatePointsWarning):
        interp = InverseInterpolator(mapped, original)
    out, ok = interp([[0.0, 0.0]])
    assert ok[0]
    assert out[0, 0] == 10.0  # first occurrence wins


def test_interpolator_rejects_coordinates_past_the_bound():
    # at 1e200 the hull distances of the snap overflow to nan, and such a
    # query used to come back located with nan coordinates
    rng = np.random.default_rng(6)
    mapped = rng.uniform(0.0, 1.0, (50, 2))
    mapped[0, 0] = 1.0
    original = rng.normal(size=(50, 3))
    with pytest.raises(ValueError, match=r"mapped .* magnitude 1e\+200;.*below 1e\+150"):
        InverseInterpolator(mapped * 1e200, original)
    interp = InverseInterpolator(mapped, original)
    with pytest.raises(ValueError, match=r"query coordinates reach magnitude 1e\+150;"):
        interp([[0.5, 0.5], [1e150, 0.0]])


def test_interpolator_just_below_the_bound_gives_finite_rows():
    rng = np.random.default_rng(7)
    big = np.nextafter(1e150, 0.0)
    mapped = rng.uniform(-1.0, 1.0, (50, 2)) * 1e149
    mapped[0, 0], mapped[1, 1] = big, -big
    interp = InverseInterpolator(mapped, rng.normal(size=(50, 3)))
    queries = np.vstack([rng.uniform(-1.5, 1.5, (200, 2)) * 1e149, mapped[:5], [[big, -big]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, ok = interp(queries)
    assert 0 < ok.sum() < len(queries)
    assert np.isfinite(out[ok]).all()
    assert np.isnan(out[~ok]).all()


def test_interpolate_inverse_one_shot():
    mapped = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    original = np.array([[0.0, 0.0, 5.0], [2.0, 0.0, 5.0], [0.0, 2.0, 5.0]])
    out, ok = InverseInterpolator(mapped, original)([[0.5, 0.5]])
    assert ok[0]
    np.testing.assert_allclose(out[0], [0.5, 0.5, 5.0], atol=1e-12)
    with pytest.raises(ValueError):
        InverseInterpolator(mapped, original[:-1])


# ---------------------------------------------------------------------------
# surface reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_planar_identity():
    dom = preset_domain("square")
    rng = np.random.default_rng(12)
    mapped = np.vstack([
        rng.uniform(0, 1, (300, 2)),
        np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=np.float64),
    ])
    result = reconstruct_surface(mapped, mapped, dom, "uniform", target_edge=0.15)
    kept = result.kept_vertices
    assert kept.sum() >= 0.9 * len(result.param.vertices)
    np.testing.assert_allclose(
        result.surface.vertices, result.param.vertices[kept], atol=1e-9
    )
    assert len(result.surface.triangles) > 0


def test_reconstruct_hemisphere_height_accuracy():
    rng = np.random.default_rng(13)
    # dense sample of the open hemisphere over the unit disk
    u = rng.uniform(0, 2 * np.pi, 900)
    r = np.sqrt(rng.uniform(0, 1, 900)) * 0.95
    xy = np.column_stack([r * np.cos(u), r * np.sin(u)])
    z = np.sqrt(1.0 - (xy ** 2).sum(axis=1))
    surface_pts = np.column_stack([xy, z])
    result = reconstruct_surface(
        xy, surface_pts, preset_domain("disk"), "uniform",
        target_edge=0.15, seed=2,
    )
    got = result.surface.vertices
    inner = np.linalg.norm(got[:, :2], axis=1) < 0.8
    true_z = np.sqrt(1.0 - (got[inner, :2] ** 2).sum(axis=1))
    assert np.abs(got[inner, 2] - true_z).max() < 0.05


def test_reconstruct_error_when_nothing_locatable():
    dom = preset_domain("square")
    mapped = np.array([[10.0, 10.0], [11.0, 10.0], [10.0, 11.0]])
    original = mapped.copy()
    with pytest.raises(ValueError, match="located"):
        reconstruct_surface(mapped, original, dom, "uniform", target_edge=0.2)


def test_reconstruct_lambda_values_match_separate_field():
    # one triangulation serving the field and the lift gives the bits of a
    # field interpolator of its own next to a fresh lift interpolator
    rng = np.random.default_rng(14)
    u = rng.uniform(0, 2 * np.pi, 600)
    r = np.sqrt(rng.uniform(0, 1, 600))
    xy = np.column_stack([r * np.cos(u), r * np.sin(u)])
    surface_pts = np.column_stack([xy, np.exp(-(xy ** 2).sum(axis=1) / 0.2)])
    vals = 0.5 + surface_pts[:, 2]
    field_interp = InverseInterpolator(xy, vals)

    def field(p):
        p = np.atleast_2d(p)
        out, ok = field_interp(p)
        out = out.ravel()
        for i in np.flatnonzero(~ok):
            out[i] = vals[int(np.linalg.norm(xy - p[i], axis=1).argmin())]
        return out

    dom = preset_domain("disk")
    want = reconstruct_surface(xy, surface_pts, dom, "lambda_adapted", target_edge=0.15,
                               seed=1, lambda_inv_field=field)
    got = reconstruct_surface(xy, surface_pts, dom, "lambda_adapted", target_edge=0.15,
                              seed=1, lambda_inv_values=vals)
    assert np.array_equal(got.param.vertices, want.param.vertices)
    assert np.array_equal(got.surface.vertices, want.surface.vertices)
    assert np.array_equal(got.surface.triangles, want.surface.triangles)
    with pytest.raises(ValueError, match="not both"):
        reconstruct_surface(xy, surface_pts, dom, "lambda_adapted", target_edge=0.15,
                            lambda_inv_field=field, lambda_inv_values=vals)
    with pytest.raises(ValueError, match="values"):
        reconstruct_surface(xy, surface_pts, dom, "lambda_adapted", target_edge=0.15,
                            lambda_inv_values=vals[:-1])
