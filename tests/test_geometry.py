"""Clouds, meshes, exact Hausdorff oracles, and the angle-distortion report."""

import numpy as np
import pytest

from pcparam.geometry import (
    TriangleMesh,
    _edge_table,
    angle_distortion,
    as_cloud,
    hausdorff_exact,
    modified_hausdorff_exact,
    pairwise_distances,
    sampling_gap_estimate,
)


def _square_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(verts, tris)


def test_as_cloud_accepts_2d_and_3d():
    assert as_cloud([[0, 0], [1, 2]]).shape == (2, 2)
    assert as_cloud([[0, 0, 1]]).shape == (1, 3)
    assert as_cloud([[0, 0], [1, 2]], dim=2).shape == (2, 2)


def test_as_cloud_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_cloud([1.0, 2.0])
    with pytest.raises(ValueError):
        as_cloud(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        as_cloud([[1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(ValueError):
        as_cloud([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        as_cloud([[0.0, 0.0, 0.0]], dim=2)


def test_mesh_validation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    TriangleMesh(verts, np.array([[0, 1, 2]]))  # fine
    with pytest.raises(ValueError):
        TriangleMesh(verts, np.array([[0, 1, 3]]))  # out of range
    with pytest.raises(ValueError):
        TriangleMesh(verts, np.array([[0, 1, 1]]))  # repeated vertex
    # an edge shared by three faces is not a surface mesh
    verts4 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) belongs to 3 triangles"):
        TriangleMesh(verts4, np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]]))
    # of several such edges, the error names the one the faces reach first
    verts7 = np.vstack([verts4, [[3.0, 0.0], [0.0, 3.0]]])
    tris = [[2, 3, 4], [3, 2, 5], [2, 3, 6], [0, 1, 4], [0, 1, 5], [1, 0, 6], [0, 1, 2]]
    with pytest.raises(ValueError, match=r"edge \(2, 3\) belongs to 3 triangles"):
        TriangleMesh(verts7, np.array(tris))
    # two faces on one edge are an interior edge, not an error
    TriangleMesh(verts4, np.array([[0, 1, 2], [1, 0, 3]]))


def test_edge_table_counts():
    edges, count, first = _edge_table(_square_mesh().triangles, 4)
    assert edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [2, 3]]
    assert count.tolist() == [1, 2, 1, 1, 1]
    # (0, 2) is the closing edge of face 0 and the first edge of face 1
    assert first.tolist() == [0, 2, 5, 1, 4]
    assert (first // 3).tolist() == [0, 0, 1, 0, 1]


def test_edge_lengths_and_areas():
    mesh = _square_mesh()
    lengths = mesh.edge_lengths()
    assert lengths.shape == (2, 3)
    assert lengths.max() == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(mesh.triangle_areas(), [0.5, 0.5])
    # 3-d version of the same square, tilted into z = x
    verts3 = np.column_stack([mesh.vertices, mesh.vertices[:, 0]])
    mesh3 = TriangleMesh(verts3, mesh.triangles)
    assert mesh3.triangle_areas().sum() == pytest.approx(np.sqrt(2.0))


def test_pairwise_distances_bitwise():
    rng = np.random.default_rng(0)
    a = rng.normal(0, 1, (13, 3))
    b = rng.normal(0, 1, (9, 3))
    d = pairwise_distances(a, b)
    for i in range(13):
        for j in range(9):
            expect = np.sqrt(((a[i] - b[j]) ** 2).sum())
            assert d[i, j] == expect  # bit for bit


def _brute_hausdorff(a, b):
    d = pairwise_distances(a, b)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_hausdorff_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a = rng.uniform(-1, 1, (int(rng.integers(1, 40)), 2))
        b = rng.uniform(-1, 1, (int(rng.integers(1, 40)), 2))
        assert hausdorff_exact(a, b) == _brute_hausdorff(a, b)
        assert hausdorff_exact(a, b) == hausdorff_exact(b, a)
        # modified variant dominates the exact one and is symmetric
        assert modified_hausdorff_exact(a, b) >= hausdorff_exact(a, b)
        assert modified_hausdorff_exact(a, b) == modified_hausdorff_exact(b, a)


def test_hausdorff_zero_iff_same_cloud():
    a = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert hausdorff_exact(a, a) == 0.0
    assert modified_hausdorff_exact(a, a) == 0.0


def test_angle_distortion_identity_and_rigid():
    mesh = _square_mesh()
    report = angle_distortion(mesh, mesh.vertices)
    assert report.mean_abs == 0.0
    # rotation + translation preserves every angle
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    moved = mesh.vertices @ rot.T + np.array([3.0, -1.0])
    assert angle_distortion(mesh, moved).mean_abs < 1e-12
    # uniform scaling too (angles are scale-free)
    assert angle_distortion(mesh, 2.5 * mesh.vertices).mean_abs < 1e-12


def test_angle_distortion_known_shear():
    # one right triangle sheared so the right angle becomes arctan-computable
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    sheared = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    report = angle_distortion(mesh, sheared)
    # corner 0: pi/2 -> pi/4, corner 1: pi/4 -> pi/2, corner 2 unchanged
    diffs = dict(zip(report.corner_ids, report.diffs))
    assert diffs[0] == pytest.approx(np.pi / 2 - np.pi / 4, abs=1e-12)
    assert diffs[1] == pytest.approx(np.pi / 4 - np.pi / 2, abs=1e-12)
    assert diffs[2] == pytest.approx(0.0, abs=1e-12)


def test_angle_histogram_counts():
    rng = np.random.default_rng(4)
    mesh = _square_mesh()
    mapped = mesh.vertices + rng.normal(0, 0.05, mesh.vertices.shape)
    report = angle_distortion(mesh, mapped, n_bins=17)
    assert len(report.hist_counts) == 17
    assert report.hist_counts.sum() == 3 * len(mesh.triangles)
    assert report.hist_edges[0] == pytest.approx(-np.pi)
    assert report.hist_edges[-1] == pytest.approx(np.pi)


def test_angle_distortion_rejects_degenerate_image():
    mesh = _square_mesh()
    collapsed = np.zeros_like(mesh.vertices)
    with pytest.raises(ValueError, match="triangle"):
        angle_distortion(mesh, collapsed)


def test_sampling_gap_estimate():
    # gap of a coarse grid against a fine grid of the unit interval strip
    xs = np.linspace(0, 1, 5)
    coarse = np.column_stack([xs, np.zeros(5)])
    fine_xs = np.linspace(0, 1, 81)  # spacing 0.0125 hits the midpoints exactly
    fine = np.column_stack([fine_xs, np.zeros(81)])
    gap = sampling_gap_estimate(coarse, fine)
    # worst fine point sits halfway between coarse points: 0.125
    assert gap == pytest.approx(0.125, abs=1e-9)
