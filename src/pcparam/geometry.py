"""Point clouds, triangle meshes, exact Hausdorff distances, angle distortion.

Conventions: a point cloud is a float64 array of shape (n, d) with d in {2, 3};
a triangle mesh stores vertices the same way plus an (m, 3) int array of
vertex indices. All distances are Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_cloud",
    "TriangleMesh",
    "edge_incidence",
    "pairwise_distances",
    "hausdorff_exact",
    "modified_hausdorff_exact",
    "AngleDistortionReport",
    "angle_distortion",
    "sampling_gap_estimate",
]


def as_cloud(points, dim: int | None = None) -> np.ndarray:
    """Validate and return a point cloud as a float64 (n, d) array.

    Raises ValueError on empty input, wrong rank, non-finite entries, or a
    dimension other than the requested one. Duplicate points are permitted.
    """
    p = np.asarray(points, dtype=np.float64)
    if p.ndim == 1 and dim is not None and p.size == dim:
        p = p.reshape(1, dim)
    if p.ndim != 2:
        raise ValueError(f"point cloud must be a 2-d array, got shape {p.shape}")
    if p.shape[0] == 0:
        raise ValueError("point cloud is empty")
    if p.shape[1] not in (2, 3):
        raise ValueError(f"points must be 2-d or 3-d, got dimension {p.shape[1]}")
    if dim is not None and p.shape[1] != dim:
        raise ValueError(f"expected dimension {dim}, got {p.shape[1]}")
    if not np.isfinite(p).all():
        raise ValueError("point cloud contains non-finite coordinates")
    return p


@dataclass
class TriangleMesh:
    """Triangle mesh over a vertex cloud.

    vertices: (n, d) float64, d in {2, 3}
    triangles: (m, 3) int vertex indices, each triple distinct and in range

    Validation also checks the edge-manifold condition: no edge may belong
    to more than two triangles.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = as_cloud(self.vertices)
        t = np.asarray(self.triangles, dtype=np.int64)
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"triangles must be (m, 3), got shape {t.shape}")
        self.triangles = t
        n = len(self.vertices)
        if t.size and (t.min() < 0 or t.max() >= n):
            raise ValueError("triangle index out of range")
        if t.size:
            degenerate = (
                (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
            )
            if degenerate.any():
                raise ValueError(
                    f"triangle {int(np.flatnonzero(degenerate)[0])} repeats a vertex"
                )
            # one int64 key per undirected edge, min * n + max
            e = np.sort(t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
            _, counts = np.unique(e[:, 0] * n + e[:, 1], return_counts=True)
            if counts.max() > 2:
                for edge, tris in edge_incidence(self).items():
                    if len(tris) > 2:
                        raise ValueError(
                            f"edge {edge} belongs to {len(tris)} triangles, "
                            "mesh is not edge-manifold"
                        )

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def edge_lengths(self) -> np.ndarray:
        """Lengths of the three edges of every triangle, shape (m, 3)."""
        v = self.vertices
        t = self.triangles
        a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        return np.stack(
            [
                np.linalg.norm(b - a, axis=1),
                np.linalg.norm(c - b, axis=1),
                np.linalg.norm(a - c, axis=1),
            ],
            axis=1,
        )

    def triangle_areas(self) -> np.ndarray:
        """Unsigned areas of all triangles (works for 2-d and 3-d vertices)."""
        v = self.vertices
        t = self.triangles
        u = v[t[:, 1]] - v[t[:, 0]]
        w = v[t[:, 2]] - v[t[:, 0]]
        if self.dim == 2:
            return 0.5 * np.abs(u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
        return 0.5 * np.linalg.norm(np.cross(u, w), axis=1)


def edge_incidence(mesh: TriangleMesh) -> dict[tuple[int, int], list[int]]:
    """Map each undirected edge (i, j), i < j, to the ids of its triangles."""
    inc: dict[tuple[int, int], list[int]] = {}
    for tid, (i, j, k) in enumerate(np.asarray(mesh.triangles, dtype=np.int64).tolist()):
        for a, b in ((i, j), (j, k), (k, i)):
            inc.setdefault((a, b) if a < b else (b, a), []).append(tid)
    return inc


def _same_dim_clouds(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = as_cloud(a)
    b = as_cloud(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return a, b


# elements of one row block of _sq_dists, 512 kB: the block and its scratch
# stay in cache across the per-coordinate passes
_BLOCK_ELEMS = 1 << 16


def _diff_factors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) with lhs[c] @ rhs[c] == a[:, c, None] - b[:, c] bit for bit:
    each entry is a_i * 1 + 1 * (-b_k), two exact products and one rounding
    in any order. BLAS writes it several times faster than a broadcast
    subtraction. lhs[:, lo:hi] gives the rows lo:hi of a."""
    lhs = np.ones((a.shape[1], len(a), 2))
    lhs[:, :, 0] = a.T
    rhs = np.ones((b.shape[1], 2, len(b)))
    np.negative(b.T, out=rhs[:, 1, :])
    return lhs, rhs


def _sq_dists_into(lhs, rhs, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Squared distances of the _diff_factors operands into out, adding the
    squared coordinate differences x, then y, then z: the order in which
    summing the (n, m, d) difference tensor over its last axis adds them, so
    the bits are the same without that tensor. scratch has out's shape."""
    np.matmul(lhs[0], rhs[0], out=out)
    out *= out
    for c in range(1, len(lhs)):
        np.matmul(lhs[c], rhs[c], out=scratch)
        scratch *= scratch
        out += scratch
    return out


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances S[i, k] = |a_i - b_k|^2 of validated clouds, by row blocks."""
    lhs, rhs = _diff_factors(a, b)
    out = np.empty((len(a), len(b)))
    rows = max(1, _BLOCK_ELEMS // len(b))
    scratch = np.empty((min(rows, len(a)), len(b)))
    for lo in range(0, len(a), rows):
        blk = out[lo : lo + rows]
        _sq_dists_into(lhs[:, lo : lo + rows], rhs, blk, scratch[: len(blk)])
    return out


def pairwise_distances(a, b) -> np.ndarray:
    """Euclidean distance matrix D with D[i, k] = |a_i - b_k|.

    Computed by explicit coordinate differences so each entry equals the
    per-pair scalar recomputation bit for bit (no cancellation tricks).
    """
    a, b = _same_dim_clouds(a, b)
    d = _sq_dists(a, b)
    return np.sqrt(d, out=d)


# squared distances per block in _directed_terms, 32 MB
_EXTREMA_BLOCK_ELEMS = 1 << 22


def _directed_terms(a, b) -> tuple[float, float]:
    """(max_i min_k |a_i - b_k|, max_k min_i |a_i - b_k|), exactly.

    Walks `a` in row blocks of at most 32 MB of distances (one row if a row
    alone is larger), so memory does not grow with len(a) * len(b). Works on
    squared distances and takes one square root at the end: sqrt is
    monotone, so the extrema are the same bits as over distances.
    """
    a, b = _same_dim_clouds(a, b)
    rows = max(1, _EXTREMA_BLOCK_ELEMS // len(b))
    worst_ab = 0.0
    col_min = np.full(len(b), np.inf)
    for lo in range(0, len(a), rows):
        sq = _sq_dists(a[lo : lo + rows], b)
        worst_ab = max(worst_ab, float(sq.min(axis=1).max()))
        np.minimum(col_min, sq.min(axis=0), out=col_min)
    return float(np.sqrt(worst_ab)), float(np.sqrt(col_min.max()))


def hausdorff_exact(a, b) -> float:
    """Exact Hausdorff distance max(sup-inf, sup-inf) between two clouds."""
    t_ab, t_ba = _directed_terms(a, b)
    return max(t_ab, t_ba)


def modified_hausdorff_exact(a, b) -> float:
    """Sum (not max) of the two directed sup-inf terms.

    Dominates the exact Hausdorff distance and is still a metric on compact
    sets; this is the quantity the smooth surrogate converges to.
    """
    t_ab, t_ba = _directed_terms(a, b)
    return t_ab + t_ba


@dataclass
class AngleDistortionReport:
    """Per-corner angle differences between a reference mesh and its image.

    Entries are (triangle id, corner id in {0,1,2}, theta - phi) where theta
    is the reference angle and phi the mapped one, in radians.
    """

    triangle_ids: np.ndarray
    corner_ids: np.ndarray
    diffs: np.ndarray
    mean_abs: float
    hist_edges: np.ndarray = field(repr=False)
    hist_counts: np.ndarray = field(repr=False)


def _corner_angles(points: np.ndarray, triangles: np.ndarray, what: str) -> np.ndarray:
    """(m, 3) corner angles; corner c is the angle at vertex triangles[:, c]."""
    angles = np.empty((len(triangles), 3), dtype=np.float64)
    p = [points[triangles[:, 0]], points[triangles[:, 1]], points[triangles[:, 2]]]
    for c in range(3):
        u = p[(c + 1) % 3] - p[c]
        v = p[(c + 2) % 3] - p[c]
        nu = np.linalg.norm(u, axis=1)
        nv = np.linalg.norm(v, axis=1)
        bad = (nu == 0.0) | (nv == 0.0)
        if bad.any():
            raise ValueError(
                f"zero-length edge at corner {c} of {what} triangle "
                f"{int(np.flatnonzero(bad)[0])}"
            )
        cosang = np.clip((u * v).sum(axis=1) / (nu * nv), -1.0, 1.0)
        angles[:, c] = np.arccos(cosang)
    return angles


def angle_distortion(
    reference: TriangleMesh, mapped, n_bins: int = 40
) -> AngleDistortionReport:
    """Compare corner angles of `reference` with those of the mapped vertices.

    `mapped` is a 2-d cloud with one point per reference vertex. The report
    carries one entry per triangle corner (3 per triangle), their mean
    absolute value, and a histogram of the signed differences over
    [-pi, pi] with `n_bins` bins.
    """
    mapped = as_cloud(mapped, dim=2)
    if len(mapped) != len(reference.vertices):
        raise ValueError(
            f"mapped cloud has {len(mapped)} points for {len(reference.vertices)} vertices"
        )
    tris = reference.triangles
    theta = _corner_angles(reference.vertices, tris, "reference")
    phi = _corner_angles(mapped, tris, "mapped")
    diffs = (theta - phi).ravel()
    tri_ids = np.repeat(np.arange(len(tris), dtype=np.int64), 3)
    corner_ids = np.tile(np.arange(3, dtype=np.int64), len(tris))
    counts, edges = np.histogram(diffs, bins=n_bins, range=(-np.pi, np.pi))
    return AngleDistortionReport(
        triangle_ids=tri_ids,
        corner_ids=corner_ids,
        diffs=diffs,
        mean_abs=float(np.abs(diffs).mean()) if diffs.size else 0.0,
        hist_edges=edges,
        hist_counts=counts,
    )


def sampling_gap_estimate(sample, denser_sample) -> float:
    """Estimate the covering gap of `sample` against a denser sample.

    A sample W of a region has gap sup_region inf_W |.|; with a (say 4x)
    denser sample standing in for the region this is the directed term
    max over denser of min over sample. Reported, never asserted.
    """
    return _directed_terms(denser_sample, sample)[0]
