"""Point clouds, triangle meshes, exact Hausdorff distances, angle distortion.

Conventions: a point cloud is a float64 array of shape (n, d) with d in {2, 3};
a triangle mesh stores vertices the same way plus an (m, 3) int array of
vertex indices. All distances are Euclidean.

The module also holds `_Grid`, the one uniform-grid neighbour index of the
package: dart throwing and the triangle buckets of the inverse interpolator
in `meshing` use it, and so do the exact sup-inf distances here. Those
score each point only against the points of the other cloud in the 3x3
block of grid cells around it, and keep that row minimum only when it is
certainly below the distance to the block's edge, with a margin for the
rounding of the cell map. Every other row is scored against all points.
The grid covers the first two coordinates, and a planar distance never
exceeds the 3-d one, so the same argument holds in 3-d. The results are
the bits of the full distance matrix.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_cloud",
    "TriangleMesh",
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
            edges, count, first = _edge_table(t, n)
            over = np.flatnonzero(count > 2)
            if len(over):
                # the over-full edge the faces reach first
                k = over[np.argmin(first[over])]
                raise ValueError(
                    f"edge {tuple(edges[k].tolist())} belongs to {count[k]} triangles, "
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


def _edge_table(triangles: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges, count, first) of (m, 3) triangles over n vertices: each
    distinct undirected edge as a row (i, j), i < j, in lexicographic order,
    the number of triangles on it, and the position 3 f + c at which the
    face edges (0, 1), (1, 2), (2, 0) of each triangle in turn first reach
    it, so first // 3 is its lowest triangle. The package's only map from
    faces to edges."""
    e = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, first, count = np.unique(e[:, 0] * n + e[:, 1], return_index=True, return_counts=True)
    return e[first], count, first


def _check_real(name: str, value, ok, want: str) -> None:
    """Reject a value that is a bool, not a real number, an integer too
    large for a float, or fails ok, as `{name} must be {want}`: the one rule
    for the numbers of a config, a network spec and a domain segment."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value)
            or (isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max)):
        raise ValueError(f"{name} must be {want}, got {value!r}")


# coordinates must stay below this magnitude wherever squared distances of
# them are formed (the losses, the exact extrema, point location): past it
# those overflow
_COORD_BOUND = 1e150


def _check_coord_bound(points: np.ndarray, what: str) -> None:
    """Reject a non-empty cloud with a coordinate of magnitude `_COORD_BOUND`
    or more, naming the bound."""
    biggest = float(np.abs(points).max())
    if not biggest < _COORD_BOUND:
        raise ValueError(
            f"{what} coordinates reach magnitude {biggest:g}; they must stay "
            f"below {_COORD_BOUND:g}, past which squared distances overflow"
        )


def _same_dim_clouds(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two clouds of one dimension, both within the coordinate bound: every
    caller forms squared distances between them."""
    a = as_cloud(a)
    b = as_cloud(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    _check_coord_bound(a, "first cloud's")
    _check_coord_bound(b, "second cloud's")
    return a, b


# float64 elements of one row tile of a dense (n, m) distance pass, 256 kB: a
# tile and its buffers stay in cache, and the buffers are made once per pass,
# since writing into fresh pages costs about as much as the arithmetic. The
# budget is in bytes: a float32 tile holds twice the elements
_TILE_ELEMS = 1 << 15


def _diff_factors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) with lhs[c] @ rhs[c] == a[:, c, None] - b[:, c] bit for bit:
    each entry is a_i * 1 + 1 * (-b_k), two exact products and one rounding
    in any order. BLAS writes it several times faster than a broadcast
    subtraction. lhs[:, lo:hi] gives the rows lo:hi of a. Both are in the
    operands' common dtype."""
    dtype = np.result_type(a, b)
    lhs = np.ones((a.shape[1], len(a), 2), dtype)
    lhs[:, :, 0] = a.T
    rhs = np.ones((b.shape[1], 2, len(b)), dtype)
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


def _row_tiles(a: np.ndarray, b: np.ndarray, spare: int = 0, scale: int = 1,
               upper: bool = False):
    """The dense squared distances |a_i - b_k|^2 of two clouds of one
    dimension, one row tile at a time.

    Yields (rows, sq, scratch, spares): the slice of a's rows in the tile,
    their squared distances to all of b by `_sq_dists_into`, that pass's
    scratch buffer and a list of `spare` more buffers, all of sq's shape and
    of the operands' common dtype. A tile holds at most the bytes of
    `scale * _TILE_ELEMS` float64 elements, or one row if a row alone is
    larger. The buffers are made once per call and overwritten by the next
    tile; an empty a yields nothing.

    With `upper`, a must be the first rows of b, and the tile of rows lo:hi
    holds only the columns lo: of b, the band on and right of the diagonal
    of the symmetric matrix; its first hi - lo columns are the diagonal
    block. The bands widen in rows as they narrow in columns.
    """
    lhs, rhs = _diff_factors(a, b)
    limit, bands, lo = scale * _TILE_ELEMS * 8 // lhs.itemsize, [], 0
    while lo < len(a):
        first = lo if upper else 0
        hi = min(len(a), lo + max(1, limit // (len(b) - first)))
        bands.append((lo, hi, first))
        lo = hi
    if not bands:
        return
    bufs = np.empty((2 + spare, max((hi - lo) * (len(b) - first) for lo, hi, first in bands)),
                    lhs.dtype)
    for lo, hi, first in bands:
        shape = (2 + spare, hi - lo, len(b) - first)
        sq, scratch, *spares = bufs[:, : shape[1] * shape[2]].reshape(shape)
        t = slice(lo, hi)
        yield t, _sq_dists_into(lhs[:, t], rhs[:, :, first:], sq, scratch), scratch, spares


# ---------------------------------------------------------------------------
# uniform-grid bucket index
# ---------------------------------------------------------------------------


class _Grid:
    """Uniform grid of square cells; item i is filed under every cell its box meets.

    The grid covers the first two coordinates only. The cell of a point is
    floor((x - lo) / cell) per axis, clipped to the grid. That map is
    monotone in x, so a point inside an item's box [bmin, bmax] always falls
    in one of the item's cells, and two points whose cells differ by more
    than k along an axis are at least about k * cell apart along it (the
    grid of Bridson 2007, "Fast Poisson disk sampling in arbitrary
    dimensions"). Cells are numbered x * ny + y, so the cells of one column
    are consecutive, and so are the items filed in them.

    [lo, hi] is the box of all the items. Without a cell, the side is the
    largest of `_one_per_cell`, sqrt(mean(w h) / 4) and mean(w + h) / 4 over
    the planar sides w, h of the boxes, or 1.0 when all are 0. A box spans
    under (w / cell + 2) (h / cell + 2) cells, so under 16 entries are filed
    per item however long the boxes are (as on a fan). Under the coordinate
    bound w h < 4e300, so the means of fewer than 4e7 items are finite.
    """

    def __init__(self, bmin: np.ndarray, bmax: np.ndarray, cell: float | None = None):
        self.lo, self.hi = bmin[:, :2].min(axis=0), bmax[:, :2].max(axis=0)
        if cell is None:
            w, h = (bmax[:, :2] - bmin[:, :2]).T
            cell = max(_one_per_cell(self.hi - self.lo, len(bmin)),
                       math.sqrt(np.mean(w * h) / 4.0), np.mean(w + h) / 4.0)
        self.cell = float(cell) or 1.0
        self.shape = np.floor(self.scaled(self.hi)).astype(np.int64) + 1
        ny = int(self.shape[1])
        x0, y0 = self.cells(bmin)
        x1, y1 = self.cells(bmax)
        wx = x1 - x0 + 1
        per = wx * (y1 - y0 + 1)
        item = np.repeat(np.arange(len(bmin)), per)
        r = np.arange(len(item)) - np.repeat(np.cumsum(per) - per, per)
        cid = (x0[item] + r % wx[item]) * ny + y0[item] + r // wx[item]
        self.items = item[np.argsort(cid, kind="stable")]
        counts = np.bincount(cid, minlength=int(self.shape.prod()))
        self.start = np.concatenate([[0], np.cumsum(counts)])

    def scaled(self, pts: np.ndarray) -> np.ndarray:
        """(x - lo) / cell of the first two coordinates, before the floor."""
        return (pts[..., :2] - self.lo) / self.cell

    def cells(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = np.clip(np.floor(self.scaled(pts)), 0, self.shape - 1).astype(np.int64)
        return c[:, 0], c[:, 1]

    def blocks(self, pts: np.ndarray, ring: int = 0):
        """(span, count, pos) per block of consecutive queries: the slice of
        `pts` it covers, the number of items filed within `ring` cells of
        each query's cell, and their positions in `items`, grouped by query,
        one run per column of cells. A block holds at most `_TILE_ELEMS`
        (query, item) pairs, or one query when that query alone has more."""
        ix, iy = self.cells(pts)
        nx, ny = (int(v) for v in self.shape)
        y0 = np.maximum(iy - ring, 0)
        y1 = np.minimum(iy + ring, ny - 1) + 1
        first = np.empty((len(ix), 2 * ring + 1), dtype=np.int64)
        count = np.empty_like(first)
        for k, dx in enumerate(range(-ring, ring + 1)):
            jx = ix + dx
            col = np.clip(jx, 0, nx - 1) * ny
            first[:, k] = self.start[col + y0]
            count[:, k] = np.where((jx >= 0) & (jx < nx), self.start[col + y1] - first[:, k], 0)
        total = count.sum(axis=1)
        ends = np.cumsum(total)
        lo = 0
        while lo < len(ix):
            limit = ends[lo] - total[lo] + _TILE_ELEMS
            hi = max(lo + 1, int(np.searchsorted(ends, limit, "right")))
            # first + 0, ..., first + count - 1 of every run, in order
            f, c = first[lo:hi].ravel(), count[lo:hi].ravel()
            run_ends = np.cumsum(c)
            pos = np.repeat(f - (run_ends - c), c) + np.arange(run_ends[-1])
            yield slice(lo, hi), total[lo:hi], pos
            lo = hi


# ---------------------------------------------------------------------------
# exact sup-inf distances
# ---------------------------------------------------------------------------

# relative slack of the certainty test of `_row_min_sq`; the rounding it
# covers is a few units of 2^-53
_EXTREMA_MARGIN = 2.0**-40


def _one_per_cell(extent: np.ndarray, m: int) -> float:
    """Side of square cells holding about one of m items each over a box of
    planar extent (w, h): sqrt(w h / m), at least the longer side over m, so
    there are at most about 3m cells. Inf only when w or h is."""
    w, h = (float(v) for v in extent[:2])
    return max(math.sqrt(w / m) * math.sqrt(h), max(w, h) / m)


def _row_min_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min_k |a_i - b_k|^2 for every row i, exactly: the bits of the row
    minima of the dense squared distances, for validated clouds of one
    dimension.

    b is filed in a `_Grid` of its first two coordinates. Each row of a is
    scored against the b points in the 3x3 block of cells around its own, by
    the arithmetic of `_sq_dists_into`, so each pair gets the bits the full
    matrix would give it. A b point outside the block lies in a cell at
    least two columns or rows away, so its planar distance from a_i is at
    least the distance g from a_i to the block's edge, and in 3-d its
    distance is at least its planar one. So when the best candidate's
    squared distance is below g^2 it is the row minimum. g is taken in the
    scaled coordinates that the cell map floors, less a margin of 2^-40
    times their magnitude, and g^2 is shrunk by a factor 1 - 2^-40. The
    cell map and the squared distances round by a few units of 2^-53, so the
    margin covers them thousands of times over. A row that fails the test,
    such as a row far outside b's box, takes the dense path over all of b.
    Candidate pairs go in the blocks of `_Grid.blocks`, and dense rows in
    the tiles of `_row_tiles`, however b is laid out, even when it collapses
    into one cell.
    """
    grid = _Grid(b, b)
    bs = b[grid.items].T.copy()  # b in cell order, one row per coordinate
    best = np.full(len(a), np.inf)
    for span, cnt, pos in grid.blocks(a, ring=1):
        some = np.flatnonzero(cnt)
        if len(some):
            d2 = _pair_sq_dists(a[span], cnt, bs, pos)
            best[span.start + some] = np.minimum.reduceat(d2, (np.cumsum(cnt) - cnt)[some])
    u = grid.scaled(a)
    ix, iy = grid.cells(a)
    # g in cells: from a_i to the block's left edge when cells two columns
    # to its left exist, to its right edge when cells two columns to its
    # right exist, and likewise for the rows below and above
    idx = np.column_stack([ix, iy])
    gap = np.minimum(
        np.where(idx >= 2, u - (idx - 1), np.inf),
        np.where(idx + 2 < grid.shape, (idx + 2) - u, np.inf),
    ).min(axis=1)
    gap -= _EXTREMA_MARGIN * (np.abs(u).sum(axis=1) + grid.shape.sum())
    r = grid.cell * np.maximum(gap, 0.0)
    unsure = np.flatnonzero(~(best < r * r * (1.0 - _EXTREMA_MARGIN)))
    if len(unsure):
        best[unsure] = _dense_row_min_sq(a[unsure], b)
    return best


def _pair_sq_dists(a: np.ndarray, cnt: np.ndarray, bs: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """|a_i - bs[:, p]|^2 for row i repeated cnt[i] times against positions
    pos, adding the squared coordinate differences x, then y, then z as
    `_sq_dists_into` does."""
    out = np.repeat(a[:, 0], cnt)
    tmp = np.take(bs[0], pos)
    out -= tmp
    out *= out
    for c in range(1, a.shape[1]):
        diff = np.repeat(a[:, c], cnt)
        np.take(bs[c], pos, out=tmp)
        diff -= tmp
        diff *= diff
        out += diff
    return out


def _dense_row_min_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row minima of the full squared-distance matrix, one row tile at a time."""
    best = np.empty(len(a))
    for t, sq, _, _ in _row_tiles(a, b):
        sq.min(axis=1, out=best[t])
    return best


def _sup_inf(a: np.ndarray, b: np.ndarray) -> float:
    """max_i min_k |a_i - b_k| of validated clouds, exactly: the square root
    of the largest `_row_min_sq`, taken once, as sqrt is monotone."""
    return float(np.sqrt(_row_min_sq(a, b).max()))


def hausdorff_exact(a, b) -> float:
    """Exact Hausdorff distance max(sup-inf, sup-inf) between two clouds."""
    a, b = _same_dim_clouds(a, b)
    return max(_sup_inf(a, b), _sup_inf(b, a))


def modified_hausdorff_exact(a, b) -> float:
    """Sum (not max) of the two directed sup-inf terms.

    Dominates the exact Hausdorff distance and is still a metric on compact
    sets; this is the quantity the smooth surrogate converges to.
    """
    a, b = _same_dim_clouds(a, b)
    return _sup_inf(a, b) + _sup_inf(b, a)


@dataclass
class AngleDistortionReport:
    """Per-corner angle differences between a reference mesh and its image.

    diffs holds theta - phi per corner, theta the reference angle and phi
    the mapped one, in radians, triangle-major: entry 3 t + c is corner c
    of triangle t, the angle at its vertex c.
    """

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
    counts, edges = np.histogram(diffs, bins=n_bins, range=(-np.pi, np.pi))
    return AngleDistortionReport(
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
    sample, denser_sample = _same_dim_clouds(sample, denser_sample)
    return _sup_inf(denser_sample, sample)
