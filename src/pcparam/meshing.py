"""Delaunay triangulation, pruning, boundary loops, mesh generation, lifting.

The triangulator is incremental Bowyer-Watson with a large synthetic bounding
triangle, inserting the points along a grid snake so that each point
location walk is short. Orientation and in-circle predicates run a fast
float path with a forward error bound and fall back to exact integer
arithmetic (doubles are dyadic rationals) when the float sign is not
certain. Exact co-circular ties are then broken by index rank, a symbolic
perturbation (Edelsbrunner & Muecke 1990), not by insertion order: the
result is the Delaunay triangulation of the index-perturbed points, the same
for every insertion order. The bounding triangle sits 1e10 data-diameters
out; hulls that are collinear to within one part in 1e10 of that could in
principle interact with it, which is far beyond anything the samplers here
produce. Its corners overflow for coordinates past about 4.5e297, and such a
cloud is rejected with a ValueError that names the limit.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .domains import Domain
from .geometry import (_TILE_ELEMS, TriangleMesh, _check_coord_bound, _edge_table, _Grid,
                       _one_per_cell, _row_tiles, as_cloud)

__all__ = [
    "DuplicatePointsWarning",
    "delaunay",
    "prune_long_faces",
    "boundary_edges",
    "generate_param_mesh",
    "InverseInterpolator",
    "ReconstructionResult",
    "reconstruct_surface",
]


class DuplicatePointsWarning(UserWarning):
    """Raised as a warning record when exact duplicate points are merged."""


# ---------------------------------------------------------------------------
# adaptive-precision predicates
# ---------------------------------------------------------------------------

_ORIENT_BOUND = 3.3306690738754716e-16  # (3 + 16 eps) eps
_INCIRCLE_BOUND = 1.1125369292536007e-15  # (10 + 96 eps) eps
# The bounds above assume that no product underflows. A product that does
# is off by up to 2**-1074 absolutely, which the bounds absorb only while
# the sum of the magnitudes (detsum, permanent) stays far above it; below
# this the exact path decides. Ordinary scales never come near it.
_FILTER_FLOOR = 1e-280


def _dyadic_ints(*coords) -> list[int]:
    """Float coordinates as integers over one common power-of-two denominator.

    Every double is a dyadic rational, so this is exact, and a positive
    common scale leaves the sign of any homogeneous polynomial unchanged.
    Integer arithmetic then decides the exact predicates without the gcd
    work of `Fraction`.
    """
    ratios = [float(c).as_integer_ratio() for c in coords]
    den = max(d for _, d in ratios)
    return [num * (den // d) for num, d in ratios]


def _orient_exact(ax, ay, bx, by, cx, cy) -> int:
    ax, ay, bx, by, cx, cy = _dyadic_ints(ax, ay, bx, by, cx, cy)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return int(det > 0) - int(det < 0)


def orient2d(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the signed area of (a, b, c): +1 ccw, -1 cw, 0 collinear."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if detsum >= _FILTER_FLOOR and abs(det) >= _ORIENT_BOUND * detsum:
        return int(det > 0) - int(det < 0)
    return _orient_exact(ax, ay, bx, by, cx, cy)


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    ax, ay, bx, by, cx, cy, dx, dy = _dyadic_ints(ax, ay, bx, by, cx, cy, dx, dy)
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return int(det > 0) - int(det < 0)


def incircle(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """+1 iff d is strictly inside the circumcircle of ccw triangle (a, b, c)."""
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
    cdxady, adxcdy = cdx * ady, adx * cdy
    adxbdy, bdxady = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady)
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    if permanent >= _FILTER_FLOOR and abs(det) > _INCIRCLE_BOUND * permanent:
        return int(det > 0) - int(det < 0)
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def _walk(pts, tris, edge, tid, qx, qy) -> int | None:
    """Triangle containing (qx, qy), by a visibility walk from triangle `tid`.

    `pts` lists the (x, y) of every vertex as Python floats, `tris` maps
    triangle id to its ccw corners and `edge` maps each directed edge (u, v)
    to the triangle it bounds on the left. The walk crosses the first edge
    with the query strictly on its right and returns None when that edge
    lies on the hull. A walk that has not settled after 4 * len(tris) + 64
    steps falls back to testing every triangle in the dict's own order
    (still exact).
    """
    prev: tuple[int, int] | None = None
    for _ in range(4 * len(tris) + 64):
        a, b, c = tris[tid]
        moved = False
        for u, v in ((a, b), (b, c), (c, a)):
            if prev == (u, v):
                continue
            ux, uy = pts[u]
            vx, vy = pts[v]
            if orient2d(ux, uy, vx, vy, qx, qy) < 0:
                nxt = edge.get((v, u))
                if nxt is None:
                    return None
                prev = (v, u)
                tid = nxt
                moved = True
                break
        if not moved:
            return tid
    for tid, (a, b, c) in tris.items():
        if _in_triangle(pts[a], pts[b], pts[c], qx, qy):
            return tid
    return None


def _in_triangle(a, b, c, qx, qy) -> bool:
    """Whether (qx, qy) lies in the closed ccw triangle (a, b, c), by the
    exact `orient2d`; the corners are (x, y) pairs of Python floats."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    return (
        orient2d(ax, ay, bx, by, qx, qy) >= 0
        and orient2d(bx, by, cx, cy, qx, qy) >= 0
        and orient2d(cx, cy, ax, ay, qx, qy) >= 0
    )


# ---------------------------------------------------------------------------
# Bowyer-Watson
# ---------------------------------------------------------------------------


def _snake_order(points: np.ndarray) -> np.ndarray:
    """Indices of `points` along a grid snake, for spatially coherent insertion.

    About sqrt(n / 4) horizontal strips of equal height, walked by x to the
    right and to the left in turn, so each point lands a short walk from
    the last one inserted (Amenta, Choi & Rote 2003, "Incremental
    constructions con BRIO").
    """
    rows = max(1, int(math.sqrt(len(points) / 4.0)))
    x, y = points[:, 0], points[:, 1]
    lo, hi = y.min(), y.max()
    strip = np.zeros(len(points), dtype=np.int64)
    if hi > lo:
        strip = np.minimum(((y - lo) / (hi - lo) * rows).astype(np.int64), rows - 1)
    return np.lexsort((np.where(strip % 2 == 0, x, -x), strip))


# the bounding triangle sits this many data spans out; its corners are finite
# while every |coordinate| stays below about _COORD_LIMIT
_SUPER_SPANS = 1e10
_COORD_LIMIT = sys.float_info.max / (4.0 * _SUPER_SPANS)


class _Triangulator:
    """Incremental Delaunay over a fixed point array plus 3 bounding vertices.

    Exact in-circle ties are decided by index rank (see `_incircle`), so the
    triangulation does not depend on the order `run` inserts the points in.
    """

    def __init__(self, points: np.ndarray):
        n = len(points)
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        center = (lo + hi) / 2.0
        span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
        m = _SUPER_SPANS * span
        supers = np.array(
            [
                [center[0] - 2.0 * m, center[1] - m],
                [center[0] + 2.0 * m, center[1] - m],
                [center[0], center[1] + 2.0 * m],
            ]
        )
        if not np.isfinite(supers).all():
            raise ValueError(
                "coordinates too large to triangulate: the bounding triangle, "
                f"{_SUPER_SPANS:g} spans out, overflows; |x| and |y| must stay below "
                f"about {_COORD_LIMIT:.3g}"
            )
        self.n = n
        self.order = _snake_order(points).tolist()
        self.pts = list(map(tuple, np.vstack([points, supers]).tolist()))
        s0, s1, s2 = n, n + 1, n + 2
        self.tris: dict[int, tuple[int, int, int]] = {0: (s0, s1, s2)}
        self.edge: dict[tuple[int, int], int] = {(s0, s1): 0, (s1, s2): 0, (s2, s0): 0}
        self.next_tid = 1
        self.last_tid = 0

    def _incircle(self, tid: int, pi: int) -> int:
        """`incircle` of triangle tid and point pi, ties broken symbolically.

        An exact tie is decided as if each point's lift onto the paraboloid
        were raised by an infinitesimal that grows with its index rank, the
        bounding vertices ranking below every real point (Edelsbrunner &
        Muecke 1990, "Simulation of Simplicity"). The highest-ranked of the
        four decides: the query gives -1 (the rule of index-order insertion),
        a corner gives the orientation of the other three. Four distinct
        cocircular points never have three collinear, so this always decides.
        """
        a, b, c = self.tris[tid]
        pts = self.pts
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts[a], pts[b], pts[c], pts[pi]
        sign = incircle(ax, ay, bx, by, cx, cy, dx, dy)
        if sign:
            return sign
        n = self.n
        ra, rb, rc = (-1 if v >= n else v for v in (a, b, c))
        top = max(ra, rb, rc)
        if pi > top:
            return -1
        if ra == top:
            return orient2d(bx, by, cx, cy, dx, dy)
        if rb == top:
            return orient2d(cx, cy, ax, ay, dx, dy)
        return orient2d(ax, ay, bx, by, dx, dy)

    def insert(self, pi: int) -> None:
        tris, edge = self.tris, self.edge
        px, py = self.pts[pi]
        start = self.last_tid if self.last_tid in tris else next(iter(tris))
        seed = _walk(self.pts, tris, edge, start, px, py)
        if seed is None:
            raise RuntimeError("point escaped the bounding triangle")
        bad = {seed}
        order = [seed]
        stack = [seed]
        while stack:
            t = stack.pop()
            a, b, c = tris[t]
            for u, v in ((b, a), (c, b), (a, c)):
                nt = edge.get((u, v))
                if nt is not None and nt not in bad and self._incircle(nt, pi) > 0:
                    bad.add(nt)
                    order.append(nt)
                    stack.append(nt)
        boundary: list[tuple[int, int]] = []
        for t in order:
            a, b, c = tris[t]
            for u, v in ((a, b), (b, c), (c, a)):
                nt = edge.get((v, u))
                if nt is None or nt not in bad:
                    boundary.append((u, v))
        for t in order:
            a, b, c = tris.pop(t)
            del edge[(a, b)], edge[(b, c)], edge[(c, a)]
        tid = self.next_tid
        for u, v in boundary:
            tris[tid] = (u, v, pi)
            edge[(u, v)] = tid
            edge[(v, pi)] = tid
            edge[(pi, u)] = tid
            tid += 1
        self.next_tid = tid
        self.last_tid = tid - 1

    def run(self) -> list[tuple[int, int, int]]:
        for pi in self.order:
            self.insert(pi)
        out = []
        for a, b, c in self.tris.values():
            if a < self.n and b < self.n and c < self.n:
                out.append((a, b, c))
        return out


def _dedup_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in first-occurrence order, and the kept row indices."""
    _, first = np.unique(points, axis=0, return_index=True)
    if len(first) == len(points):
        return points, np.arange(len(points))
    keep = np.sort(first)
    return points[keep], keep


def delaunay(points) -> TriangleMesh:
    """Delaunay triangulation of a planar cloud.

    Exact duplicates are merged (first occurrence kept) with a
    DuplicatePointsWarning. Triangles come out ccw, rotated so the smallest
    vertex index leads, sorted lexicographically; exact co-circular ties
    follow index rank, so the result depends on the indexed points alone.
    Raises on fewer than 3 distinct points or a fully collinear cloud.
    """
    pts = as_cloud(points, dim=2)
    n_in = len(pts)
    pts, _ = _dedup_points(pts)
    if len(pts) < n_in:
        warnings.warn(
            "duplicate points merged before triangulation", DuplicatePointsWarning,
            stacklevel=2,
        )
    if len(pts) < 3:
        raise ValueError(f"need at least 3 distinct points, got {len(pts)}")
    tris = _Triangulator(pts).run()
    if not tris:
        raise ValueError("all points are collinear, no triangulation exists")
    canon = []
    for a, b, c in tris:
        if a <= b and a <= c:
            canon.append((a, b, c))
        elif b <= a and b <= c:
            canon.append((b, c, a))
        else:
            canon.append((c, a, b))
    canon.sort()
    return TriangleMesh(pts, np.array(canon, dtype=np.int64))


def prune_long_faces(mesh: TriangleMesh, h: float) -> TriangleMesh:
    """Drop every face whose longest edge exceeds h; vertices are kept."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive, got {h}")
    if len(mesh.triangles) == 0:
        return TriangleMesh(mesh.vertices.copy(), mesh.triangles.copy())
    keep = mesh.edge_lengths().max(axis=1) <= h
    return TriangleMesh(mesh.vertices.copy(), mesh.triangles[keep])


def boundary_edges(mesh: TriangleMesh) -> list[list[int]]:
    """Boundary loops of a pruned mesh, as vertex index cycles.

    An edge is boundary iff exactly one face uses it. Loops are walked
    smallest-vertex first, smallest-neighbor next, so the output is
    canonical.
    """
    return _boundary_walk(mesh)[0]


def _boundary_walk(mesh: TriangleMesh) -> tuple[list[list[int]], np.ndarray]:
    """(loops, faces): the loops of `boundary_edges`, and the face of each
    loop edge (loop[i], loop[i + 1]), closing edges included, in walk order.

    Each face at a vertex has two of its edges, so every vertex has an even
    number of boundary edges, and a walk that keeps taking an unused edge
    can only stop back at its start.
    """
    edges, count, first = _edge_table(mesh.triangles, len(mesh.vertices))
    adj: dict[int, list[tuple[int, int]]] = {}
    for k, (i, j) in enumerate(edges[count == 1].tolist()):
        adj.setdefault(i, []).append((j, k))
        adj.setdefault(j, []).append((i, k))
    walked: dict[int, None] = {}  # boundary edge ids in walk order

    def step(v: int) -> int | None:
        for w, k in sorted(adj[v]):
            if k not in walked:
                walked[k] = None
                return w
        return None

    loops: list[list[int]] = []
    for start in sorted(adj):
        while (cur := step(start)) is not None:
            loops.append([start])
            while cur != start:
                loops[-1].append(cur)
                cur = step(cur)
    return loops, (first[count == 1] // 3)[list(walked)]


# ---------------------------------------------------------------------------
# parameter-domain mesh generation
# ---------------------------------------------------------------------------


# most vertices a parameter mesh may have, counting every dart that could be
# accepted: `delaunay` takes about 40 us a point, so a mesh at the limit
# takes a minute or two where a target edge far too small would take hours
_MESH_VERTICES = 2**18
# dart throwing draws at most this many rounds of this many candidates
_DART_ROUNDS, _DART_BATCH = 400, 512


def _boundary_ring(domain: Domain, radius_at, darts: int = 0) -> np.ndarray:
    """March every loop placing points at locally prescribed spacing.

    radius_at maps an (n, 2) array of points to their spacings. A segment's
    dense polyline steps an eighth of the spacing at its start. The dense
    points of the loops so far are counted before a loop's are made: past
    `_MESH_VERTICES` ring points (one per eight dense points) plus `darts`,
    the most points that may join the ring later, a ValueError names the
    limit, so at most 2**21 dense points are made. The spacing of a loop's
    dense points is evaluated in one call over dense[1:], the points in the
    order a one-point-at-a-time march would ask for them.
    """
    def step_at(p) -> float:
        return float(radius_at(np.asarray(p, dtype=np.float64).reshape(1, 2))[0])

    ring = []
    need = 0.0
    for loop in domain.loops:
        fine = [step_at(seg.point_at(0.0)) / 8.0 for seg in loop]
        need += sum(seg.length() / f for seg, f in zip(loop, fine))
        if not need / 8.0 + darts <= _MESH_VERTICES:
            raise ValueError(
                f"the parameter mesh at spacing {8.0 * min(fine):g} could have about "
                f"{need / 8.0 + darts:.3g} vertices ({need / 8.0:.3g} on the boundary "
                f"ring), past the limit of {_MESH_VERTICES} (2**18) vertices: the "
                "target edge is too small for the domain"
            )
        dense = np.vstack([seg.polyline(f) for seg, f in zip(loop, fine)])
        seg_len = np.linalg.norm(np.diff(np.vstack([dense, dense[:1]]), axis=0), axis=1)
        step = radius_at(dense[1:])
        placed = [dense[0]]
        acc = 0.0
        for i in range(1, len(dense)):
            acc += seg_len[i - 1]
            if acc >= step[i - 1]:
                placed.append(dense[i])
                acc = 0.0
        if len(placed) >= 2 and np.linalg.norm(placed[-1] - placed[0]) < 0.5 * step_at(placed[0]):
            placed.pop()
        ring.append(np.array(placed))
    return np.vstack(ring)


def _throw_darts(acc, arad, cand, crad, lo, hi) -> np.ndarray:
    """Rows of `cand` accepted in order by Poisson-disk dart throwing.

    A candidate p of radius rp is accepted iff every point accepted so far,
    earlier candidates of this round included, lies at least
    0.5 * (its radius + rp) away. The test against `acc` runs in the blocks
    of `_Grid.blocks`, on the points of the neighbouring grid cells only: the
    cell is at least the largest such distance, so a point outside them
    passes anyway. It is also at least the side of about 16 cells per point
    of `acc`, so a tiny radius does not make the grid outgrow the points,
    while at ordinary radii the reach, not this floor, sets the cell; a
    larger cell only adds pairs that are too far apart to clash.
    The distance and threshold are the per-row `np.linalg.norm` and
    `0.5 * (arad + rp)` of a test against all points.
    """
    reach = 0.5 * (float(arad.max()) + float(crad.max()))
    cell = max(reach * (1.0 + 1e-6), _one_per_cell(hi - lo, 16 * len(acc)))
    grid = _Grid(lo, hi, cell, acc, acc)
    clash = np.zeros(len(cand), dtype=bool)
    for span, cnt, pos in grid.blocks(cand, ring=1):
        rows = np.repeat(np.arange(span.start, span.stop), cnt)
        nbr = grid.items[pos]
        d = np.linalg.norm(acc[nbr] - cand[rows], axis=1)
        clash[rows[~(d >= 0.5 * (arad[nbr] + crad[rows]))]] = True
    new_pts = np.empty_like(cand)
    new_rad = np.empty_like(crad)
    took: list[int] = []
    for i in np.flatnonzero(~clash):
        p, rp = cand[i], crad[i]
        m = len(took)
        d = np.linalg.norm(new_pts[:m] - p, axis=1)
        if (d >= 0.5 * (new_rad[:m] + rp)).all():
            new_pts[m] = p
            new_rad[m] = rp
            took.append(int(i))
    return np.array(took, dtype=np.int64)


def generate_param_mesh(
    domain: Domain,
    mode: str = "uniform",
    target_edge: float = 0.05,
    seed: int = 0,
    lambda_inv_field=None,
) -> TriangleMesh:
    """Mesh the parameter domain with near-target edge lengths.

    mode "uniform": constant-radius Poisson-disk dart throwing. mode
    "lambda_adapted": dart radius proportional to 1/sqrt(lambda_inv_field(p)),
    normalized so the median spacing stays at target_edge; the field is a
    callable (n, 2) -> (n,) of positive values. Points are the boundary ring
    plus accepted darts; faces come from Delaunay, keeping those whose
    centroid lies in the domain. A target edge so small that the ring plus
    every dart that could be accepted would pass `_MESH_VERTICES` vertices
    is rejected with a ValueError before any point is placed.
    """
    if mode not in ("uniform", "lambda_adapted"):
        raise ValueError(f"mode must be 'uniform' or 'lambda_adapted', got {mode!r}")
    if not (np.isfinite(target_edge) and target_edge > 0):
        raise ValueError(f"target_edge must be positive, got {target_edge}")
    lo, hi = domain.bbox
    if target_edge > float(min(hi - lo)):
        raise ValueError(
            f"target_edge {target_edge} exceeds the domain extent {tuple(hi - lo)}"
        )
    rng = np.random.default_rng(seed)

    radius_factor = 0.75
    if mode == "uniform":
        def radius_at(p: np.ndarray) -> np.ndarray:
            p = np.atleast_2d(p)
            return np.full(len(p), radius_factor * target_edge)
    else:
        if lambda_inv_field is None:
            raise ValueError("lambda_adapted mode needs a lambda_inv_field")
        probe = domain.sample_area(256, rng)
        u = np.asarray(lambda_inv_field(probe), dtype=np.float64).ravel()
        if u.shape != (256,) or not (np.isfinite(u).all() and (u > 0).all()):
            raise ValueError("lambda_inv_field must return positive finite values")
        scale = radius_factor * target_edge * float(np.median(np.sqrt(u)))

        def radius_at(p: np.ndarray) -> np.ndarray:
            p = np.atleast_2d(p)
            vals = np.asarray(lambda_inv_field(p), dtype=np.float64).ravel()
            if not (np.isfinite(vals).all() and (vals > 0).all()):
                raise ValueError("lambda_inv_field must return positive finite values")
            return scale / np.sqrt(vals)

    ring = _boundary_ring(domain, radius_at, _DART_ROUNDS * _DART_BATCH)
    accepted = [ring]
    radii = [radius_at(ring)]
    consecutive_miss = 0
    for _ in range(_DART_ROUNDS):
        cand = domain.sample_area(_DART_BATCH, rng)
        crad = radius_at(cand)
        took = _throw_darts(np.vstack(accepted), np.concatenate(radii), cand, crad, lo, hi)
        accepted.append(cand[took])
        radii.append(crad[took])
        if len(took) == 0:
            consecutive_miss += 1
            if consecutive_miss >= 4:
                break
        else:
            consecutive_miss = 0
    points = np.vstack(accepted)
    if len(points) < 3:
        raise ValueError("mesh generation produced fewer than 3 points")
    mesh = delaunay(points)
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    keep = domain.contains_many(cent)
    tris = mesh.triangles[keep]
    if len(tris) == 0:
        raise ValueError("no face centroid lies inside the domain; target_edge too large")
    return TriangleMesh(mesh.vertices, tris)


# ---------------------------------------------------------------------------
# inverse interpolation and reconstruction
# ---------------------------------------------------------------------------


class InverseInterpolator:
    """Reusable pullback from the plane to the original cloud.

    Triangulates the mapped cloud once; each query is located in it and
    combines the corresponding original points barycentrically. Queries
    within 1e-9 of the triangulated region are snapped onto it; queries
    farther outside are flagged out in the returned mask (their output row is
    NaN). A query that equals a corner of its triangle bit for bit returns
    that mapped point's original point exactly. Every mapped point is a
    corner of each triangle that contains it; a hull collinear to within
    the module docstring's tolerance could leave one in no triangle, and it
    is then snapped like any outside query. A mapped point or query of
    magnitude `geometry._COORD_BOUND` or more is rejected with a
    ValueError, since the distances and predicates on it would overflow.

    A query's triangle is the lowest-id triangle of `mesh` that contains
    it, edges and corners counted as inside, as the exact `orient2d`
    decides; so it depends on the query and the mesh alone, not on the
    order of the queries or on earlier calls. A grid of the triangles gives
    the queries their candidates in the blocks of `_Grid.blocks`, and the
    float filter of `orient2d` decides most (query, triangle) pairs of a
    block at once, strictly inside or certainly outside. A pair the filter
    cannot decide takes the scalar `orient2d`.
    """

    snap_tolerance = 1e-9

    def __init__(self, mapped, original):
        mapped = as_cloud(mapped, dim=2)
        _check_coord_bound(mapped, "mapped")
        mapped_u, self._keep = _dedup_points(mapped)
        self._n_mapped = len(mapped)
        self.original = self._per_point(original)
        if len(self._keep) < len(mapped):
            warnings.warn(
                "duplicate mapped points merged before triangulation",
                DuplicatePointsWarning,
                stacklevel=3,
            )
        self.mesh = delaunay(mapped_u)
        # (start, direction, squared length, triangle) of the hull edges,
        # built on the first snap
        self._hull: tuple[np.ndarray, ...] | None = None
        tri_pts = self.mesh.vertices[self.mesh.triangles]
        self._lo = self.mesh.vertices.min(axis=0)
        self._hi = self.mesh.vertices.max(axis=0)
        cell = _one_per_cell(self._hi - self._lo, len(self.mesh.triangles))
        self._grid = _Grid(self._lo, self._hi, cell, tri_pts.min(axis=1), tri_pts.max(axis=1))

    def _per_point(self, values) -> np.ndarray:
        """Values given per mapped point, as rows of the merged points."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if len(values) != self._n_mapped:
            raise ValueError(f"mapped has {self._n_mapped} points, values {len(values)}")
        return values[self._keep]

    def _locate(self, q: np.ndarray) -> np.ndarray:
        """Per query, the lowest id of the triangles that contain it, or -1
        when none does."""
        found = np.full(len(q), -1, dtype=np.int64)
        inbox = ((q >= self._lo) & (q <= self._hi)).all(axis=1)
        tris, pts = self.mesh.triangles, self.mesh.vertices
        idx = np.flatnonzero(inbox)
        for span, cnt, pos in self._grid.blocks(q[idx]):
            block = idx[span]
            rows = np.repeat(np.arange(len(block)), cnt)
            tid = self._grid.items[pos]
            qx, qy = q[block][rows].T
            corners = tris[tid]
            inside = np.ones(len(rows), dtype=bool)
            outside = np.zeros(len(rows), dtype=bool)
            for u, v in ((0, 1), (1, 2), (2, 0)):
                pu, pv = pts[corners[:, u]], pts[corners[:, v]]
                # orient2d(pu, pv, q), float path
                detleft = (pu[:, 0] - qx) * (pv[:, 1] - qy)
                detright = (pu[:, 1] - qy) * (pv[:, 0] - qx)
                det = detleft - detright
                detsum = np.abs(detleft) + np.abs(detright)
                sure = (detsum >= _FILTER_FLOOR) & (np.abs(det) >= _ORIENT_BOUND * detsum)
                inside &= sure & (det > 0)
                outside |= sure & (det < 0)
            for k in np.flatnonzero(~inside & ~outside).tolist():
                a, b, c = pts[corners[k]].tolist()
                inside[k] = _in_triangle(a, b, c, float(qx[k]), float(qy[k]))
            lowest = np.full(len(block), len(tris), dtype=np.int64)
            np.minimum.at(lowest, rows[inside], tid[inside])
            found[block] = np.where(lowest < len(tris), lowest, -1)
        return found

    def _snap(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(triangle, point) per query: the nearest point on the hull edges,
        the first edge's on a tie, and the triangle on that edge, or -1 when
        the point is farther than snap_tolerance. np.vecdot gives the bits of
        the scalar (q - a) @ e and np.linalg.norm per (query, edge) pair;
        the pairs go in blocks of at most `_TILE_ELEMS`."""
        if self._hull is None:
            loops, faces = _boundary_walk(self.mesh)
            a = self.mesh.vertices[np.concatenate(loops)]
            e = self.mesh.vertices[np.concatenate([loop[1:] + loop[:1] for loop in loops])] - a
            self._hull = (a, e, np.vecdot(e, e), faces)
        a, e, ee, hull_tri = self._hull
        tid = np.full(len(q), -1, dtype=np.int64)
        where = q.copy()
        step = max(1, _TILE_ELEMS // len(a))
        for lo in range(0, len(q), step):
            qb = q[lo:lo + step, None, :]
            t = np.clip(np.vecdot(qb - a, e) / ee, 0.0, 1.0)
            proj = a + t[:, :, None] * e
            gap = qb - proj
            dist = np.sqrt(np.vecdot(gap, gap))
            best = dist.argmin(axis=1)
            near = np.flatnonzero(dist.min(axis=1) <= self.snap_tolerance)
            tid[lo + near] = hull_tri[best[near]]
            where[lo + near] = proj[near, best[near]]
        return tid, where

    def __call__(self, queries, values=None) -> tuple[np.ndarray, np.ndarray]:
        """(rows, located mask) at the queries; `values` replaces original."""
        values = self.original if values is None else self._per_point(values)
        queries = as_cloud(queries, dim=2)
        _check_coord_bound(queries, "query")
        n = len(queries)
        out = np.full((n, values.shape[1]), np.nan)
        ok = np.zeros(n, dtype=bool)
        tid = self._locate(queries)
        where = queries.copy()
        outer = np.flatnonzero(tid < 0)
        if len(outer):
            tid[outer], where[outer] = self._snap(queries[outer])
        inner = np.flatnonzero(tid >= 0)
        if len(inner) == 0:
            return out, ok
        tri = self.mesh.triangles[tid[inner]]
        a, b, c = (self.mesh.vertices[tri[:, k]] for k in range(3))
        m = np.stack([b - a, c - a], axis=2)
        try:
            beta, gamma = np.linalg.solve(m, (where[inner] - a)[:, :, None])[:, :, 0].T
        except np.linalg.LinAlgError as exc:
            raise ValueError("degenerate triangle in barycentric solve") from exc
        w = np.column_stack([1.0 - beta - gamma, beta, gamma])
        out[inner] = (w[:, None, :] @ values[tri])[:, 0, :]
        corner = (self.mesh.vertices[tri] == queries[inner, None, :]).all(axis=2)
        hit = np.flatnonzero(corner.any(axis=1))
        out[inner[hit]] = values[tri[hit, corner[hit].argmax(axis=1)]]
        ok[inner] = True
        return out, ok


@dataclass
class ReconstructionResult:
    """Lifted surface mesh plus the parameter mesh it came from.

    kept_vertices marks which parameter-mesh vertices could be located inside
    the mapped cloud's triangulation (others were dropped, with their faces).
    """

    surface: TriangleMesh
    param: TriangleMesh
    kept_vertices: np.ndarray


def reconstruct_surface(
    mapped,
    original,
    domain: Domain,
    mode: str = "uniform",
    target_edge: float = 0.05,
    seed: int = 0,
    lambda_inv_field=None,
    lambda_inv_values=None,
) -> ReconstructionResult:
    """Rebuild a surface mesh from a parametrized cloud.

    Generates a parameter-domain mesh, pulls its vertices back through the
    mapped cloud (barycentric inverse interpolation), and reindexes faces
    over the vertices that landed inside the triangulated region.

    lambda_adapted mode takes a field callable, or per-point inverse factors
    interpolated over the lift's triangulation (nearest point outside it).
    """
    interp = InverseInterpolator(mapped, as_cloud(original))
    if lambda_inv_values is not None:
        if lambda_inv_field is not None:
            raise ValueError("give lambda_inv_field or lambda_inv_values, not both")
        mapped = as_cloud(mapped, dim=2)
        vals = np.asarray(lambda_inv_values, dtype=np.float64).ravel()

        def lambda_inv_field(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
            out, ok = interp(pts, vals)
            out = out.ravel()
            miss = np.flatnonzero(~ok)
            for t, sq, _, _ in _row_tiles(pts[miss], mapped):
                out[miss[t]] = vals[np.sqrt(sq, out=sq).argmin(axis=1)]
            return out

    param = generate_param_mesh(domain, mode, target_edge, seed, lambda_inv_field)
    lifted, ok = interp(param.vertices)
    if not ok.any():
        raise ValueError("no parameter vertex could be located in the mapped cloud")
    new_index = np.full(len(param.vertices), -1, dtype=np.int64)
    new_index[ok] = np.arange(int(ok.sum()))
    face_ok = ok[param.triangles].all(axis=1)
    faces = new_index[param.triangles[face_ok]]
    if len(faces) == 0:
        raise ValueError("all lifted faces were dropped; mapped cloud too sparse")
    surface = TriangleMesh(lifted[ok], faces)
    return ReconstructionResult(surface=surface, param=param, kept_vertices=ok)
