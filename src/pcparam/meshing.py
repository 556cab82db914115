"""Delaunay triangulation, pruning, boundary loops, mesh generation, lifting.

The triangulator is incremental Bowyer-Watson with one symbolic vertex at
infinity: each hull edge carries a ghost triangle to it, so the result is
exact at every finite scale, however thin the cloud. It inserts the points
in a BRIO order, rounds of doubling size cut from a fixed-seed permutation,
each walked along a grid snake, so that cavities stay small and each point
location walk is short. It keeps corners and neighbours in flat lists per
triangle slot: about 18 us a point on a 1889-point disk footprint and 24 on
2**16 uniform points (2 vCPUs). Orientation and in-circle predicates run a
fast float path with a forward error bound and fall back to exact integer
arithmetic (doubles are dyadic rationals) when the float sign is not
certain. Exact co-circular ties are then broken by index rank, a symbolic
perturbation (Edelsbrunner & Muecke 1990), not by insertion order: the
result is the Delaunay triangulation of the index-perturbed points, the
same for every insertion order.
"""

from __future__ import annotations

import math
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


def incircle(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """+1 iff d is strictly inside the circumcircle of ccw (a, b, c), exactly."""
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
    the last one inserted.
    """
    rows = max(1, int(math.sqrt(len(points) / 4.0)))
    x, y = points[:, 0], points[:, 1] / 2.0  # halved, so the extent stays finite
    lo, hi = y.min(), y.max()
    strip = np.zeros(len(points), dtype=np.int64)
    if hi > lo:
        strip = np.minimum(((y - lo) / (hi - lo) * rows).astype(np.int64), rows - 1)
    return np.lexsort((np.where(strip % 2 == 0, x, -x), strip))


def _brio_order(points: np.ndarray) -> np.ndarray:
    """Indices of `points` in a biased randomized insertion order (Amenta,
    Choi & Rote 2003, "Incremental constructions con BRIO").

    A fixed-seed permutation is cut into rounds of doubling size, the last
    holding half the points and the first 32 to 63 of them, and each round
    is walked along its own `_snake_order`. A point of a later round lands
    among points already inserted around it, not on the hull of a snake, so
    its cavity stays small: on the 1889-point `postfit` footprint a point
    costs 8.7 in-circle tests instead of 13.0 along one snake.
    """
    perm = np.random.default_rng(0).permutation(len(points))
    ends = [len(points)]
    while ends[-1] >= 64:
        ends.append(ends[-1] // 2)
    rounds = np.split(perm, ends[:0:-1])
    return np.concatenate([r[_snake_order(points[r])] for r in rounds])


class _Triangulator:
    """Incremental Delaunay over a fixed point array plus one vertex at infinity.

    Slot t of `tri` holds a ccw triangle and slot t of `nbr` the slots across
    its edges (corner k, corner k + 1). The vertex at infinity is index n and
    has no coordinates: each hull edge carries a ghost triangle (u, v, n), the
    outside left of u -> v (Cheng, Dey & Shewchuk 2012, ch. 3), so every link
    is a slot. Exact in-circle ties go by index rank (`_conflict_tie`) and a
    ghost's conflict test has none, so the triangulation does not depend on
    the order `insert` takes the points in. The points must be distinct.
    """

    def __init__(self, points: np.ndarray):
        self.n = n = len(points)
        self.pts = list(map(tuple, points.tolist()))
        # start from the first two rows and the first row off their line
        (ax, ay), (bx, by) = self.pts[:2]
        for c, (cx, cy) in enumerate(self.pts[2:], 2):
            side = orient2d(ax, ay, bx, by, cx, cy)
            if side:
                break
        else:
            raise ValueError("all points are collinear, no triangulation exists")
        a, b = (0, 1) if side > 0 else (1, 0)
        self.first = (a, b, c)
        self.tri: list[tuple[int, int, int]] = [(a, b, c), (b, a, n), (c, b, n), (a, c, n)]
        self.nbr: list[list[int]] = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]
        self.mark = [-1] * 4  # the point whose cavity last held the slot
        self.last = 0  # the slot the next walk starts from

    def _conflict_tie(self, t: int, pi: int) -> bool:
        """Whether point pi lies in the circumcircle of real triangle t, exactly.

        A tie is decided as if each point's lift onto the paraboloid were
        raised by an infinitesimal that grows with its index rank (Edelsbrunner
        & Muecke 1990, "Simulation of Simplicity"). The highest-ranked of the
        four decides: the query counts as outside (the rule of index-order
        insertion), a corner gives the orientation of the other three. Four
        distinct cocircular points never have three collinear.
        """
        a, b, c = self.tri[t]
        pts = self.pts
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts[a], pts[b], pts[c], pts[pi]
        sign = incircle(ax, ay, bx, by, cx, cy, dx, dy)
        if sign:
            return sign > 0
        top = max(a, b, c)
        if pi > top:
            return False
        if a == top:
            return orient2d(bx, by, cx, cy, dx, dy) > 0
        if b == top:
            return orient2d(cx, cy, ax, ay, dx, dy) > 0
        return orient2d(ax, ay, bx, by, dx, dy) > 0

    def insert(self, order) -> None:
        """Insert the points of `order` one at a time, skipping the three that
        `__init__` started from.

        A visibility walk from the slot made last crosses the first edge with
        the point strictly on its right, never the edge it came in by; from a
        ghost it steps back across its edge unless the point is beyond it. On
        a Delaunay triangulation it cannot cycle (Edelsbrunner 1990), so a
        walk not settled after 4 * triangles + 64 steps raises RuntimeError.
        The cavity, every triangle in conflict with the point, grows from
        there across edges; its slots and two new ones take the new fan. The
        float filters of `orient2d` and of the in-circle test are inlined; the
        exact paths and the tie rule run only where a filter cannot decide.
        """
        pts, tri, nbr, mark, n = self.pts, self.tri, self.nbr, self.mark, self.n
        fan = [0] * n + [-1]  # the new triangle that each rim vertex leads
        t, first = self.last, self.first
        for pi in order:
            if pi in first:
                continue
            px, py = pts[pi]
            came = -1  # the vertex the entry edge ends at, in the last triangle
            for _ in range(4 * len(tri) + 64):
                a, b, c = tri[t]
                if c == n:
                    if orient2d(*pts[a], *pts[b], px, py) > 0:
                        break
                    t, came = nbr[t][0], -1
                    continue
                for k, u, v in ((0, a, b), (1, b, c), (2, c, a)):
                    if u == came:
                        continue
                    (ux, uy), (vx, vy) = pts[u], pts[v]
                    detleft = (ux - px) * (vy - py)
                    detright = (uy - py) * (vx - px)
                    det = detleft - detright
                    detsum = abs(detleft) + abs(detright)
                    if (det >= 0 if detsum >= _FILTER_FLOOR and abs(det) >= _ORIENT_BOUND * detsum
                            else _orient_exact(ux, uy, vx, vy, px, py) >= 0):
                        continue
                    t, came = nbr[t][k], v
                    break
                else:
                    break
            else:
                steps = 4 * len(tri) + 64
                raise RuntimeError(f"point location walk did not settle in {steps} steps")
            mark[t] = pi
            cavity = [t]
            edges: list[tuple[int, int, int]] = []  # the rim: (u, v, slot outside)
            for t in cavity:
                corners = tri[t]
                for k, o in enumerate(nbr[t]):
                    if mark[o] == pi:
                        continue
                    a, b, c = tri[o]
                    if c == n:  # a ghost: the point beyond its edge or on its open segment
                        (ax, ay), (bx, by) = pts[a], pts[b]
                        side = orient2d(ax, ay, bx, by, px, py)
                        hit = side > 0 or side == 0 and (ax < px < bx or bx < px < ax
                                                         or ay < py < by or by < py < ay)
                    else:
                        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
                        adx, ady, bdx, bdy = ax - px, ay - py, bx - px, by - py
                        cdx, cdy = cx - px, cy - py
                        bdxcdy, cdxbdy, cdxady = bdx * cdy, cdx * bdy, cdx * ady
                        adxcdy, adxbdy, bdxady = adx * cdy, adx * bdy, bdx * ady
                        alift, blift = adx * adx + ady * ady, bdx * bdx + bdy * bdy
                        clift = cdx * cdx + cdy * cdy
                        det = (alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy)
                               + clift * (adxbdy - bdxady))
                        permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                                     + (abs(cdxady) + abs(adxcdy)) * blift
                                     + (abs(adxbdy) + abs(bdxady)) * clift)
                        hit = (det > 0 if permanent >= _FILTER_FLOOR
                               and abs(det) > _INCIRCLE_BOUND * permanent
                               else self._conflict_tie(o, pi))
                    if hit:
                        mark[o] = pi
                        cavity.append(o)
                    else:
                        edges.append((corners[k], corners[k - 2], o))
            # a cavity of k triangles has a rim of k + 2 edges
            cavity += (len(tri), len(tri) + 1)
            tri += ((), ())
            nbr += ((), ())
            mark += (pi, pi)
            for t, (u, v, o) in zip(cavity, edges):
                tri[t] = (u, v, pi)
                nbr[t] = [o, 0, 0]
                nbr[o][tri[o].index(v)] = t
                fan[u] = t
            for u, v, _ in edges:
                nbr[fan[u]][1] = fan[v]
                nbr[fan[v]][2] = fan[u]
            g = fan[n]
            if g >= 0:
                # n is on the rim: turn (n, y, pi) and (x, n, pi) to put n last
                h = nbr[g][2]
                (_, y, _), (x, _, _), ng, nh = tri[g], tri[h], nbr[g], nbr[h]
                tri[g], nbr[g] = (y, pi, n), [ng[1], ng[2], ng[0]]
                tri[h], nbr[h] = (pi, x, n), [nh[2], nh[0], nh[1]]
                fan[n] = -1
        self.last = t


def delaunay(points) -> TriangleMesh:
    """Delaunay triangulation of a planar cloud.

    The vertices are the rows of `points` as given and the triangles name
    them; each distinct point is triangulated once, at its first row, so a
    repeated row is in no triangle (a DuplicatePointsWarning counts them).
    Triangles come out ccw, rotated so the smallest vertex index leads,
    sorted lexicographically; exact co-circular ties follow index rank, so
    the result depends on the indexed points alone. Raises on fewer than 3
    distinct points or a fully collinear cloud.
    """
    pts = as_cloud(points, dim=2)
    _, first = np.unique(pts, axis=0, return_index=True)
    keep = np.sort(first)
    if len(keep) < len(pts):
        warnings.warn(
            f"{len(pts) - len(keep)} of {len(pts)} points were exact duplicates, merged "
            "before triangulation", DuplicatePointsWarning, stacklevel=2,
        )
    if len(keep) < 3:
        raise ValueError(f"need at least 3 distinct points, got {len(keep)}")
    distinct = pts[keep]
    tri = _Triangulator(distinct)
    tri.insert(_brio_order(distinct).tolist())
    tris = np.array(tri.tri, dtype=np.int64)
    tris = keep[tris[tris[:, 2] < len(keep)]]
    tris = np.take_along_axis(tris, (tris.argmin(axis=1)[:, None] + np.arange(3)) % 3, axis=1)
    return TriangleMesh(pts, tris[np.lexsort(tris.T[::-1])])


def prune_long_faces(mesh: TriangleMesh, h: float) -> TriangleMesh:
    """Drop every face whose longest edge exceeds h; vertices are kept. A vertex
    coordinate past `geometry._COORD_BOUND` is refused: edge lengths overflow."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive, got {h}")
    _check_coord_bound(mesh.vertices, "mesh vertex")
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
# accepted: `delaunay` takes 18 to 30 us a point in its BRIO order (2**18
# uniform points in 7.9 s), so a mesh at the limit triangulates in about
# eight seconds where a target edge far too small would take hours
_MESH_VERTICES = 2**18
# dart throwing draws at most this many rounds of this many candidates, at
# most this many rounds at once, and stops after this many rounds in a row
# that land no dart
_DART_ROUNDS, _DART_BATCH, _DART_ROUNDS_AT_ONCE, _DART_MISSES = 400, 512, 8, 4


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


def _clashes(pts, rad, q, qrad, lo, hi):
    """(row of q, row of pts) of every pair closer than half the sum of
    their radii, per block of `_Grid.blocks`.

    Only the points of the grid cells around a query are scored: the cell
    is at least the largest such distance, so a point outside them passes
    anyway. It is also at least the side of about 16 cells per point of
    `pts`, so a tiny radius does not make the grid outgrow the points, while
    at ordinary radii the reach, not this floor, sets the cell; a larger
    cell only adds pairs that are too far apart to clash. The threshold is
    the `0.5 * (rad + rp)` of a test against all points, and the distance
    has the bits of the per-row `np.linalg.norm(pts - p, axis=1)`, which
    adds the two squares once: sqrt(dx * dx + dy * dy).
    """
    reach = 0.5 * (float(rad.max()) + float(qrad.max()))
    cell = max(reach * (1.0 + 1e-6), _one_per_cell(hi - lo, 16 * len(pts)))
    grid = _Grid(lo, hi, cell, pts, pts)
    (px, py), (qx, qy) = pts.T, q.T
    for span, cnt, pos in grid.blocks(q, ring=1):
        rows = np.repeat(np.arange(span.start, span.stop), cnt)
        nbr = grid.items[pos]
        dx, dy = px[nbr] - qx[rows], py[nbr] - qy[rows]
        d = np.sqrt(dx * dx + dy * dy)
        bad = ~(d >= 0.5 * (rad[nbr] + qrad[rows]))
        yield rows[bad], nbr[bad]


def _throw_darts(acc, arad, cand, crad, lo, hi) -> np.ndarray:
    """Rows of `cand` accepted in order by Poisson-disk dart throwing.

    A candidate p of radius rp is accepted iff every point accepted so far,
    earlier candidates included, lies at least 0.5 * (its radius + rp) away.
    `_clashes` scores the candidates against `acc`, then the candidates that
    pass against each other; one pass in order then takes each of those
    whose list of earlier clashing candidates holds none taken.
    """
    live = np.ones(len(cand), dtype=bool)
    for rows, _ in _clashes(acc, arad, cand, crad, lo, hi):
        live[rows] = False
    live = np.flatnonzero(live)
    earlier: list[list[int]] = [[] for _ in live]
    if len(live) > 1:
        pts, rad = cand[live], crad[live]
        for rows, nbr in _clashes(pts, rad, pts, rad, lo, hi):
            before = nbr < rows
            for i, j in zip(rows[before].tolist(), nbr[before].tolist()):
                earlier[i].append(j)
    taken = bytearray(len(live))
    for i, js in enumerate(earlier):
        taken[i] = not any(taken[j] for j in js)
    return live[np.frombuffer(taken, dtype=bool)]


def _field_values(lambda_inv_field, p: np.ndarray) -> np.ndarray:
    """The field at the rows of p, checked: one positive finite value each."""
    u = np.asarray(lambda_inv_field(p), dtype=np.float64).ravel()
    if u.shape != (len(p),) or not (np.isfinite(u).all() and (u > 0).all()):
        raise ValueError("lambda_inv_field must return one positive finite value per point")
    return u


def generate_param_mesh(
    domain: Domain,
    target_edge: float = 0.05,
    seed: int = 0,
    lambda_inv_field=None,
) -> TriangleMesh:
    """Mesh the parameter domain with near-target edge lengths.

    Poisson-disk dart throwing at spacing 0.75 * target_edge. A field, a
    callable (n, 2) -> (n,) of positive inverse factors, scales the spacing
    at p by m / sqrt(lambda_inv_field(p)), m the median of its square root
    over 256 probe points, so it shrinks where the field is large. Points
    are the boundary ring plus accepted darts; faces come from Delaunay,
    keeping those whose centroid lies in the domain.

    Darts come in rounds of 512 uniform candidates, until 4 rounds in a row
    land none or 400 rounds were drawn. `_throw_darts` takes the rounds in
    batches of 1, 2, 4, then 8 rounds, cut after a miss to the rounds left
    before the stop may come. Each round is drawn and its radii asked of
    the field in turn, as in a loop of one round at a time; the stop is
    applied to the batch's per-round counts and the rounds drawn past it
    are dropped, so the mesh is the one that loop makes. A target edge so small
    that the ring plus every dart that could be accepted would pass
    `_MESH_VERTICES` vertices is rejected with a ValueError at once.
    """
    if not (np.isfinite(target_edge) and target_edge > 0):
        raise ValueError(f"target_edge must be positive, got {target_edge}")
    lo, hi = domain.bbox
    if target_edge > float(min(hi - lo)):
        raise ValueError(
            f"target_edge {target_edge} exceeds the domain extent {tuple(hi - lo)}"
        )
    rng = np.random.default_rng(seed)

    spacing = 0.75 * target_edge
    if lambda_inv_field is not None:
        probe = domain.sample_area(256, rng)
        spacing *= float(np.median(np.sqrt(_field_values(lambda_inv_field, probe))))

    def radius_at(p: np.ndarray) -> np.ndarray:
        if lambda_inv_field is None:
            return np.full(len(p), spacing)
        return spacing / np.sqrt(_field_values(lambda_inv_field, p))

    ring = _boundary_ring(domain, radius_at, _DART_ROUNDS * _DART_BATCH)
    accepted = [ring]
    radii = [radius_at(ring)]
    rounds = grow = misses = 0
    while rounds < _DART_ROUNDS and misses < _DART_MISSES:
        grow = min(2 * grow or 1, _DART_ROUNDS_AT_ONCE)
        # after a miss the batch ends where the stop may first come
        batch = min(grow, _DART_MISSES - misses if misses else grow, _DART_ROUNDS - rounds)
        cand, crad = [], []
        for _ in range(batch):
            cand.append(domain.sample_area(_DART_BATCH, rng))
            crad.append(radius_at(cand[-1]))
        cand, crad = np.vstack(cand), np.concatenate(crad)
        took = _throw_darts(np.vstack(accepted), np.concatenate(radii), cand, crad, lo, hi)
        used = 0
        for landed in np.bincount(took // _DART_BATCH, minlength=batch).tolist():
            used += 1
            misses = 0 if landed else misses + 1
            if misses == _DART_MISSES:
                break
        rounds += used
        took = took[took < used * _DART_BATCH]
        accepted.append(cand[took])
        radii.append(crad[took])
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
    that mapped point's original point exactly. A mapped point or query of
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
        self.mesh = delaunay(mapped)
        self.original = self._per_point(original)
        # (start, direction, squared length, triangle) of the hull edges,
        # built on the first snap
        self._hull: tuple[np.ndarray, ...] | None = None
        tri_pts = self.mesh.vertices[self.mesh.triangles]
        self._lo = self.mesh.vertices.min(axis=0)
        self._hi = self.mesh.vertices.max(axis=0)
        cell = _one_per_cell(self._hi - self._lo, len(self.mesh.triangles))
        self._grid = _Grid(self._lo, self._hi, cell, tri_pts.min(axis=1), tri_pts.max(axis=1))

    def _per_point(self, values) -> np.ndarray:
        """Values given per mapped point, as one row per point."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if len(values) != len(self.mesh.vertices):
            raise ValueError(f"mapped has {len(self.mesh.vertices)} points, values {len(values)}")
        return values

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
            num = np.vecdot(qb - a, e)
            # an edge whose squared length underflows to 0 snaps to its start
            t = np.clip(np.divide(num, ee, out=np.zeros_like(num), where=ee > 0), 0.0, 1.0)
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
    target_edge: float = 0.05,
    seed: int = 0,
    lambda_inv_field=None,
    lambda_inv_values=None,
) -> ReconstructionResult:
    """Rebuild a surface mesh from a parametrized cloud.

    Generates a parameter-domain mesh, pulls its vertices back through the
    mapped cloud (barycentric inverse interpolation), and reindexes faces
    over the vertices that landed inside the triangulated region.

    The mesh is sized by `generate_param_mesh`'s field: a callable
    lambda_inv_field, or per-point inverse factors lambda_inv_values
    interpolated over the lift's triangulation (nearest point outside it),
    not both; without either it is uniform.
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

    param = generate_param_mesh(domain, target_edge, seed, lambda_inv_field)
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
