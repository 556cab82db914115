"""Agreement of the fast kernels with the plain formulas they replace.

Each reference below is the straightforward expression: fresh temporaries,
the (n, m, d) difference tensor, dense n x n energies, a second forward pass
in backward, a test of every triangle per query for the inverse
interpolator, a test against every accepted point for dart throwing, a
spacing query per boundary point, Delaunay insertion in index order, a
slanted ray cast with rotated retries for domain membership, a dict of
tuple keys for the edges of a mesh and the boundary walk over it.
Most kernels must reproduce them exactly (np.array_equal), not just closely,
because training runs thousands of steps on them and the golden outputs pin
every bit. The two row-tiled energies, `hand_with_grad` and `leg_with_grad`,
sum in another order by design; they must agree with the dense formulas to
1e-12 of each output's largest entry, at any tile size.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pcparam.boltzmann import boltzmann, boltzmann_gradient
from pcparam.domains import (
    PRESETS,
    Arc,
    Domain,
    Line,
    _endpoints,
    domain_from_json,
    preset_domain,
)
from pcparam import geometry
from pcparam.geometry import (
    _edge_table,
    hausdorff_exact,
    modified_hausdorff_exact,
    pairwise_distances,
    sampling_gap_estimate,
)
from pcparam.losses import (
    audit_theorem_bound,
    hand_with_grad,
    leg_with_grad,
)
from pcparam import meshing
from pcparam.meshing import (
    DuplicatePointsWarning,
    InverseInterpolator,
    _boundary_ring,
    _in_triangle,
    _throw_darts,
    _Triangulator,
    _walk,
    boundary_edges,
    delaunay,
    generate_param_mesh,
    incircle,
    orient2d,
    prune_long_faces,
    reconstruct_surface,
)
from pcparam import _halves
from pcparam.neural import NetworkSpec, _sigmoid, backward, forward, init_params, softplus

# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------


def ref_sq_dists(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return (diff * diff).sum(axis=2)


def ref_row_min_sq(a, b):
    """Row minima of ref_sq_dists(a, b), a few rows at a time."""
    rows = max(1, (1 << 20) // (len(b) * a.shape[1]))
    return np.concatenate([ref_sq_dists(a[lo : lo + rows], b).min(axis=1)
                           for lo in range(0, len(a), rows)])


def ref_rows_grad(matrix, alpha):
    t = alpha * matrix
    w = np.exp(t - t.max(axis=1, keepdims=True))
    s = w / w.sum(axis=1, keepdims=True)
    vals = np.clip((matrix * s).sum(axis=1), matrix.min(axis=1), matrix.max(axis=1))
    return vals, s * (1.0 + alpha * (matrix - vals[:, None]))


def ref_hand_with_grad(y, w, alpha):
    """The value and the gradient in y."""
    d = np.sqrt(ref_sq_dists(y, w))
    r, jr = ref_rows_grad(d, -alpha)
    term1 = boltzmann(r, alpha)
    g1 = boltzmann_gradient(r, alpha)[:, None] * jr
    c, jc = ref_rows_grad(d.T, -alpha)
    term2 = boltzmann(c, alpha)
    g2 = (boltzmann_gradient(c, alpha)[:, None] * jc).T
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(d > 0.0, (g1 + g2) / d, 0.0)
    gy = coef.sum(axis=1)[:, None] * y - coef @ w
    return term1 + term2, gy


def ref_leg_with_grad(x, y, lam, sigma):
    n = len(x)
    s2 = sigma * sigma
    gx = np.exp(-ref_sq_dists(x, x) / s2)
    sqy = ref_sq_dists(y, y)
    hy = np.exp(-sqy / (s2 * lam * lam))
    e = gx - hy
    value = float((e * e).sum() / (n * n))
    k = 4.0 * e * hy / (n * n * s2 * lam * lam)
    c = k + k.T
    g_mapped = c.sum(axis=1)[:, None] * y - c @ y
    g_lambda = -4.0 * e * hy * sqy / (n * n * s2 * lam**3)
    return value, g_mapped, g_lambda


def ref_leg_inv_grad(x, y, v, sigma):
    """ref_leg_with_grad on lambda_ij = 1 / (v_i + v_j), chained back to v."""
    lam = 1.0 / (v[:, None] + v[None, :])
    value, g_mapped, g_lambda = ref_leg_with_grad(x, y, lam, sigma)
    t = g_lambda * lam * lam
    return value, g_mapped, -(t.sum(axis=1) + t.sum(axis=0))


def ref_backward(spec, params, inputs, ct):
    """Reverse pass over the pieces of the rows that `backward` runs, as
    `_halves.split` cuts them, the weight gradient summed in order."""
    width = max(fo for _, fo in spec.layer_dims)
    parts = [ref_backward_rows(spec, params, inputs[lo:hi], ct[lo:hi])
             for lo, hi in _halves.split(lambda lo, hi: (lo, hi), len(inputs), width)]
    grad = parts[0]
    for g in parts[1:]:
        grad = grad + g
    return grad


def ref_backward_rows(spec, params, inputs, ct):
    """Reverse pass that recomputes the forward activations itself."""
    layers, off = [], 0
    for fi, fo in spec.layer_dims:
        layers.append((params[off : off + fi * fo].reshape(fi, fo),
                       params[off + fi * fo : off + fi * fo + fo]))
        off += fi * fo + fo
    acts, pre, a = [inputs], [], inputs
    for li, (w, b) in enumerate(layers):
        z = a @ w + b
        pre.append(z)
        if li < len(layers) - 1:
            a = np.sin(spec.omega * z)
        elif spec.output_activation == "softplus":
            a = softplus(z)
        else:
            a = z
        acts.append(a)
    grad = np.zeros_like(params)
    offsets = np.cumsum([0] + [fi * fo + fo for fi, fo in spec.layer_dims])
    dz = ct * _sigmoid(pre[-1]) if spec.output_activation == "softplus" else ct
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        fi, fo = spec.layer_dims[li]
        o = offsets[li]
        grad[o : o + fi * fo] = (acts[li].T @ dz).ravel()
        grad[o + fi * fo : o + fi * fo + fo] = dz.sum(axis=0)
        if li > 0:
            dz = (dz @ w.T) * (spec.omega * np.cos(spec.omega * pre[li - 1]))
    return grad


class RefInterpolator:
    """The per-query pullback: exact-hit lookup, the lowest-id triangle that
    contains the query, scalar snap, 2x2 solve."""

    snap_tolerance = 1e-9

    def __init__(self, interp):
        self.mesh = interp.mesh
        self.original = interp.original
        self.pts = self.mesh.vertices.tolist()
        self.tris = self.mesh.triangles.tolist()
        corners = self.mesh.vertices[self.mesh.triangles]
        self.box = corners.min(axis=1), corners.max(axis=1)
        self.edge = {}
        for tid, (a, b, c) in enumerate(self.tris):
            for u, v in ((a, b), (b, c), (c, a)):
                self.edge[(u, v)] = tid
        self.exact = {(float(x), float(y)): i for i, (x, y) in enumerate(self.mesh.vertices)}
        self.hull = [
            (loop[i], loop[(i + 1) % len(loop)])
            for loop in ref_boundary_edges(self.mesh)
            for i in range(len(loop))
        ]

    def snap(self, q):
        best = None
        for u, v in self.hull:
            a, b = self.mesh.vertices[u], self.mesh.vertices[v]
            e = b - a
            t = float(np.clip(((q - a) @ e) / (e @ e), 0.0, 1.0))
            proj = a + t * e
            d = float(np.linalg.norm(q - proj))
            if best is None or d < best[0]:
                best = (d, u, v, proj)
        if best is None or best[0] > self.snap_tolerance:
            return None
        _, u, v, proj = best
        tid = self.edge.get((u, v), self.edge.get((v, u)))
        return None if tid is None else (tid, proj)

    def locate(self, q):
        """Every triangle in id order, skipping those whose box misses q."""
        qx, qy = float(q[0]), float(q[1])
        lo, hi = self.box
        for tid in np.flatnonzero((lo <= q).all(axis=1) & (q <= hi).all(axis=1)).tolist():
            (ax, ay), (bx, by), (cx, cy) = (self.pts[v] for v in self.tris[tid])
            if (
                orient2d(ax, ay, bx, by, qx, qy) >= 0
                and orient2d(bx, by, cx, cy, qx, qy) >= 0
                and orient2d(cx, cy, ax, ay, qx, qy) >= 0
            ):
                return tid
        return None

    def __call__(self, queries):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        out = np.full((len(queries), self.original.shape[1]), np.nan)
        ok = np.zeros(len(queries), dtype=bool)
        for qi, q in enumerate(queries):
            hit = self.exact.get((float(q[0]), float(q[1])))
            if hit is not None:
                out[qi] = self.original[hit]
                ok[qi] = True
                continue
            tid = self.locate(q)
            if tid is None:
                snapped = self.snap(q)
                if snapped is None:
                    continue
                tid, q = snapped
            tri = self.mesh.triangles[tid]
            a, b, c = self.mesh.vertices[tri]
            beta, gamma = np.linalg.solve(np.array([b - a, c - a]).T, q - a)
            out[qi] = np.array([1.0 - beta - gamma, beta, gamma]) @ self.original[tri]
            ok[qi] = True
        return out, ok


def ref_edge_incidence(mesh):
    """Map each undirected edge (i, j), i < j, to the ids of its triangles,
    in the order the triangles reach the edges."""
    inc = {}
    for tid, (i, j, k) in enumerate(np.asarray(mesh.triangles, dtype=np.int64).tolist()):
        for a, b in ((i, j), (j, k), (k, i)):
            inc.setdefault((a, b) if a < b else (b, a), []).append(tid)
    return inc


def ref_boundary_edges(mesh):
    """Boundary loops walked over a dict of sorted neighbour lists and a set
    of unused tuple-keyed edges."""
    adj = {}
    for (i, j), tids in ref_edge_incidence(mesh).items():
        if len(tids) == 1:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
    for v in adj:
        adj[v].sort()
    unused = {(i, j) for i, nbrs in adj.items() for j in nbrs if i < j}

    def take(v):
        for j in adj[v]:
            key = (v, j) if v < j else (j, v)
            if key in unused:
                unused.discard(key)
                return j
        return None

    loops = []
    for start in sorted(adj):
        while (cur := take(start)) is not None:
            loop = [start]
            while cur != start:
                loop.append(cur)
                cur = take(cur)
                assert cur is not None, "boundary walk dead-ends"
            loops.append(loop)
    return loops


def ref_loop_edges(mesh):
    """(u, v, face) of every loop edge of ref_boundary_edges in walk order."""
    inc = ref_edge_incidence(mesh)
    return np.array([(u, v, inc[(u, v) if u < v else (v, u)][0])
                     for loop in ref_boundary_edges(mesh)
                     for u, v in zip(loop, loop[1:] + loop[:1])], dtype=np.int64)


class RefTriangulator:
    """Bowyer-Watson inserting in index order, over the numpy point array.

    Each point goes in after every lower index, so it always ranks highest
    in its in-circle tests, and an exact tie counts it as outside. This is
    the Delaunay triangulation that the index-rank tie rule reproduces for
    any insertion order.
    """

    def __init__(self, points):
        n = len(points)
        lo, hi = points.min(axis=0), points.max(axis=0)
        center = (lo + hi) / 2.0
        m = 1e10 * float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
        supers = np.array([
            [center[0] - 2.0 * m, center[1] - m],
            [center[0] + 2.0 * m, center[1] - m],
            [center[0], center[1] + 2.0 * m],
        ])
        self.n = n
        self.pts = np.vstack([points, supers])
        self.tris = {0: (n, n + 1, n + 2)}
        self.edge = {(n, n + 1): 0, (n + 1, n + 2): 0, (n + 2, n): 0}
        self.next_tid = 1
        self.last_tid = 0

    def insert(self, pi):
        px, py = self.pts[pi]
        start = self.last_tid if self.last_tid in self.tris else next(iter(self.tris))
        seed = _walk(self.pts, self.tris, self.edge, start, px, py)
        bad, order, stack = {seed}, [seed], [seed]
        while stack:
            a, b, c = self.tris[stack.pop()]
            for u, v in ((b, a), (c, b), (a, c)):
                nt = self.edge.get((u, v))
                if nt is None or nt in bad:
                    continue
                pa, pb, pc = (self.pts[k] for k in self.tris[nt])
                if incircle(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], px, py) > 0:
                    bad.add(nt)
                    order.append(nt)
                    stack.append(nt)
        boundary = []
        for t in order:
            a, b, c = self.tris[t]
            for u, v in ((a, b), (b, c), (c, a)):
                if self.edge.get((v, u)) not in bad:
                    boundary.append((u, v))
        for t in order:
            a, b, c = self.tris.pop(t)
            for u, v in ((a, b), (b, c), (c, a)):
                del self.edge[(u, v)]
        for u, v in boundary:
            tid = self.next_tid
            self.next_tid += 1
            self.tris[tid] = (u, v, pi)
            self.edge[(u, v)] = self.edge[(v, pi)] = self.edge[(pi, u)] = tid
            self.last_tid = tid

    def run(self):
        for pi in range(self.n):
            self.insert(pi)
        return [t for t in self.tris.values() if max(t) < self.n]


def canonical_triangles(tris):
    """Each ccw triangle rotated to lead with its smallest index, all sorted."""
    canon = [t[t.index(min(t)):] + t[:t.index(min(t))] for t in map(tuple, tris)]
    return np.array(sorted(canon), dtype=np.int64).reshape(-1, 3)


def ref_delaunay(points):
    pts = np.asarray(points, dtype=np.float64)
    _, first = np.unique(pts, axis=0, return_index=True)
    return canonical_triangles(RefTriangulator(pts[np.sort(first)]).run())


def ref_boundary_ring(domain, step_at):
    """The boundary march that asks for the spacing one point at a time."""
    ring = []
    for loop in domain.loops:
        dense = np.vstack([seg.polyline(step_at(seg.point_at(0.0)) / 8.0) for seg in loop])
        seg_len = np.linalg.norm(np.diff(np.vstack([dense, dense[:1]]), axis=0), axis=1)
        placed = [dense[0]]
        acc = 0.0
        for i in range(1, len(dense)):
            acc += seg_len[i - 1]
            if acc >= step_at(dense[i]):
                placed.append(dense[i])
                acc = 0.0
        if len(placed) >= 2 and np.linalg.norm(placed[-1] - placed[0]) < 0.5 * step_at(placed[0]):
            placed.pop()
        ring.append(np.array(placed))
    return np.vstack(ring)


def ref_generate_param_mesh(domain, mode, target_edge, seed, lambda_inv_field=None):
    """Dart throwing that tests each candidate against every accepted point."""
    rng = np.random.default_rng(seed)
    if mode == "uniform":
        def radius_at(p):
            return np.full(len(np.atleast_2d(p)), 0.75 * target_edge)
    else:
        probe = domain.sample_area(256, rng)
        u = np.asarray(lambda_inv_field(probe), dtype=np.float64).ravel()
        scale = 0.75 * target_edge * float(np.median(np.sqrt(u)))

        def radius_at(p):
            return scale / np.sqrt(np.asarray(lambda_inv_field(np.atleast_2d(p))).ravel())

    ring = _boundary_ring(domain, radius_at)
    acc, arad = ring, radius_at(ring)
    misses = 0
    for _ in range(400):
        cand = domain.sample_area(512, rng)
        crad = radius_at(cand)
        took = 0
        for p, rp in zip(cand, crad):
            d = np.linalg.norm(acc - p, axis=1)
            if (d >= 0.5 * (arad + rp)).all():
                acc = np.vstack([acc, p[None]])
                arad = np.append(arad, rp)
                took += 1
        misses = misses + 1 if took == 0 else 0
        if misses >= 4:
            break
    mesh = delaunay(acc)
    keep = domain.contains_many(mesh.vertices[mesh.triangles].mean(axis=1))
    return mesh.vertices, mesh.triangles[keep]


_RAY_EPS_S, _RAY_EPS_U, _RAY_EPS_ANG = 1e-12, 1e-11, 1e-10


def ref_ray_crossings(seg, pts, d):
    """(crossing counts, grazing mask) of the rays pts + s d, s > 0, with one
    segment. A ray that passes within a tolerance of an end point, touches
    an arc or runs along a line grazes it."""
    if isinstance(seg, Line):
        a, e = seg.p0, seg.p1 - seg.p0
        rhs = a - pts
        det = e[0] * d[1] - e[1] * d[0]
        graze = np.zeros(len(pts), dtype=bool)
        if abs(det) < 1e-14:
            graze |= np.abs(d[0] * rhs[:, 1] - d[1] * rhs[:, 0]) < 1e-9
            return np.zeros(len(pts), dtype=np.int64), graze
        s = (e[0] * rhs[:, 1] - e[1] * rhs[:, 0]) / det
        u = (d[0] * rhs[:, 1] - d[1] * rhs[:, 0]) / det
        near_end = (np.abs(u) <= _RAY_EPS_U) | (np.abs(u - 1.0) <= _RAY_EPS_U)
        graze |= (s > -_RAY_EPS_S) & near_end
        graze |= (np.abs(s) <= _RAY_EPS_S) & (u > -_RAY_EPS_U) & (u < 1.0 + _RAY_EPS_U)
        cross = (s > _RAY_EPS_S) & (u > _RAY_EPS_U) & (u < 1.0 - _RAY_EPS_U)
        return cross.astype(np.int64), graze
    q = pts - seg.c
    b = q @ d
    disc = b * b - ((q * q).sum(axis=1) - seg.radius * seg.radius)
    graze = np.abs(disc) <= 1e-14 * max(seg.radius * seg.radius, 1.0)
    count = np.zeros(len(pts), dtype=np.int64)
    ok = disc > 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    for root in (-b - sq, -b + sq):
        hit = ok & (root > _RAY_EPS_S)
        graze |= ok & (np.abs(root) <= _RAY_EPS_S)
        if seg.full_circle:
            count += hit.astype(np.int64)
            continue
        rel = seg._rel_angle(np.arctan2(q[:, 1] + root * d[1], q[:, 0] + root * d[0]))
        span = abs(seg.sweep)
        graze |= hit & ((rel <= _RAY_EPS_ANG) | (np.abs(rel - span) <= _RAY_EPS_ANG))
        count += (hit & (rel > _RAY_EPS_ANG) & (rel < span - _RAY_EPS_ANG)).astype(np.int64)
    return count, graze


def ref_contains_many(domain, pts):
    """Boundary points first, then the even-odd count along a slanted ray;
    a point whose ray grazes a segment is cast again in a rotated direction."""
    inside = domain.boundary_distance(pts) <= 1e-12
    pending = np.flatnonzero(~inside)
    segs = [seg for loop in domain.loops for seg in loop]
    for attempt in range(64):
        ang = 0.5412345678901 + attempt * 2.399963229728653
        d = np.array([np.cos(ang), np.sin(ang)])
        sub = pts[pending]
        total = np.zeros(len(sub), dtype=np.int64)
        graze = np.zeros(len(sub), dtype=bool)
        for seg in segs:
            cnt, gz = ref_ray_crossings(seg, sub, d)
            total += cnt
            graze |= gz
        inside[pending[~graze]] = total[~graze] % 2 == 1
        pending = pending[graze]
        if pending.size == 0:
            return inside
    raise AssertionError(f"reference ray cast did not settle at {pts[pending[0]]}")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _cloud(rng, n, dim, scale=1.0):
    # per-point scales spread over orders of magnitude, so rounding differs
    # between summation orders and a reordered kernel would show
    return rng.normal(size=(n, dim)) * np.exp(rng.normal(size=(n, 1))) * scale


def _with_coincident_pair(y, w):
    w = w.copy()
    w[3] = y[5]
    return w


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n, m", [(1000, 200), (1, 300), (300, 1), (3, 70000)])
def test_sq_dists_matches_difference_tensor(dim, n, m):
    rng = np.random.default_rng(n + m + dim)
    a = _cloud(rng, n, dim)
    b = _cloud(rng, m, dim)
    assert np.array_equal(pairwise_distances(a, b), np.sqrt(ref_sq_dists(a, b)))


@pytest.mark.parametrize("dim", [2, 3])
def test_sq_dists_with_duplicate_points(dim):
    rng = np.random.default_rng(4)
    a = _cloud(rng, 50, dim)
    a = np.vstack([a, a[:20], a[:1], a[:1]])
    d = pairwise_distances(a, a)
    assert np.array_equal(d, np.sqrt(ref_sq_dists(a, a)))
    assert d[0, 50] == 0.0 and d[70, 71] == 0.0
    assert np.array_equal(np.diag(d), np.zeros(len(a)))


def _assert_close(got, want, rel=1e-12):
    """|got - want| within rel times the largest |want| entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("alpha", [2.0, 20.0, 80.0])
def test_hand_with_grad_matches_reference(alpha):
    rng = np.random.default_rng(6)
    y = _cloud(rng, 300, 2, 0.3)
    w = _with_coincident_pair(y, _cloud(rng, 200, 2, 0.3))
    for got, want in zip(hand_with_grad(y, w, alpha),
                         ref_hand_with_grad(y, w, alpha), strict=True):
        _assert_close(got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_leg_with_grad_matches_reference(dim):
    rng = np.random.default_rng(7 + dim)
    x = _cloud(rng, 300, dim, 0.5)
    y = _cloud(rng, 300, 2, 0.5)
    x[9] = x[4]
    y[9] = y[4]  # a coincident pair in both clouds
    v = rng.uniform(0.2, 2.0, 300)
    for got, want in zip(leg_with_grad(x, y, v, 0.3),
                         ref_leg_inv_grad(x, y, v, 0.3)):
        _assert_close(got, want)


def _pieces(monkeypatch):
    """The number of pieces of each `_halves.split` call from here on."""
    counts, split = [], _halves.split

    def counted(*args, **kwargs):
        out = split(*args, **kwargs)
        counts.append(len(out))
        return out

    monkeypatch.setattr(_halves, "split", counted)
    return counts


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("alpha", [2.0, 80.0])
def test_two_half_hand_matches_reference(monkeypatch, dim, alpha):
    # enough rows of w for the one pass to run in two halves, cut at w row
    # 300, with coincident pairs in either half and on both sides of the cut
    rng = np.random.default_rng(60 + dim)
    y = _cloud(rng, 600, dim, 0.3)
    w = _cloud(rng, 601, dim, 0.3)
    w[3], w[299], w[300], w[500] = y[5], y[299], y[300], y[599]
    pieces = _pieces(monkeypatch)
    for got, want in zip(hand_with_grad(y, w, alpha),
                         ref_hand_with_grad(y, w, alpha), strict=True):
        _assert_close(got, want)
    assert pieces == [2]


@pytest.mark.parametrize("dim", [2, 3])
def test_two_half_leg_matches_reference(monkeypatch, dim):
    # enough points for the bands to run in two halves, cut where each holds
    # half the pairs j >= i, with coincident pairs in either half and across
    # the cut, in both clouds or only in the images
    n = 600
    cut = round(n * (1.0 - math.sqrt(0.5)))
    rng = np.random.default_rng(62 + dim)
    x = _cloud(rng, n, dim, 0.5)
    y = _cloud(rng, n, 2, 0.5)
    for i, j in ((2, cut - 1), (cut - 2, cut), (cut + 1, n - 1)):
        x[j], y[j] = x[i], y[i]
    y[cut - 3] = y[cut + 3]
    v = rng.uniform(0.2, 2.0, n)
    pieces = _pieces(monkeypatch)
    for got, want in zip(leg_with_grad(x, y, v, 0.3),
                         ref_leg_inv_grad(x, y, v, 0.3), strict=True):
        _assert_close(got, want)
    assert pieces == [2]


# float32 tiles against the float64 kernel: within these fractions of the
# largest gradient entry and of the value
F32_GRAD, F32_VALUE = 5e-5, 1e-6


def _assert_float32_close(got, want, grad_rel=F32_GRAD):
    """float32-tile results (value, gradients...) against float64 ones; the
    float32 tiles must have run, so the bits differ."""
    assert abs(got[0] - want[0]) <= F32_VALUE * abs(want[0])
    for g, w in zip(got[1:], want[1:], strict=True):
        _assert_close(g, w, grad_rel)
    assert not all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))


def _two_half_hand_clouds(dim, shift=0.0):
    # the clouds of test_two_half_hand_matches_reference: the rows of w cut
    # at 300, with coincident pairs in either half and on both sides of the cut
    rng = np.random.default_rng(60 + dim)
    y = _cloud(rng, 600, dim, 0.3)
    w = _cloud(rng, 601, dim, 0.3)
    w[3], w[299], w[300], w[500] = y[5], y[299], y[300], y[599]
    return y, w + shift


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("alpha", [2.0, 50.0, 100.0])
def test_two_half_hand_float32_tiles_match_float64(monkeypatch, dim, alpha):
    y, w = _two_half_hand_clouds(dim)
    pieces = _pieces(monkeypatch)
    _assert_float32_close(hand_with_grad(y, w, alpha, tile_dtype=np.float32),
                          hand_with_grad(y, w, alpha))
    assert pieces == [2, 2]


@pytest.mark.parametrize("alpha", [2.0, 50.0, 100.0])
def test_far_apart_hand_float32_tiles_match_float64(alpha):
    # 1e3 apart the gradient needs a looser bound, 1e-2 of its largest
    # entry (seen: 1.7e-3, 4e-3 and 6.5e-3 at alpha 2, 50 and 100), because
    # float32 rounding grows with alpha times the gap D: a pair's
    # coefficient (1 + alpha v) / d - alpha and a point's scales 1 + alpha r
    # and alpha are about alpha D, and what is left after they cancel is
    # about 1. The float64 kernel has the same cancellation at float64's
    # epsilon (test_far_apart_hand_matches_reference). The value, a float64
    # Boltzmann average of soft-mins summed in float64, keeps its bound
    y, w = _two_half_hand_clouds(2, 1e3)
    _assert_float32_close(hand_with_grad(y, w, alpha, tile_dtype=np.float32),
                          hand_with_grad(y, w, alpha), grad_rel=1e-2)


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("sigma", [0.5, 0.1])
def test_two_half_leg_float32_tiles_match_float64(monkeypatch, sigma, shift):
    # the clouds of test_two_half_leg_matches_reference, also 1e3 off the
    # origin, which the float32 bands take centred
    n = 600
    cut = round(n * (1.0 - math.sqrt(0.5)))
    rng = np.random.default_rng(65)
    x = _cloud(rng, n, 3, 0.5) + shift
    y = _cloud(rng, n, 2, 0.5) - shift
    for i, j in ((2, cut - 1), (cut - 2, cut), (cut + 1, n - 1)):
        x[j], y[j] = x[i], y[i]
    y[cut - 3] = y[cut + 3]
    v = rng.uniform(0.2, 2.0, n)
    pieces = _pieces(monkeypatch)
    _assert_float32_close(leg_with_grad(x, y, v, sigma, tile_dtype=np.float32),
                          leg_with_grad(x, y, v, sigma))
    assert pieces == [2, 2]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_few_point_leg_matches_reference(n):
    rng = np.random.default_rng(64 + n)
    x = _cloud(rng, n, 3, 0.5)
    y = _cloud(rng, n, 2, 0.5)
    v = rng.uniform(0.2, 2.0, n)
    for got, want in zip(leg_with_grad(x, y, v, 0.3),
                         ref_leg_inv_grad(x, y, v, 0.3), strict=True):
        _assert_close(got, want)


@pytest.mark.parametrize("shift", [1e2, 1e3])
@pytest.mark.parametrize("alpha", [2.0, 100.0])
def test_far_apart_hand_matches_reference(shift, alpha):
    # alpha times the distances grows with the gap between the clouds, and
    # so does the rounding of the soft-min Jacobians formed from it
    rng = np.random.default_rng(68)
    y = _cloud(rng, 300, 2, 0.3)
    w = _cloud(rng, 200, 2, 0.3) + shift
    for got, want in zip(hand_with_grad(y, w, alpha),
                         ref_hand_with_grad(y, w, alpha), strict=True):
        _assert_close(got, want, rel=1e-10)


# tile sizes in elements: one-row tiles, tiles that do not divide the row
# count, the default, and one tile holding everything
TILES = [1, 1000, geometry._TILE_ELEMS, 1 << 22]


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("alpha", [2.0, 100.0])
def test_tiled_hand_matches_reference(monkeypatch, tile, dim, alpha):
    rng = np.random.default_rng(30 + dim)
    y = _cloud(rng, 151, dim, 0.3)
    w = _with_coincident_pair(y, _cloud(rng, 70, dim, 0.3))
    w[10] = w[11] = y[12]  # a point of y on two coincident w points
    monkeypatch.setattr(geometry, "_TILE_ELEMS", tile)
    for got, want in zip(hand_with_grad(y, w, alpha),
                         ref_hand_with_grad(y, w, alpha), strict=True):
        _assert_close(got, want)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("dim", [2, 3])
def test_tiled_leg_matches_reference(monkeypatch, tile, dim):
    rng = np.random.default_rng(40 + dim)
    x = _cloud(rng, 151, dim, 0.5)
    y = _cloud(rng, 151, 2, 0.5)
    x[20] = x[7]
    y[20] = y[7]  # a duplicate point in both clouds
    y[30] = y[31]  # images that collapse while the originals do not
    v = rng.uniform(0.2, 2.0, 151)
    monkeypatch.setattr(geometry, "_TILE_ELEMS", tile)
    for got, want in zip(leg_with_grad(x, y, v, 0.3),
                         ref_leg_inv_grad(x, y, v, 0.3)):
        _assert_close(got, want)


def test_tiled_energies_do_not_depend_on_tile_size(monkeypatch):
    rng = np.random.default_rng(50)
    x = _cloud(rng, 97, 3, 0.5)
    y = _cloud(rng, 97, 2, 0.5)
    w = _cloud(rng, 61, 2, 0.5)
    v = rng.uniform(0.2, 2.0, 97)
    runs = []
    for tile in TILES:
        monkeypatch.setattr(geometry, "_TILE_ELEMS", tile)
        runs.append(hand_with_grad(y, w, 40.0)
                    + leg_with_grad(x, y, v, 0.4))
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            _assert_close(got, want, rel=1e-13)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n, m", [(151, 70), (1, 70), (151, 1), (3, 40000)])
def test_row_tiles_match_difference_tensor(monkeypatch, tile, dim, n, m):
    # the shared tile pass of the dense distances, at every tile size: rows
    # longer than a tile (one-row tiles), tiles that do not divide n, one tile
    rng = np.random.default_rng(70 + n + dim)
    a = _cloud(rng, n, dim)
    b = _cloud(rng, m, dim)
    b[-1] = a[0]  # a coincident pair
    monkeypatch.setattr(geometry, "_TILE_ELEMS", tile)
    want = ref_sq_dists(a, b)
    assert np.array_equal(pairwise_distances(a, b), np.sqrt(want))
    assert np.array_equal(geometry._dense_row_min_sq(a, b), want.min(axis=1))
    tiles = [(t, sq.shape) for t, sq, _, _ in geometry._row_tiles(a, b, 2)]
    assert [t.start for t, _ in tiles] == [0] + [t.stop for t, _ in tiles[:-1]]
    assert tiles[-1][0].stop == n
    assert all(shape == (t.stop - t.start, m) for t, shape in tiles)
    assert max(shape[0] for _, shape in tiles) == max(1, min(n, tile // m))


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("n, rows", [(1, 1), (3, 2), (151, 151), (151, 100)])
def test_upper_row_tiles_are_the_bands_on_and_right_of_the_diagonal(monkeypatch, tile, n, rows):
    rng = np.random.default_rng(75 + n)
    b = _cloud(rng, n, 3)
    b[-1] = b[0]  # a coincident pair
    monkeypatch.setattr(geometry, "_TILE_ELEMS", tile)
    want = ref_sq_dists(b, b)
    tiles = [(t, sq.copy()) for t, sq, _, _ in geometry._row_tiles(b[:rows], b, 1, upper=True)]
    assert [t.start for t, _ in tiles] == [0] + [t.stop for t, _ in tiles[:-1]]
    assert tiles[-1][0].stop == rows
    for t, sq in tiles:
        assert np.array_equal(sq, want[t, t.start:])
        assert sq.size <= tile or len(sq) == 1


@pytest.mark.parametrize("upper", [False, True])
def test_float32_row_tiles_hold_twice_the_elements(upper):
    # the tile budget is in bytes: float64 tiles keep their sizes, float32
    # tiles hold twice the rows, and their squared distances are those of
    # the float32 difference tensor, bit for bit
    rng = np.random.default_rng(81)
    a = _cloud(rng, 512, 3)
    a[7] = a[200]  # a coincident pair
    b = a if upper else _cloud(rng, 512, 3)
    sizes = {}
    for dtype in (np.float64, np.float32):
        ta, tb = a.astype(dtype), b.astype(dtype)
        want = ref_sq_dists(ta, tb)
        sizes[dtype] = []
        for t, sq, scratch, (spare,) in geometry._row_tiles(ta, tb, 1, 2, upper=upper):
            assert sq.dtype == scratch.dtype == spare.dtype == dtype
            assert np.array_equal(sq, want[t, t.start if upper else 0:])
            sizes[dtype].append(len(sq))
    assert sizes[np.float64][0] == 2 * geometry._TILE_ELEMS // len(b)
    assert sizes[np.float32][0] == 2 * sizes[np.float64][0]


def test_row_tiles_of_no_rows_yield_nothing():
    b = np.random.default_rng(80).normal(size=(20, 2))
    assert list(geometry._row_tiles(np.empty((0, 2)), b, 3)) == []


def test_chunked_extrema_match_full_matrix():
    rng = np.random.default_rng(8)
    a = _cloud(rng, 15000, 2)  # more rows than one block of 2^22 distances
    b = _cloud(rng, 300, 2)
    d = np.sqrt(ref_sq_dists(a, b))
    t_ab, t_ba = float(d.min(axis=1).max()), float(d.min(axis=0).max())
    assert hausdorff_exact(a, b) == max(t_ab, t_ba)
    assert modified_hausdorff_exact(a, b) == t_ab + t_ba
    assert sampling_gap_estimate(b, a) == t_ab


# ---------------------------------------------------------------------------
# grid-indexed extrema
# ---------------------------------------------------------------------------


def _polar_footprint(rng, rings=24, jitter=0.003):
    """The planar footprint of the jittered polar grids the fits and the
    benchmark use: 1889 points at 24 rings."""
    pts = [np.zeros((1, 2))]
    for j in range(1, rings + 1):
        m = max(8, round(2 * np.pi * j))
        th = 2 * np.pi * np.arange(m) / m
        ring = j / rings * np.column_stack([np.cos(th), np.sin(th)])
        pts.append(ring + rng.normal(0.0, jitter, ring.shape) if j < rings else ring)
    return np.vstack(pts)


def _postfit_samples():
    """The three clouds `pcparam eval` compares on the benchmark's postfit
    run: 4096 and 16384 domain samples of the disk and a mapped cloud."""
    rng = np.random.default_rng(3)
    disk = preset_domain("disk")
    dense = disk.sample_area(4096, rng)
    return dense, disk.sample_area(16384, rng), _polar_footprint(rng)


def _far_queries():
    # rows far outside b's box, in every direction: their 3x3 block sits on
    # the grid's rim and rarely holds the nearest point, so they fall back
    rng = np.random.default_rng(11)
    b = preset_domain("disk").sample_area(1000, rng)
    th = rng.uniform(0, 2 * np.pi, 60)
    far = np.column_stack([np.cos(th), np.sin(th)]) * np.geomspace(1.2, 1e3, 60)[:, None]
    return np.vstack([preset_domain("disk").sample_area(500, rng), far]), b


def _duplicates():
    rng = np.random.default_rng(12)
    b = rng.uniform(-1, 1, (300, 2))
    b = np.vstack([b, b[:100], b[:5], b[:5]])
    a = np.vstack([rng.uniform(-1.2, 1.2, (400, 2)), b[:50], b[:50]])
    return a, b


def _dyadic_edges():
    # b on the lattice of side 1/32 with corners (0, 0) and (1, 1): 1024
    # points give cells of side exactly 1/32, so every b point sits on a
    # cell corner; queries on the 1/64 lattice sit on edges, corners and
    # centres, inside and outside the box, and every distance is exact
    rng = np.random.default_rng(13)
    lattice = np.stack(np.meshgrid(np.arange(33), np.arange(33)), -1).reshape(-1, 2) / 32.0
    inner = lattice[(lattice > 0).any(axis=1) & (lattice < 1).any(axis=1)]
    b = np.vstack([[[0.0, 0.0], [1.0, 1.0]], inner[rng.choice(len(inner), 1022, replace=False)]])
    assert geometry._point_grid(b).cell == 1.0 / 32.0
    a = np.stack(np.meshgrid(np.arange(-32, 97), np.arange(-32, 97)), -1).reshape(-1, 2) / 64.0
    return a, b


def _edge_straddling(m, rng):
    """Rows whose nearest b point lies just across the left edge of their
    3x3 block, with a candidate inside the block whose squared distance
    falls strictly between that point's and the square of the block-edge
    distance the cell map gives. b spans [-1, 1]^2 and the block edge is
    near x = 0, so the query's x - lo is in [1, 2) and is placed to round
    up by almost 2^-53, where floats near the edge are far denser: a
    certainty test without a margin for that rounding takes the candidate."""
    lo, hi = -1.0, 1.0
    grid = geometry._point_grid(np.vstack([[[lo, lo], [hi, hi]]] * m)[:m])
    c = grid.cell

    def col(x):
        return int(np.floor(grid.scaled(np.array([[x, 0.0]]))[0, 0]))

    k = col(0.0)
    left, right = lo + (k - 0.5) * c, lo + (k + 0.5) * c
    while (mid := 0.5 * (left + right)) not in (left, right):
        left, right = (left, mid) if col(mid) >= k else (mid, right)
    out_x = left  # the largest x the cell map puts in column k - 1
    a, b = [], []
    for j in range(3, int(grid.shape[1]) - 3, 4):
        qy = lo + (j + 0.5) * c
        for _ in range(50):
            f = (k + 1 + rng.uniform(0.0, 0.3)) * c
            qx = float(np.nextafter((f - 1.0) - 2.0**-53, 1.0))  # qx - lo rounds up to f
            assert 1.0 <= f < 2.0 and qx - lo == f
            edge2 = (c * (grid.scaled(np.array([[qx, qy]]))[0, 0] - k)) ** 2
            out2 = (qx - out_x) ** 2
            cy = qy + np.sqrt(0.5 * (out2 + edge2))
            if out2 < (qy - cy) ** 2 < edge2:
                a.append((qx, qy))
                b += [(out_x, qy), (qx, cy)]
                break
    pad = m - len(b)
    b += [(lo, lo)] * (pad // 2) + [(hi, hi)] * (pad - pad // 2)
    return np.array(a).reshape(-1, 2), np.array(b)


def _edge_straddling_cases():
    rng = np.random.default_rng(14)
    pairs = [_edge_straddling(m, rng) for m in (900, 1300, 1700, 2100, 2500, 2900)]
    assert sum(len(a) for a, _ in pairs) >= 20
    return pairs


def _one_cell_3d(n, m, rng):
    # every b point at one planar spot, spread along z: b fills one cell
    b = np.column_stack([np.full((m, 2), 0.25), rng.normal(0, 1, m)])
    return rng.normal(0, 1, (n, 3)), b


EXTREMA_CASES = {
    "spread_scales": lambda: (_cloud(np.random.default_rng(15), 3000, 2),
                              _cloud(np.random.default_rng(16), 800, 2)),
    "far_queries": _far_queries,
    "duplicates": _duplicates,
    "one_row_a": lambda: (np.array([[0.3, -0.2]]), np.random.default_rng(17).normal(size=(500, 2))),
    "one_row_b": lambda: (np.random.default_rng(18).normal(size=(500, 2)), np.array([[0.3, -0.2]])),
    "one_row_each": lambda: (np.array([[5.0, 1.0]]), np.array([[0.3, -0.2]])),
    "collinear_b": lambda: (
        np.random.default_rng(19).uniform(-2, 2, (800, 2)),
        (lambda t: np.column_stack([t, 0.3 * t + 0.1]))(np.random.default_rng(20).uniform(-1, 1, 700)),
    ),
    "axis_aligned_b": lambda: (
        np.random.default_rng(21).uniform(-2, 2, (800, 2)),
        np.column_stack([np.random.default_rng(22).uniform(-1, 1, 700), np.full(700, 0.5)]),
    ),
    "identical_b": lambda: (np.random.default_rng(23).normal(size=(600, 2)), np.full((300, 2), 0.7)),
    "3d": lambda: (_cloud(np.random.default_rng(24), 2000, 3), _cloud(np.random.default_rng(25), 1500, 3)),
    "3d_deep_z": lambda: (  # z spread 100x the planar extent: the planar bound is loose
        np.random.default_rng(26).normal(size=(1500, 3)) * [1, 1, 100],
        np.random.default_rng(27).normal(size=(1200, 3)) * [1, 1, 100],
    ),
    "3d_one_cell": lambda: _one_cell_3d(700, 400, np.random.default_rng(28)),
    "dyadic_edges": _dyadic_edges,
    "offset_1e6": lambda: (
        preset_domain("disk").sample_area(3000, np.random.default_rng(29)) + 1e6,
        preset_domain("disk").sample_area(900, np.random.default_rng(30)) * 0.5 + 1e6,
    ),
    "scale_2^-500": lambda: (_cloud(np.random.default_rng(31), 1500, 2) * 2.0**-500,
                             _cloud(np.random.default_rng(32), 700, 2) * 2.0**-500),
    "scale_2^500": lambda: (_cloud(np.random.default_rng(33), 1500, 2) * 2.0**500,
                            _cloud(np.random.default_rng(34), 700, 2) * 2.0**500),
}


def _assert_extrema_exact(a, b):
    want = ref_row_min_sq(a, b)
    assert np.array_equal(geometry._row_min_sq(a, b), want)
    if max(np.abs(a).max(), np.abs(b).max()) >= geometry._COORD_BOUND:
        # the grid stays exact there, but the public extrema refuse clouds
        # past the coordinate bound, naming it
        assert np.array_equal(geometry._row_min_sq(b, a), ref_row_min_sq(b, a))
        for extremum in (hausdorff_exact, modified_hausdorff_exact, sampling_gap_estimate):
            with pytest.raises(ValueError, match=r"must stay below 1e\+150"):
                extremum(b, a)
        return
    t_ab = float(np.sqrt(want.max()))
    t_ba = float(np.sqrt(ref_row_min_sq(b, a).max()))
    assert hausdorff_exact(a, b) == max(t_ab, t_ba)
    assert modified_hausdorff_exact(a, b) == t_ab + t_ba
    assert sampling_gap_estimate(b, a) == t_ab


@pytest.mark.parametrize("name", list(EXTREMA_CASES))
def test_grid_extrema_match_full_matrix(name):
    _assert_extrema_exact(*EXTREMA_CASES[name]())


def test_grid_extrema_match_full_matrix_on_postfit_samples():
    # the four directed terms of `pcparam eval`, 110M pairs
    dense, denser, mapped = _postfit_samples()
    mins = {}
    for a, b, key in ((denser, dense, "domain"), (denser, mapped, "mapped"),
                      (mapped, dense, "ab"), (dense, mapped, "ba")):
        mins[key] = ref_row_min_sq(a, b)
        assert np.array_equal(geometry._row_min_sq(a, b), mins[key])
    top = {key: float(np.sqrt(m.max())) for key, m in mins.items()}
    assert sampling_gap_estimate(dense, denser) == top["domain"]
    assert sampling_gap_estimate(mapped, denser) == top["mapped"]
    assert hausdorff_exact(mapped, dense) == max(top["ab"], top["ba"])


def test_grid_extrema_match_full_matrix_across_block_edges():
    for a, b in _edge_straddling_cases():
        _assert_extrema_exact(a, b)


def test_far_queries_take_the_dense_fallback(monkeypatch):
    a, b = _far_queries()
    seen = []
    dense = geometry._dense_row_min_sq

    def spy(rows, cloud):
        seen.append(len(rows))
        return dense(rows, cloud)

    monkeypatch.setattr(geometry, "_dense_row_min_sq", spy)
    assert np.array_equal(geometry._row_min_sq(a, b), ref_row_min_sq(a, b))
    assert 0 < sum(seen) < len(a)


def test_grid_extrema_memory_is_bounded_when_b_fills_one_cell():
    # every one of the 4096 x 16384 pairs is a candidate; the traced peak is
    # about 2.4 MB, the old 2^22-element row blocks peaked at 65 MB and the
    # full matrix takes 512 MB
    a, b = _one_cell_3d(4096, 16384, np.random.default_rng(35))
    tracemalloc.start()
    try:
        gap = sampling_gap_estimate(b, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(gap)
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("activation", ["linear", "softplus"])
def test_backward_matches_reference(monkeypatch, activation):
    spec = NetworkSpec(3, (32, 16, 8), 2, output_activation=activation, omega=1.7)
    rng = np.random.default_rng(9)
    params = init_params(spec, 3)
    x = _cloud(rng, 200, 3)
    ct = rng.normal(size=(200, 2))
    # in one piece, as this small net runs, and cut in two halves
    for min_half in (_halves._MIN_HALF, 0):
        monkeypatch.setattr(_halves, "_MIN_HALF", min_half)
        tape = []
        out = forward(spec, params, x, tape=tape)
        assert np.array_equal(out, forward(spec, params, x))
        got = backward(spec, tape, ct)
        assert np.array_equal(got, ref_backward(spec, params, x, ct))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_few_rows_match_reference(monkeypatch, n):
    # cut in two halves however small: n = 1 stays one piece, n = 3 makes
    # the halves unequal
    monkeypatch.setattr(_halves, "_MIN_HALF", 0)
    rng = np.random.default_rng(60 + n)
    spec = NetworkSpec(3, (16, 8), 1, output_activation="softplus", omega=1.3)
    params = init_params(spec, 5)
    x = _cloud(rng, n, 3)
    ct = rng.normal(size=(n, 1))
    tape = []
    out = forward(spec, params, x, tape=tape)
    rows = np.vstack([forward(spec, params, x[i : i + 1]) for i in range(n)])
    np.testing.assert_allclose(out, rows, rtol=1e-13)
    assert np.array_equal(backward(spec, tape, ct),
                          ref_backward(spec, params, x, ct))
    y, w = _cloud(rng, n, 2), _cloud(rng, 4, 2)
    for got, want in zip(hand_with_grad(y, w, 20.0), ref_hand_with_grad(y, w, 20.0),
                         strict=True):
        _assert_close(got, want)
    for got, want in zip(hand_with_grad(w, y, 20.0), ref_hand_with_grad(w, y, 20.0),
                         strict=True):
        _assert_close(got, want)
    v = rng.uniform(0.2, 2.0, n)
    for got, want in zip(leg_with_grad(x, y, v, 0.3), ref_leg_inv_grad(x, y, v, 0.3)):
        _assert_close(got, want)


def test_backward_rejects_mismatched_tape():
    spec = NetworkSpec(2, (8,), 2)
    params = init_params(spec, 0)
    x = np.random.default_rng(1).normal(size=(10, 2))
    tape = []
    forward(NetworkSpec(2, (8, 8), 2), init_params(NetworkSpec(2, (8, 8), 2), 0), x, tape=tape)
    with pytest.raises(ValueError, match="tape has 3 layers"):
        backward(spec, tape, np.zeros((10, 2)))
    forward(spec, params, x[:4], tape=tape)
    with pytest.raises(ValueError, match="cotangent shape"):
        backward(spec, tape, np.zeros((10, 2)))


# ---------------------------------------------------------------------------
# inverse interpolation and dart throwing
# ---------------------------------------------------------------------------


def _same(got, want):
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[0], want[0], equal_nan=True)


def _pair(mapped, original):
    interp = InverseInterpolator(mapped, original)
    return interp, RefInterpolator(interp)


@pytest.mark.parametrize("cols", [1, 3])
def test_interpolator_matches_walk_on_random_queries(cols):
    rng = np.random.default_rng(20 + cols)
    mapped = rng.uniform(0.0, 1.0, (400, 2))
    original = _cloud(rng, 400, cols)
    interp, ref = _pair(mapped, original)
    queries = rng.uniform(-0.05, 1.05, (3000, 2))
    _same(interp(queries), ref(queries))


@pytest.mark.parametrize("cols", [1, 3])
def test_interpolator_matches_walk_on_shared_edges(cols):
    # a regular grid: a point between two neighbours of one row or column
    # lies exactly on the edge joining them, which two triangles share, and
    # the lower id of the two must be taken; the spacing is not dyadic, so
    # the two give different barycentric bits
    g = np.arange(12) * 0.1
    mapped = np.array([(x, y) for y in g for x in g])
    rng = np.random.default_rng(30 + cols)
    original = _cloud(rng, len(mapped), cols)
    interp, ref = _pair(mapped, original)
    i = rng.integers(1, 10, 600)
    j = rng.integers(0, 11, 600)
    t = g[j] + rng.uniform(0.0, 0.1, 600)
    on_edges = np.where(
        (np.arange(600) % 2 == 0)[:, None],
        np.column_stack([t, g[i]]),  # on a horizontal interior edge
        np.column_stack([g[i], t]),  # on a vertical interior edge
    )
    queries = np.empty((1200, 2))
    queries[0::2] = on_edges
    queries[1::2] = rng.uniform(0.0, 1.1, (600, 2))
    whole = interp(queries)
    _same(whole, ref(queries))
    # a query's row depends on that query alone: not on the order of the
    # batch, nor on how a stream is split over calls
    perm = np.random.default_rng(60 + cols).permutation(len(queries))
    shuffled = interp(queries[perm])
    _same(shuffled, (whole[0][perm], whole[1][perm]))
    parts = [interp(part) for part in np.split(queries, [1, 2, 7, 50, 51, 300, 800])]
    _same(tuple(np.concatenate(p) for p in zip(*parts)), whole)


def test_interpolator_matches_walk_on_vertex_hits_and_near_hull():
    rng = np.random.default_rng(40)
    mapped = np.vstack([rng.uniform(0.0, 1.0, (200, 2)), [[0, 0], [1, 0], [1, 1], [0, 1]]])
    original = _cloud(rng, len(mapped), 3)
    interp, ref = _pair(mapped, original)
    t = rng.uniform(0.0, 1.0, 60)
    queries = np.vstack([
        mapped[rng.permutation(len(mapped))[:80]],           # vertex hits
        np.column_stack([t, np.full(60, -1e-10)]),            # snap onto y = 0
        np.column_stack([np.full(60, 1.0 + 9e-10), t]),       # snap onto x = 1
        np.column_stack([t, np.full(60, 1.0 + 2e-9)]),        # just past tolerance
        np.column_stack([t, np.full(60, -1e-3)]),             # clearly outside
        [[-1e-10, -1e-10], [2.0, 2.0], [-5.0, 0.5], [0.5, 7.0]],
        rng.uniform(0.0, 1.0, (200, 2)),
    ])
    queries = queries[rng.permutation(len(queries))]
    got, want = interp(queries), ref(queries)
    _same(got, want)
    assert 0 < got[1].sum() < len(queries)
    for q in queries[:150]:  # one query per call, as the boundary ring asks
        _same(interp(q[None]), ref(q[None]))


def _hull_snap_queries(ref, rng):
    """Queries just outside the hull: beyond each hull corner at distances
    around the snap tolerance; on the diagonal of an axis-aligned corner,
    equally near both hull edges there; exactly 1e-9 from an axis-aligned
    hull edge, and one ulp nearer or farther."""
    vs = ref.mesh.vertices
    centre = vs.mean(axis=0)
    corners = np.array(sorted({u for u, _ in ref.hull}))
    out = vs[corners] - centre
    out /= np.linalg.norm(out, axis=1)[:, None]
    reach = np.array([3e-10, 7e-10, 1e-9, 1.2e-9, 1e-6])
    beyond = (vs[corners][:, None, :] + reach[None, :, None] * out[:, None, :]).reshape(-1, 2)
    d = np.array([2.0 ** -31, 2.0 ** -30, 2.0 ** -29])  # 0.66e-9, 1.3e-9, 2.6e-9 away
    diag = np.vstack([np.column_stack([cx + sx * d, cy + sy * d])
                      for cx, cy, sx, sy in [(0, 0, -1, -1), (1, 0, 1, -1),
                                             (1, 1, 1, 1), (0, 1, -1, 1)]])
    g = np.array([np.nextafter(1e-9, 0.0), 1e-9, np.nextafter(1e-9, 1.0)])
    t = np.repeat(rng.integers(1, 64, 20) / 64.0, 3)
    gap = np.tile(g, 20)
    edges = np.vstack([np.column_stack([t, -gap]), np.column_stack([1.0 + gap, t]),
                       np.column_stack([t, 1.0 + gap]), np.column_stack([-gap, t])])
    return np.vstack([beyond, diag, edges])


def test_batched_snap_matches_scalar_snap():
    rng = np.random.default_rng(45)
    mapped = np.vstack([rng.uniform(0.0, 1.0, (200, 2)), [[0, 0], [1, 0], [1, 1], [0, 1]]])
    interp, ref = _pair(mapped, _cloud(rng, len(mapped), 3))
    queries = _hull_snap_queries(ref, rng)
    tid, where = interp._snap(queries)
    for k, q in enumerate(queries):
        want = ref.snap(q)
        assert tid[k] == (-1 if want is None else want[0])
        assert np.array_equal(where[k], q if want is None else want[1])
    assert 0 < (tid >= 0).sum() < len(queries)
    _same(interp(queries), ref(queries))


def test_interpolator_matches_walk_on_nonconvex_triangulation():
    # hull points 1e-14 inside a straight edge: the triangulation leaves
    # the thin triangles along it out, so its region is not convex there and
    # a walk can leave it on the way to a point that lies inside
    rng = np.random.default_rng(50)
    xs = np.linspace(0.0, 1.0, 11)
    bottom = np.column_stack([xs, np.where(np.arange(11) % 2 == 1, 1e-14, 0.0)])
    mapped = np.vstack([bottom, rng.uniform(0.05, 1.0, (100, 2)), [[0.0, 1.0], [1.0, 1.0]]])
    interp, ref = _pair(mapped, _cloud(rng, len(mapped), 3))
    near = np.column_stack([rng.uniform(0.0, 1.0, 400), rng.uniform(-1e-14, 3e-14, 400)])
    queries = np.empty((800, 2))
    queries[0::2] = near
    queries[1::2] = rng.uniform(0.0, 1.0, (400, 2))
    _same(interp(queries), ref(queries))
    # every query inside a triangle is located in it, not snapped onto the hull
    want = np.array([-1 if t is None else t for t in map(ref.locate, near)])
    assert (want >= 0).sum() > 200
    assert np.array_equal(interp._locate(near), want)


def ref_nearest_values(mapped, vals, pts):
    """The value of each query's nearest mapped point, one query at a time."""
    return np.array([vals[int(np.linalg.norm(mapped - p, axis=1).argmin())] for p in pts])


@pytest.mark.parametrize("tile", TILES)
def test_lambda_fallback_matches_nearest_point_loop(monkeypatch, tile):
    # reconstruct's inverse-factor field outside the triangulation: the
    # value of the nearest mapped point, found in one tiled pass
    rng = np.random.default_rng(90)
    mapped = _polar_footprint(rng, rings=8)
    mapped = np.vstack([mapped, mapped[[5, 40]]])  # duplicates with values of their own
    vals = rng.uniform(0.5, 2.0, len(mapped))
    fields = []

    def spy(domain, mode, target_edge, seed, lambda_inv_field):
        fields.append(lambda_inv_field)
        return param_mesh(domain, mode, target_edge, seed, lambda_inv_field)

    param_mesh = meshing.generate_param_mesh
    monkeypatch.setattr(meshing, "generate_param_mesh", spy)
    monkeypatch.setattr(geometry, "_TILE_ELEMS", tile)
    original = np.column_stack([mapped, rng.normal(size=len(mapped))])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicatePointsWarning)
        reconstruct_surface(mapped, original, preset_domain("disk"), mode="lambda_adapted",
                            target_edge=0.3, lambda_inv_values=vals)
        interp = InverseInterpolator(mapped, original)
    field = fields[0]
    th = rng.uniform(0.0, 2.0 * np.pi, 300)
    ring = np.column_stack([np.cos(th), np.sin(th)])
    queries = np.vstack([
        ring * rng.uniform(1.0 + 1e-6, 1.05, (300, 1)),   # just off the hull
        ring * np.geomspace(1.1, 1e3, 300)[:, None],      # far away
        [[3.0, 0.0], [0.0, -3.0], [1e6, 1e6]],
        rng.uniform(-0.7, 0.7, (200, 2)),                 # inside
        mapped[:30],                                      # vertex hits
    ])
    queries = queries[rng.permutation(len(queries))]
    inside, ok = interp(queries, vals)
    assert 0 < ok.sum() < len(queries)
    want = np.where(ok, inside.ravel(), ref_nearest_values(mapped, vals, queries))
    assert np.array_equal(field(queries), want)
    # every query located: the fallback gets no rows
    located = queries[ok]
    assert np.array_equal(field(located), interp(located, vals)[0].ravel())
    assert np.array_equal(field(queries[~ok][:1]), want[~ok][:1])


def _annulus():
    return Domain([
        [Arc((0.0, 0.0), 1.0, 0.0, 0.0, ccw=True)],
        [Arc((0.0, 0.0), 0.45, 0.0, 0.0, ccw=False)],
    ])


def _field(p):
    p = np.atleast_2d(p)
    return 0.3 + 4.0 * np.exp(-4.0 * ((p - 0.3) ** 2).sum(axis=1))


@pytest.mark.parametrize("mode", ["uniform", "lambda_adapted"])
@pytest.mark.parametrize("name", ["disk", "square", "annulus"])
def test_param_mesh_matches_all_pairs_dart_throwing(name, mode):
    domain = _annulus() if name == "annulus" else preset_domain(name)
    field = _field if mode == "lambda_adapted" else None
    mesh = generate_param_mesh(domain, mode, 0.1, seed=4, lambda_inv_field=field)
    vertices, triangles = ref_generate_param_mesh(domain, mode, 0.1, 4, field)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.triangles, triangles)


@pytest.mark.parametrize("name", ["disk", "square", "annulus"])
def test_boundary_ring_matches_point_by_point_march(name):
    # the spacing field is a caller's function and may keep state from query
    # to query, so the batched march must ask for the same points in the
    # same order, not only get the same spacings
    domain = _annulus() if name == "annulus" else preset_domain(name)
    asked, ref_asked = [], []

    def radius_at(p):
        asked.extend(map(tuple, p.tolist()))
        return 0.05 / np.sqrt(_field(p))

    def step_at(p):
        p = np.asarray(p, dtype=np.float64).reshape(1, 2)
        ref_asked.extend(map(tuple, p.tolist()))
        return float(0.05 / np.sqrt(_field(p))[0])

    assert np.array_equal(_boundary_ring(domain, radius_at), ref_boundary_ring(domain, step_at))
    assert asked == ref_asked


# ---------------------------------------------------------------------------
# candidate blocks of the uniform grid
# ---------------------------------------------------------------------------


def ref_locate(mesh, queries):
    """The lowest id of the triangles of mesh that contain each query, or -1:
    every triangle is tested by the exact `_in_triangle`, except those that
    the float filter of `orient2d` puts certainly outside."""
    pts, tris = mesh.vertices.tolist(), mesh.triangles.tolist()
    corners = mesh.vertices[mesh.triangles]
    found = []
    for qx, qy in queries.tolist():
        maybe = np.ones(len(tris), dtype=bool)
        for u, v in ((0, 1), (1, 2), (2, 0)):
            left = (corners[:, u, 0] - qx) * (corners[:, v, 1] - qy)
            right = (corners[:, u, 1] - qy) * (corners[:, v, 0] - qx)
            det, detsum = left - right, np.abs(left) + np.abs(right)
            maybe &= ~((det < 0) & (np.abs(det) >= meshing._ORIENT_BOUND * detsum)
                       & (detsum >= meshing._FILTER_FLOOR))
        hits = (t for t in np.flatnonzero(maybe).tolist()
                if _in_triangle(*(pts[v] for v in tris[t]), qx, qy))
        found.append(next(hits, -1))
    return np.array(found, dtype=np.int64)


def ref_throw_darts(acc, arad, cand, crad):
    """Rows of cand accepted in order, each tested against every point
    accepted so far."""
    took = []
    for i, (p, rp) in enumerate(zip(cand, crad)):
        pts = np.vstack([acc, cand[took]])
        rad = np.concatenate([arad, crad[took]])
        if (np.linalg.norm(pts - p, axis=1) >= 0.5 * (rad + rp)).all():
            took.append(i)
    return np.array(took, dtype=np.int64)


def _fan(rim):
    """A centre and `rim` points on the unit circle. Every triangle of its
    Delaunay triangulation has the centre as a corner, so the box of every
    triangle covers a cell at the centre."""
    th = 2.0 * np.pi * np.arange(rim) / rim
    return np.vstack([[0.0, 0.0], np.column_stack([np.cos(th), np.sin(th)])])


def _spy_blocks(monkeypatch):
    """The (span, count, pos) of every block `_Grid.blocks` yields from now on."""
    seen = []
    blocks = geometry._Grid.blocks

    def spy(grid, pts, ring=0):
        for block in blocks(grid, pts, ring):
            seen.append(block)
            yield block

    monkeypatch.setattr(geometry._Grid, "blocks", spy)
    return seen


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("ring", [0, 1])
def test_grid_blocks_hold_each_querys_candidates_within_the_tile(monkeypatch, tile, ring):
    # boxes of several cells, and queries outside the grid, which the cell
    # map clips to its edge cells; an item comes once per cell of its box
    # within `ring` cells of the query's
    rng = np.random.default_rng(95 + ring)
    bmin = rng.uniform(0.0, 1.0, (300, 2))
    bmax = bmin + rng.uniform(0.0, 0.2, (300, 2))
    grid = geometry._Grid((0.0, 0.0), (1.2, 1.2), 0.05, bmin, bmax)
    pts = rng.uniform(-0.1, 1.3, (500, 2))
    monkeypatch.setattr(geometry, "_TILE_ELEMS", tile)
    blocks = list(grid.blocks(pts, ring))
    assert [s.start for s, _, _ in blocks] == [0] + [s.stop for s, _, _ in blocks[:-1]]
    assert blocks[-1][0].stop == len(pts)
    ix, iy = grid.cells(pts)
    x0, y0 = grid.cells(bmin)
    x1, y1 = grid.cells(bmax)
    for span, cnt, pos in blocks:
        assert len(cnt) == span.stop - span.start and cnt.sum() == len(pos)
        assert len(pos) <= tile or len(cnt) == 1
        per_query = np.split(grid.items[pos], np.cumsum(cnt)[:-1])
        for i, items in zip(range(span.start, span.stop), per_query):
            wide = np.maximum(np.minimum(x1, ix[i] + ring) - np.maximum(x0, ix[i] - ring) + 1, 0)
            high = np.maximum(np.minimum(y1, iy[i] + ring) - np.maximum(y0, iy[i] - ring) + 1, 0)
            assert np.array_equal(np.bincount(items, minlength=len(bmin)), wide * high)


def test_interpolator_memory_is_bounded_when_every_triangle_meets_the_centre():
    # each of 4096 queries within 0.05 of a 2001-point fan's centre has 482
    # to 2000 candidates, 4.8 million pairs in all; in blocks of
    # `_TILE_ELEMS` pairs the traced peak is about 6 MB, where blocks of 4096
    # queries peaked at about 800 MB
    rng = np.random.default_rng(36)
    mapped = _fan(2000)
    interp = InverseInterpolator(mapped, rng.normal(size=(len(mapped), 3)))
    r = 0.05 * np.sqrt(rng.uniform(size=4096))
    th = rng.uniform(0.0, 2.0 * np.pi, 4096)
    queries = np.column_stack([r * np.cos(th), r * np.sin(th)])
    tracemalloc.start()
    try:
        _, ok = interp(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert ok.all()
    assert np.array_equal(interp._locate(queries), ref_locate(interp.mesh, queries))


@pytest.mark.parametrize("tile", [1, 64])
def test_locate_splits_no_query_across_blocks(monkeypatch, tile):
    # the central queries of a 301-point fan have more than `tile`
    # candidates each, so each takes a block of its own; the centre lies in
    # every triangle and the midpoints of its spokes in two
    rng = np.random.default_rng(37)
    mapped = _fan(300)
    interp = InverseInterpolator(mapped, mapped)
    queries = np.vstack([[[0.0, 0.0]], 0.5 * mapped[1:40], rng.uniform(-0.05, 0.05, (100, 2))])
    monkeypatch.setattr(geometry, "_TILE_ELEMS", tile)
    seen = _spy_blocks(monkeypatch)
    found = interp._locate(queries)
    assert all(len(pos) <= tile or len(cnt) == 1 for _, cnt, pos in seen)
    assert any(len(cnt) == 1 and cnt[0] > tile for _, cnt, _ in seen)
    assert np.array_equal(found, ref_locate(interp.mesh, queries))
    assert found[0] == 0


def test_dart_batch_past_the_tile_matches_all_pairs_throwing(monkeypatch):
    # 8000 accepted points of tiny radius, and 2048 candidates of radii up
    # to 0.04: cells of 0.02 hold about 3 points, and the candidates have
    # 58k pairs with them, two blocks of `_TILE_ELEMS`
    rng = np.random.default_rng(38)
    acc = rng.uniform(0.0, 1.0, (8000, 2))
    arad = np.full(len(acc), 1e-4)
    cand = rng.uniform(0.0, 1.0, (2048, 2))
    crad = rng.uniform(5e-4, 0.04, len(cand))
    seen = _spy_blocks(monkeypatch)
    took = _throw_darts(acc, arad, cand, crad, np.zeros(2), np.ones(2))
    assert len(seen) >= 2 and sum(len(pos) for _, _, pos in seen) > geometry._TILE_ELEMS
    assert 0 < len(took) < len(cand)
    assert np.array_equal(took, ref_throw_darts(acc, arad, cand, crad))


# ---------------------------------------------------------------------------
# mesh edges
# ---------------------------------------------------------------------------


def _pruned_meshes():
    """60 seeded pruned Delaunay meshes of 40-300 points: squares, annuli
    (a hole) and clusters (several components), pruned at a random quantile
    of the longest face edges, which leaves pinch vertices and many loops."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 300))
        if seed % 3 == 0:
            pts = rng.uniform(0.0, 1.0, (n, 2))
        elif seed % 3 == 1:
            r = np.sqrt(rng.uniform(0.16, 1.0, n))
            a = rng.uniform(0.0, 2.0 * np.pi, n)
            pts = np.column_stack([r * np.cos(a), r * np.sin(a)])
        else:
            centres = rng.uniform(0.0, 3.0, (int(rng.integers(2, 5)), 2))
            pts = centres[rng.integers(0, len(centres), n)] + rng.normal(0.0, 0.25, (n, 2))
        mesh = delaunay(pts)
        longest = mesh.edge_lengths().max(axis=1)
        yield prune_long_faces(mesh, float(np.quantile(longest, rng.uniform(0.4, 0.95))))


def test_edge_table_matches_dict_incidence():
    pinched = several = 0
    for mesh in _pruned_meshes():
        inc = ref_edge_incidence(mesh)
        edges, count, first = _edge_table(mesh.triangles, len(mesh.vertices))
        keys = sorted(inc)
        assert edges.tolist() == [list(k) for k in keys]
        assert count.tolist() == [len(inc[k]) for k in keys]
        assert (first // 3).tolist() == [inc[k][0] for k in keys]

        loops = boundary_edges(mesh)
        assert loops == ref_boundary_edges(mesh)
        visits = np.bincount(np.concatenate(loops))
        pinched += bool((visits > 1).any())  # four boundary edges at a vertex
        several += len(loops) >= 3
        seg = ref_loop_edges(mesh)
        assert np.array_equal(meshing._boundary_walk(mesh)[1], seg[:, 2])

        # the hull of the snap: each loop edge and the face on it
        interp = InverseInterpolator(mesh.vertices, mesh.vertices)
        interp._snap(np.empty((0, 2)))
        a, e, _, faces = interp._hull
        seg = ref_loop_edges(interp.mesh)
        vs = interp.mesh.vertices
        assert np.array_equal(a, vs[seg[:, 0]])
        assert np.array_equal(e, vs[seg[:, 1]] - vs[seg[:, 0]])
        assert np.array_equal(faces, seg[:, 2])

        # the audit's edge extrema over the dict's edges
        mapped = mesh.vertices * np.array([1.5, 0.5])
        v = np.linspace(0.5, 2.0, len(mesh.vertices))
        report = audit_theorem_bound(mesh, mapped, v, 0.5)
        ei, ej = np.array(keys).T
        dx = np.linalg.norm(mesh.vertices[ei] - mesh.vertices[ej], axis=1)
        dy = np.linalg.norm(mapped[ei] - mapped[ej], axis=1)
        assert report.lambda0 == float((1.0 / (v[ei] + v[ej])).min())
        assert report.r_lambda == max(float((dy / dx).max()) / report.lambda0, 1.0)
        assert report.max_edge == float(dx.max())
    assert pinched >= 20 and several >= 20


# ---------------------------------------------------------------------------
# Delaunay insertion order
# ---------------------------------------------------------------------------


def _polar(rings, jitter, seed):
    """The polar grids of the golden reconstruct and the postfit benchmark."""
    rng = np.random.default_rng(seed)
    pts = [np.zeros((1, 2))]
    for j in range(1, rings + 1):
        r = j / rings
        m = max(8, int(round(2 * np.pi * r * rings)))
        th = 2 * np.pi * np.arange(m) / m
        ring = np.column_stack([r * np.cos(th), r * np.sin(th)])
        if j < rings:
            ring += rng.normal(0.0, jitter, ring.shape)
        pts.append(ring)
    return np.vstack(pts)


def _grid(xs, ys):
    return np.array([(x, y) for y in ys for x in xs])


def _hex(k):
    return np.array([(i + 0.5 * (j % 2), j * np.sqrt(3.0) / 2.0) for j in range(k) for i in range(k)])


def _circle(m):
    th = 2 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(th), np.sin(th)])


def _with_duplicates(pts, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([pts, pts[rng.integers(0, len(pts), len(pts) // 5)]])


DELAUNAY_CLOUDS = {
    "uniform": lambda: np.random.default_rng(60).uniform(0.0, 1.0, (400, 2)),
    "normal": lambda: np.random.default_rng(61).normal(size=(400, 2)),
    "golden_polar": lambda: _polar(8, 0.004, 13),
    "golden_polar_exact": lambda: _polar(8, 0.0, 13),
    "bench_polar": lambda: _polar(24, 0.003, 77),
    "bench_polar_exact": lambda: _polar(24, 0.0, 77),
    "grid4": lambda: _grid(np.arange(4.0), np.arange(4.0)),
    "grid30": lambda: _grid(np.arange(30.0), np.arange(30.0)),
    "grid_tenths": lambda: _grid(np.arange(12) * 0.1, np.arange(9) * 0.3),
    "hex": lambda: _hex(16),
    "circle": lambda: _circle(200),
    "uniform_dups": lambda: _with_duplicates(np.random.default_rng(62).uniform(size=(300, 2)), 1),
    "grid_dups": lambda: _with_duplicates(_grid(np.arange(10.0), np.arange(10.0)), 2),
}


def _delaunay_quiet(pts):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicatePointsWarning)
        return delaunay(pts).triangles


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("name", sorted(DELAUNAY_CLOUDS))
def test_delaunay_matches_index_order_insertion(name, shuffled):
    pts = DELAUNAY_CLOUDS[name]()
    if shuffled:
        pts = pts[np.random.default_rng(63).permutation(len(pts))]
    assert np.array_equal(_delaunay_quiet(pts), ref_delaunay(pts))


@pytest.mark.parametrize(
    "name", ["uniform", "bench_polar_exact", "grid30", "grid_tenths", "hex", "circle"]
)
def test_triangulator_does_not_depend_on_insertion_order(name):
    pts = DELAUNAY_CLOUDS[name]()
    want = delaunay(pts).triangles
    rng = np.random.default_rng(64)
    for order in [np.arange(len(pts))[::-1]] + [rng.permutation(len(pts)) for _ in range(3)]:
        tri = _Triangulator(pts)
        for pi in order.tolist():
            tri.insert(pi)
        got = [t for t in tri.tris.values() if max(t) < len(pts)]
        assert np.array_equal(canonical_triangles(got), want)


# ---------------------------------------------------------------------------
# domain membership
# ---------------------------------------------------------------------------


def _rounded_rect():
    """A rounded rectangle with a half-disk hole, read from JSON, whose line
    ends miss the arc ends by 1e-12 to 2e-12, in both directions along both
    axes: a horizontal line through such a vertex passes between the two
    ends."""
    g = 1e-12
    h = math.pi / 2.0

    def line(a, b):
        return {"type": "line", "start": list(a), "end": list(b)}

    def arc(c, r, a0, a1):
        return {"type": "arc", "center": list(c), "radius": r,
                "start_angle": a0, "end_angle": a1, "ccw": True}

    outer = [
        line((-0.8 + g, -0.5 - g), (0.8 - 2 * g, -0.5 + g)),
        arc((0.8, -0.3), 0.2, -h, 0.0),
        line((1.0 + g, -0.3 - g), (1.0 - g, 0.3 - g)),
        arc((0.8, 0.3), 0.2, 0.0, h),
        line((0.8 + g, 0.5 + g), (-0.8 - g, 0.5 - g)),
        arc((-0.8, 0.3), 0.2, h, 2 * h),
        line((-1.0 - g, 0.3 + g), (-1.0 + g, -0.3 + 2 * g)),
        arc((-0.8, -0.3), 0.2, 2 * h, 3 * h),
    ]
    hole = [
        arc((0.0, 0.0), 0.25, h, 3 * h),
        line((g, -0.25 - g), (-g, 0.25 - 2 * g)),
    ]
    return domain_from_json(json.loads(json.dumps({"loops": [outer, hole]})))


def _membership_points(domain, rng):
    """1e5 points over the box plus a margin, and 400 on each horizontal line
    through a loop vertex or an arc's highest or lowest point; only those
    farther than 1e-9 from the boundary."""
    lo, hi = domain.bbox
    margin = 0.1 * (hi - lo)
    ys = set()
    for loop in domain.loops:
        for seg in loop:
            ys.update(float(p[1]) for p in _endpoints(seg))
            if isinstance(seg, Arc):
                ys.update((seg.center[1] - seg.radius, seg.center[1] + seg.radius))
    ys = np.array(sorted(ys))
    lines = np.column_stack([
        rng.uniform(lo[0] - margin[0], hi[0] + margin[0], 400 * len(ys)),
        np.repeat(ys, 400),
    ])
    pts = np.vstack([rng.uniform(lo - margin, hi + margin, (100_000, 2)), lines])
    return pts[domain.boundary_distance(pts) > 1e-9], ys


@pytest.mark.parametrize("name", [*PRESETS, "rounded_rect"])
def test_membership_matches_slanted_ray_cast(name):
    domain = _rounded_rect() if name == "rounded_rect" else preset_domain(name)
    pts, ys = _membership_points(domain, np.random.default_rng(70))
    assert np.isin(pts[:, 1], ys).any()
    assert np.array_equal(domain.contains_many(pts), ref_contains_many(domain, pts))


def test_membership_near_the_boundary_matches_oracles():
    rng = np.random.default_rng(71)
    for name in [*PRESETS, "rounded_rect"]:
        domain = _rounded_rect() if name == "rounded_rect" else preset_domain(name)
        assert domain.contains_many(domain.sample_boundary(20_000, rng)).all()
    # the unit circle: a point 2e-12 to 1e-9 off it is inside when it is
    # inside the radius; one within 5e-13 of it is on the closed boundary
    off = rng.uniform(2e-12, 1e-9, 40_000) * rng.choice([-1.0, 1.0], 40_000)
    off[:4000] = rng.uniform(-5e-13, 5e-13, 4000)
    ang = rng.uniform(0.0, 2.0 * math.pi, 40_000)
    pts = (1.0 + off)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    assert np.array_equal(preset_domain("disk").contains_many(pts), off < 1e-12)
