"""Agreement of the fast kernels with the plain formulas they replace.

Each reference below is the straightforward expression: fresh temporaries,
the (n, m, d) difference tensor, dense n x n energies, a second forward pass
in backward, a test of every triangle per query for the inverse
interpolator, a test against every accepted point for dart throwing, a
spacing query per boundary point, Delaunay insertion in index order.
Most kernels must reproduce them exactly (np.array_equal), not just closely,
because training runs thousands of steps on them and the golden outputs pin
every bit. The two row-tiled energies, `hand_with_grad` and `leg_with_grad`,
sum in another order by design; they must agree with the dense formulas to
1e-12 of each output's largest entry, at any tile size.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from pcparam.boltzmann import boltzmann, boltzmann_gradient
from pcparam.domains import Arc, Domain, preset_domain
from pcparam import geometry
from pcparam.geometry import (
    _sq_dists,
    hausdorff_exact,
    modified_hausdorff_exact,
    pairwise_distances,
    sampling_gap_estimate,
)
from pcparam import losses
from pcparam.losses import HandConfig, LegConfig, hand_with_grad, leg_with_grad
from pcparam.meshing import (
    DuplicatePointsWarning,
    InverseInterpolator,
    _boundary_ring,
    _Triangulator,
    _walk,
    boundary_edges,
    delaunay,
    generate_param_mesh,
    incircle,
    orient2d,
)
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
    gw = coef.sum(axis=0)[:, None] * w - coef.T @ y
    return term1 + term2, gy, gw


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
        da = dz @ w.T
        if li > 0:
            dz = da * (spec.omega * np.cos(spec.omega * pre[li - 1]))
    return grad, da


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
            for loop in boundary_edges(self.mesh)
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
    assert np.array_equal(_sq_dists(a, b), ref_sq_dists(a, b))
    assert np.array_equal(pairwise_distances(a, b), np.sqrt(ref_sq_dists(a, b)))


@pytest.mark.parametrize("dim", [2, 3])
def test_sq_dists_with_duplicate_points(dim):
    rng = np.random.default_rng(4)
    a = _cloud(rng, 50, dim)
    a = np.vstack([a, a[:20], a[:1], a[:1]])
    sq = _sq_dists(a, a)
    assert np.array_equal(sq, ref_sq_dists(a, a))
    assert sq[0, 50] == 0.0 and sq[70, 71] == 0.0
    assert np.array_equal(np.diag(sq), np.zeros(len(a)))


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
    for got, want in zip(hand_with_grad(y, w, HandConfig(alpha)),
                         ref_hand_with_grad(y, w, alpha)):
        _assert_close(got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_leg_with_grad_matches_reference(dim):
    rng = np.random.default_rng(7 + dim)
    x = _cloud(rng, 300, dim, 0.5)
    y = _cloud(rng, 300, 2, 0.5)
    x[9] = x[4]
    y[9] = y[4]  # a coincident pair in both clouds
    v = rng.uniform(0.2, 2.0, 300)
    for got, want in zip(leg_with_grad(x, y, v, LegConfig(0.3)),
                         ref_leg_inv_grad(x, y, v, 0.3)):
        _assert_close(got, want)


# tile sizes in elements: one-row tiles, tiles that do not divide the row
# count, the default, and one tile holding everything
TILES = [1, 1000, losses._TILE_ELEMS, 1 << 22]


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("alpha", [2.0, 100.0])
def test_tiled_hand_matches_reference(monkeypatch, tile, dim, alpha):
    rng = np.random.default_rng(30 + dim)
    y = _cloud(rng, 151, dim, 0.3)
    w = _with_coincident_pair(y, _cloud(rng, 70, dim, 0.3))
    w[10] = w[11] = y[12]  # a point of y on two coincident w points
    monkeypatch.setattr(losses, "_TILE_ELEMS", tile)
    for got, want in zip(hand_with_grad(y, w, HandConfig(alpha)),
                         ref_hand_with_grad(y, w, alpha)):
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
    monkeypatch.setattr(losses, "_TILE_ELEMS", tile)
    for got, want in zip(leg_with_grad(x, y, v, LegConfig(0.3)),
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
        monkeypatch.setattr(losses, "_TILE_ELEMS", tile)
        runs.append(hand_with_grad(y, w, HandConfig(40.0))
                    + leg_with_grad(x, y, v, LegConfig(0.4)))
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            _assert_close(got, want, rel=1e-13)


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
def test_backward_with_tape_matches_backward_without(activation):
    spec = NetworkSpec(3, (32, 16, 8), 2, output_activation=activation, omega=1.7)
    rng = np.random.default_rng(9)
    params = init_params(spec, 3)
    x = _cloud(rng, 200, 3)
    ct = rng.normal(size=(200, 2))
    tape = []
    out = forward(spec, params, x, tape=tape)
    assert np.array_equal(out, forward(spec, params, x))
    with_tape = backward(spec, params, x, ct, tape=tape)
    without = backward(spec, params, x, ct)
    reference = ref_backward(spec, params, x, ct)
    for got, want, ref in zip(with_tape, without, reference):
        assert np.array_equal(got, want)
        assert np.array_equal(got, ref)


def test_backward_rejects_mismatched_tape():
    spec = NetworkSpec(2, (8,), 2)
    params = init_params(spec, 0)
    x = np.random.default_rng(1).normal(size=(10, 2))
    tape = []
    forward(NetworkSpec(2, (8, 8), 2), init_params(NetworkSpec(2, (8, 8), 2), 0), x, tape=tape)
    with pytest.raises(ValueError, match="tape has 3 layers"):
        backward(spec, params, x, np.zeros((10, 2)), tape=tape)
    forward(spec, params, x[:4], tape=tape)
    with pytest.raises(ValueError, match="cotangent shape"):
        backward(spec, params, x, np.zeros((10, 2)), tape=tape)


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
