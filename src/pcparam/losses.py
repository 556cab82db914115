"""Training energies: smooth Hausdorff surrogate, localized distortion, landmarks.

All energies are plain functions of arrays plus small config dataclasses.
Each is one *_with_grad function that returns the value together with its
analytic gradients with respect to the mapped coordinates (and the
inverse-conformal-factor values where relevant); callers that need only the
value take element [0]. Gradients are exact derivatives of the implemented
formulas; finite-difference agreement is enforced in the test suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _halves
from .boltzmann import boltzmann, boltzmann_gradient
from .geometry import (
    TriangleMesh,
    _diff_factors,
    _edge_table,
    _row_tiles,
    _same_dim_clouds,
    _sq_dists_into,
    angle_distortion,
    as_cloud,
)

__all__ = [
    "HandConfig",
    "LegConfig",
    "ObjectiveConfig",
    "hand_with_grad",
    "leg_with_grad",
    "landmark_energy_with_grad",
    "LossBreakdown",
    "total_loss_with_grad",
    "BoundAuditReport",
    "audit_theorem_bound",
]


@dataclass(frozen=True)
class HandConfig:
    """Sharpness of the smooth Hausdorff surrogate. Larger alpha is sharper."""

    alpha: float = 20.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


# smallest kernel width whose square is a normal float and whose gradient
# scale 8 / sigma^2 in `leg_with_grad` is finite; below it 1 / sigma^2 loses
# its precision or overflows and the distortion energy or its gradients turn
# to nan. The second bound, about 2.11e-154, is the larger.
_SIGMA_FLOOR = max(math.sqrt(sys.float_info.min), math.sqrt(8.0 / sys.float_info.max))


def _check_sigma(name: str, value: float) -> None:
    """Reject a kernel width that is not finite or below `_SIGMA_FLOOR`."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if value < _SIGMA_FLOOR:
        raise ValueError(
            f"{name} must be at least {_SIGMA_FLOOR:.6g} (its square must be a normal "
            f"float and 8 / {name}^2 finite), got {value!r}"
        )


@dataclass(frozen=True)
class LegConfig:
    """Gaussian kernel width of the localized distortion energy."""

    sigma: float = 0.5

    def __post_init__(self) -> None:
        _check_sigma("sigma", self.sigma)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Weights and kernel settings of the combined objective.

    total = beta1 * distortion + beta2 * domain surrogate + beta3 * landmark sum

    Any weight may be zero to disable its term: beta1 = 0 is shape matching
    (no distortion energy, no inverse-lambda factors), beta2 = 0 is a free
    boundary, beta3 = 0 drops landmark matching.
    """

    beta1: float = 5.0
    beta2: float = 1.0
    beta3: float = 1.0
    hand: HandConfig = field(default_factory=HandConfig)
    leg: LegConfig = field(default_factory=LegConfig)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.beta1) and self.beta1 >= 0):
            raise ValueError(f"beta1 must be non-negative, got {self.beta1}")
        if not (np.isfinite(self.beta2) and self.beta2 >= 0):
            raise ValueError(f"beta2 must be non-negative, got {self.beta2}")
        if not (np.isfinite(self.beta3) and self.beta3 >= 0):
            raise ValueError(f"beta3 must be non-negative, got {self.beta3}")


# both energies run their row tiles in two halves at once (`_halves.split`),
# so their tiles are this many times `geometry._TILE_ELEMS`: at that size
# each numpy call on a tile is so short that the two threads' hand-offs of
# the interpreter lock cost more than the second core gains
_TILE_SCALE = 2


def _soft_min_weights(d: np.ndarray, low, a: float, out: np.ndarray) -> np.ndarray:
    """exp(-a (d - low)) into out: soft-min weights before normalising."""
    np.subtract(d, low, out=out)
    out *= -a
    return np.exp(out, out=out)


def _soft_min_jac(d, low, value, scale, a: float, out, scratch) -> np.ndarray:
    """scale * exp(-a (d - low)) * (1 - a (d - value)) into out. For low, value the
    min and soft-min along a row, this is d value / d d when scale = 1 / weight sum."""
    g = _soft_min_weights(d, low, a, out)
    g *= scale
    np.subtract(d, value, out=scratch)
    scratch *= -a
    scratch += 1.0
    g *= scratch
    return g


# ---------------------------------------------------------------------------
# smooth Hausdorff surrogate
# ---------------------------------------------------------------------------


def hand_with_grad(y, w, cfg: HandConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Smooth two-sided Hausdorff surrogate between clouds y and w, plus its
    gradients with respect to both clouds' coordinates.

    Soft-max over points of the soft-min of the pairwise distances, in both
    directions, summed. Symmetric in (y, w); converges to the modified
    (sum-form) Hausdorff distance exponentially fast in cfg.alpha.
    Coincident pairs (zero distance) get a zero subgradient contribution.

    Two passes over row tiles of the distances keep memory O(n + m). A tile
    holds whole rows, so the soft-min of a y point is exact per tile; that of
    a w point is an online softmax (Milakov & Gimelshein 2018) of running
    minimum, weight sum and weighted distance sum, rescaled as the minimum
    drops. The second pass recomputes each tile for the gradients. Both
    passes run the rows in two fixed halves, the first on a worker thread
    (`_halves.split`). Each half keeps its own column state; the two are
    rescaled to their common minimum and added, half 0 first, and so are the
    column sums of the second pass.
    """
    y, w = _same_dim_clouds(y, w)
    a = cfg.alpha
    n, m = len(y), len(w)

    r, r_low, r_sum = np.empty(n), np.empty(n), np.empty(n)

    def soft_mins(lo: int, hi: int):
        """Pass 1 over rows lo:hi: their row soft-mins, and the online
        column state (minimum, maximum, weight sum, weighted distance sum)
        of these rows alone."""
        c_low, c_high = np.full(m, np.inf), np.full(m, -np.inf)
        c_sum, c_dot = np.zeros(m), np.zeros(m)
        for t, d, _, (e,) in _row_tiles(y[lo:hi], w, 1, _TILE_SCALE):
            t = slice(lo + t.start, lo + t.stop)
            np.sqrt(d, out=d)
            r_low[t] = low = d.min(axis=1)
            _soft_min_weights(d, low[:, None], a, e)
            r_sum[t] = e.sum(axis=1)
            r[t] = np.clip(np.einsum("ij,ij->i", d, e) / r_sum[t], low, d.max(axis=1))
            low = np.minimum(c_low, d.min(axis=0))
            rescale = np.exp(a * (low - c_low))
            _soft_min_weights(d, low, a, e)
            c_sum = c_sum * rescale + e.sum(axis=0)
            c_dot = c_dot * rescale + np.einsum("ij,ij->j", d, e)
            c_low = low
            np.maximum(c_high, d.max(axis=0), out=c_high)
        return c_low, c_high, c_sum, c_dot

    # the halves' column states, rescaled to their common minimum and added
    states = _halves.split(soft_mins, n, m)
    c_low = np.minimum.reduce([low for low, _, _, _ in states])
    c_high = np.maximum.reduce([high for _, high, _, _ in states])
    c_sum = c_dot = 0.0
    for low, _, part_sum, part_dot in states:
        rescale = np.exp(a * (c_low - low))
        c_sum = c_sum + part_sum * rescale
        c_dot = c_dot + part_dot * rescale
    c = np.clip(c_dot / c_sum, c_low, c_high)
    r_scale = boltzmann_gradient(r, a) / r_sum
    c_scale = boltzmann_gradient(c, a) / c_sum

    # coef = d value / d distance, over the distance (0 where that is 0)
    gy = np.empty_like(y)

    def gradients(lo: int, hi: int):
        """Pass 2 over rows lo:hi: their rows of gy, and these rows' parts of
        the column sums that make the gradient in w."""
        col_sum, col_y = np.zeros(m), np.zeros_like(w)
        for t, d, scratch, (coef, g) in _row_tiles(y[lo:hi], w, 2, _TILE_SCALE):
            t = slice(lo + t.start, lo + t.stop)
            np.sqrt(d, out=d)
            _soft_min_jac(d, r_low[t, None], r[t, None], r_scale[t, None], a, coef, scratch)
            coef += _soft_min_jac(d, c_low, c, c_scale, a, g, scratch)
            with np.errstate(invalid="ignore", divide="ignore"):
                coef /= d
            if r_low[t].min() == 0.0:
                coef[d == 0.0] = 0.0
            gy[t] = coef.sum(axis=1)[:, None] * y[t] - coef @ w
            col_sum += coef.sum(axis=0)
            col_y += coef.T @ y[t]
        return col_sum, col_y

    parts = _halves.split(gradients, n, m)
    col_sum, col_y = sum(p[0] for p in parts), sum(p[1] for p in parts)
    return boltzmann(r, a) + boltzmann(c, a), gy, col_sum[:, None] * w - col_y


# ---------------------------------------------------------------------------
# localized geometric distortion
# ---------------------------------------------------------------------------


def leg_with_grad(
    original, mapped, lambda_inv_values, cfg: LegConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Localized distortion energy of a mapped cloud, plus its gradients in the
    mapped coordinates and in the per-point inverse factors.

    Mean over all ordered point pairs (diagonal included, it vanishes) of the
    squared mismatch between the Gaussian affinity of the originals and the
    lambda-compensated Gaussian affinity of their images, where
    lambda_ij = 1 / (v_i + v_j) for the inverse factors v (positive and
    finite, one per point). Zero exactly when every image pair distance
    equals lambda_ij times the original distance.

    Row tiles keep memory O(n) beyond the tile buffers. lambda is symmetric,
    so both gradients are row sums, each pair counted twice. The rows run in
    two fixed halves, the first on a worker thread (`_halves.split`), and
    the value is half 0's sum plus half 1's.
    """
    x = as_cloud(original)
    y = as_cloud(mapped, dim=2)
    n = len(x)
    if len(y) != n:
        raise ValueError(f"original has {n} points but mapped has {len(y)}")
    v = np.asarray(lambda_inv_values, dtype=np.float64).ravel()
    if v.size != n:
        raise ValueError(f"{v.size} inverse factors for {n} points")
    if not (np.isfinite(v).all() and (v > 0.0).all()):
        raise ValueError("inverse factors must be positive and finite")
    neg_inv_s2 = -1.0 / (cfg.sigma * cfg.sigma)
    y_lhs, y_rhs = _diff_factors(y, y)
    v_lhs, v_rhs = _diff_factors(v[:, None], -v[:, None])  # v_i - (-v_j)

    g_mapped, g_inv = np.empty_like(y), np.empty(n)

    def rows(lo: int, hi: int) -> float:
        """Rows lo:hi of both gradients; their part of the sum of squares."""
        value = 0.0
        # for a tiny sigma a scaled squared distance can overflow to -inf; its
        # exp is the exact 0, which is the right affinity, so no warning is due
        with np.errstate(over="ignore"):
            for t, e, scratch, (sqy, inv_lam, hy) in _row_tiles(x[lo:hi], x, 3, _TILE_SCALE):
                t = slice(lo + t.start, lo + t.stop)
                # e = gx - hy, the affinity mismatch, with gx = exp(-|x_i - x_j|^2 / s2),
                # hy = exp(-sqy / (s2 lam^2)), sqy = |y_i - y_j|^2, 1 / lam = v_i + v_j
                e *= neg_inv_s2
                np.exp(e, out=e)
                _sq_dists_into(y_lhs[:, t], y_rhs, sqy, scratch)
                np.matmul(v_lhs[0, t], v_rhs[0], out=inv_lam)
                np.multiply(inv_lam, inv_lam, out=hy)
                hy *= sqy
                hy *= neg_inv_s2
                np.exp(hy, out=hy)
                e -= hy
                value += float(np.vdot(e, e))
                # with p = 4 e hy and both orders of each pair:
                # d value / d y_i = sum_j 2 p (y_i - y_j) / (n^2 s2 lam^2),
                # d value / d v_i = sum_j 2 p sqy / (n^2 s2 lam)
                e *= hy
                e *= inv_lam
                g_inv[t] = np.einsum("ij,ij->i", e, sqy)
                e *= inv_lam
                g_mapped[t] = e.sum(axis=1)[:, None] * y[t] - e @ y
        return value

    value = sum(_halves.split(rows, n, n))
    k = -8.0 * neg_inv_s2 / (n * n)
    return value / (n * n), g_mapped * k, g_inv * k


# ---------------------------------------------------------------------------
# landmark energy
# ---------------------------------------------------------------------------


def landmark_energy_with_grad(
    mapped_landmarks, targets, cfg: HandConfig
) -> tuple[float, list[np.ndarray]]:
    """Sum of smooth Hausdorff surrogates between landmark images and targets,
    plus the gradient for each mapped landmark cloud.

    Point counts may differ within a pair (regions are matched as sets, not
    point-to-point). Empty lists give 0.
    """
    if len(mapped_landmarks) != len(targets):
        raise ValueError(
            f"{len(mapped_landmarks)} landmark clouds vs {len(targets)} targets"
        )
    value = 0.0
    grads: list[np.ndarray] = []
    for m, q in zip(mapped_landmarks, targets):
        v, gm, _ = hand_with_grad(m, q, cfg)
        value += v
        grads.append(gm)
    return value, grads


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossBreakdown:
    """Weighted total and the raw (unweighted) value of each term."""

    total: float
    leg: float
    hand: float
    landmark: float


def total_loss_with_grad(
    original,
    mapped,
    lambda_inv_values,
    domain_sample,
    landmark_rows,
    targets,
    cfg: ObjectiveConfig,
    n_base: int | None = None,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Combined objective on one batch, plus its gradients in the mapped
    coordinates and in the inverse factors.

    `original`/`mapped`/`lambda_inv_values` cover the batch with landmark
    points appended; rows before `n_base` (default: all) are the non-landmark
    batch the domain surrogate term sees. `landmark_rows` gives, per landmark
    region, the row indices of its points inside `mapped`; `targets` the
    corresponding planar target clouds. With beta1 == 0 the distortion term
    is skipped entirely, `lambda_inv_values` may be None and the gradient in
    the inverse factors is zero.
    """
    x = as_cloud(original)
    y = as_cloud(mapped, dim=2)
    if len(x) != len(y):
        raise ValueError(f"original has {len(x)} points but mapped has {len(y)}")
    if cfg.beta1 > 0 and lambda_inv_values is None:
        raise ValueError("lambda_inv_values is required when beta1 > 0")
    landmark_rows = [np.asarray(r, dtype=np.int64).ravel() for r in landmark_rows]
    if len(landmark_rows) != len(targets):
        raise ValueError(f"{len(landmark_rows)} landmark row lists vs {len(targets)} targets")
    n = len(y)
    if n_base is None:
        n_base = n
    if not 0 < n_base <= n:
        raise ValueError(f"n_base must be in [1, {n}], got {n_base}")
    for rows in landmark_rows:
        if rows.size == 0:
            raise ValueError("empty landmark row list")
        if rows.min() < 0 or rows.max() >= n:
            raise ValueError("landmark row index out of range")
    if cfg.beta2 > 0 and domain_sample is None:
        raise ValueError("domain_sample is required when beta2 > 0")

    g_mapped = np.zeros_like(y)
    g_v = np.zeros(n)

    leg_val = 0.0
    if cfg.beta1 > 0:
        leg_val, g_leg_y, g_leg_v = leg_with_grad(x, y, lambda_inv_values, cfg.leg)
        g_mapped += cfg.beta1 * g_leg_y
        g_v = cfg.beta1 * g_leg_v

    hand_val = 0.0
    if cfg.beta2 > 0:
        hand_val, g_hand_y, _ = hand_with_grad(y[:n_base], domain_sample, cfg.hand)
        g_mapped[:n_base] += cfg.beta2 * g_hand_y

    lm_val = 0.0
    if cfg.beta3 > 0 and landmark_rows:
        lm_val, g_lm = landmark_energy_with_grad(
            [y[rows] for rows in landmark_rows], targets, cfg.hand
        )
        for rows, g_k in zip(landmark_rows, g_lm):
            np.add.at(g_mapped, rows, cfg.beta3 * g_k)

    breakdown = LossBreakdown(
        total=cfg.beta1 * leg_val + cfg.beta2 * hand_val + cfg.beta3 * lm_val,
        leg=leg_val,
        hand=hand_val,
        landmark=lm_val,
    )
    return breakdown, g_mapped, g_v


# ---------------------------------------------------------------------------
# distortion-vs-angle bound audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundAuditReport:
    """Numeric audit of the distortion-energy lower bound on angle distortion.

    lhs = (exp(eta^2 r^2 R^2) / eta^2)^2 * D + 84 |T| / N^2 * r^4 R^4
    rhs = (4 / pi^2) (1 / N^2) * sum_T A_T^2 * sum_corners (theta - phi)^2

    with eta = 1/sigma, r = LambdaT / lambda0 (never below 1), R the longest
    original edge, A_T the original triangle areas, and D the distortion
    energy of the full vertex set. holds == (lhs >= rhs).
    """

    lhs: float
    rhs: float
    holds: bool
    d_sigma: float
    lambda0: float
    lambda_t: float
    r_lambda: float
    max_edge: float
    n_points: int
    n_triangles: int


def audit_theorem_bound(
    mesh: TriangleMesh, mapped, lambda_inv_values, cfg: LegConfig
) -> BoundAuditReport:
    """Evaluate both sides of the distortion-energy angle bound on one instance.

    lambda0 / LambdaT are taken from the instance itself: the smallest
    lambda_ij = 1 / (v_i + v_j) over the mesh edges and the largest
    image-to-original length ratio over them (any valid bounding pair
    satisfies the statement; these give the tightest audit). Zero-length
    original edges are rejected.
    """
    if len(mesh.triangles) == 0:
        raise ValueError("mesh has no triangles")
    n = len(mesh.vertices)
    # leg_with_grad checks the mapped cloud and the inverse factors
    d_sigma = leg_with_grad(mesh.vertices, mapped, lambda_inv_values, cfg)[0]
    mapped = as_cloud(mapped, dim=2)
    v = np.asarray(lambda_inv_values, dtype=np.float64).ravel()

    ei, ej = _edge_table(mesh.triangles, n)[0].T
    dx = np.linalg.norm(mesh.vertices[ei] - mesh.vertices[ej], axis=1)
    if (dx == 0.0).any():
        k = int(np.flatnonzero(dx == 0.0)[0])
        raise ValueError(f"zero-length original edge ({int(ei[k])}, {int(ej[k])})")
    dy = np.linalg.norm(mapped[ei] - mapped[ej], axis=1)

    lambda0 = float((1.0 / (v[ei] + v[ej])).min())
    lambda_t = float((dy / dx).max())
    r = max(lambda_t / lambda0, 1.0)
    big_r = float(dx.max())
    eta = 1.0 / cfg.sigma

    n_tri = len(mesh.triangles)
    growth = np.exp(eta * eta * r * r * big_r * big_r) / (eta * eta)
    lhs = growth * growth * d_sigma + (84.0 * n_tri / (n * n)) * r**4 * big_r**4

    report = angle_distortion(mesh, mapped)
    areas = mesh.triangle_areas()
    corner_sq = (report.diffs.reshape(n_tri, 3) ** 2).sum(axis=1)
    rhs = (4.0 / np.pi**2) * float((areas * areas * corner_sq).sum()) / (n * n)

    return BoundAuditReport(
        lhs=float(lhs),
        rhs=float(rhs),
        holds=bool(lhs >= rhs),
        d_sigma=float(d_sigma),
        lambda0=lambda0,
        lambda_t=float(max(lambda_t, r * lambda0)),
        r_lambda=float(r),
        max_edge=big_r,
        n_points=n,
        n_triangles=n_tri,
    )
