"""Training energies: smooth Hausdorff surrogate, localized distortion, landmarks.

All energies are plain functions of arrays and floats: the sharpness alpha
and the kernel width sigma are arguments, and `ObjectiveConfig` holds only
the term weights. Each is one *_with_grad function that returns the value
together with its analytic gradients with respect to the mapped coordinates
(and the inverse-conformal-factor values where relevant); callers that need
only the value take element [0]. Gradients are exact derivatives of the
implemented formulas; finite-difference agreement is enforced in the test
suite. The two dense energies do their per-pair element work in row tiles
of float64, or of float32 on request (`tile_dtype`), where the inputs are
within float32's reach; their values and gradients are float64 either way.
Both precisions run the same statements on centred clouds; only the reach
(`_tile_dtype`) and the exponent floor of float32 tiles (`_floor`) differ.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _halves
from .boltzmann import boltzmann, boltzmann_gradient
from .geometry import (
    TriangleMesh,
    _check_coord_bound,
    _check_real,
    _diff_factors,
    _edge_table,
    _row_tiles,
    _same_dim_clouds,
    _sq_dists_into,
    angle_distortion,
    as_cloud,
)

__all__ = [
    "ObjectiveConfig",
    "hand_with_grad",
    "leg_with_grad",
    "LossBreakdown",
    "total_loss_with_grad",
    "BoundAuditReport",
    "audit_theorem_bound",
]


# smallest kernel width whose square is a normal float and whose gradient
# scale 8 / sigma^2 in `leg_with_grad` is finite; below it 1 / sigma^2 loses
# its precision or overflows and the distortion energy or its gradients turn
# to nan. The second bound, about 2.11e-154, is the larger.
_SIGMA_FLOOR = max(math.sqrt(sys.float_info.min), math.sqrt(8.0 / sys.float_info.max))


def _check_sigma(name: str, value: float) -> None:
    """Reject a kernel width that is not a finite positive number or is below
    `_SIGMA_FLOOR`."""
    _check_real(name, value, lambda v: 0 < v < math.inf, "positive and finite")
    if value < _SIGMA_FLOOR:
        raise ValueError(
            f"{name} must be at least {_SIGMA_FLOOR:.6g} (its square must be a normal "
            f"float and 8 / {name}^2 finite), got {value!r}"
        )


@dataclass(frozen=True)
class ObjectiveConfig:
    """Term weights of the combined objective.

    total = beta1 * distortion + beta2 * domain surrogate + beta3 * landmark sum

    Any weight may be zero to disable its term: beta1 = 0 is shape matching
    (no distortion energy, no inverse-lambda factors), beta2 = 0 is a free
    boundary, beta3 = 0 drops landmark matching.
    """

    beta1: float = 5.0
    beta2: float = 1.0
    beta3: float = 1.0

    def __post_init__(self) -> None:
        for name in ("beta1", "beta2", "beta3"):
            _check_real(name, getattr(self, name), lambda v: 0 <= v < math.inf, "non-negative")


# both energies run their row tiles in two halves at once (`_halves.split`),
# so their tiles are this many times `geometry._TILE_ELEMS`: at that size
# each numpy call on a tile is so short that the two threads' hand-offs of
# the interpreter lock cost more than the second core gains
_TILE_SCALE = 2

# `hand_with_grad` makes about sixty numpy calls per tile, half of them on
# one row or column of it, so its tiles are twice as large
_HAND_TILE_SCALE = 2 * _TILE_SCALE


def _pull(sums: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j coef_ij (y_i - w_j) from sums = coef @ [1, w], one matmul for
    both the row sums and the weighted sums of w."""
    return sums[:, :1] * y - sums[:, 1:]


def _raise_ref(sums: np.ndarray, k: int, shift: float) -> None:
    """Move in place the two parts of a Boltzmann gradient's sums, those of
    s (1 + alpha (c - ref)) and of s for s = exp(alpha (c - ref)), to a
    reference shift / alpha higher."""
    sums[:k] -= shift * sums[k:]
    sums *= math.exp(-shift)


def _box_reach(y: np.ndarray, w: np.ndarray) -> float:
    """The largest distance between a point of y's bounding box and one of
    w's, which bounds every pair distance."""
    # half the per-axis spans, which cannot overflow, then twice their norm
    half = np.maximum(w.max(axis=0) / 2 - y.min(axis=0) / 2,
                      y.max(axis=0) / 2 - w.min(axis=0) / 2)
    return 2.0 * math.hypot(*half.tolist())


# the exponent floor of float32 tiles: every exponent is clamped to it before
# `exp`, so every exponential factor is at least e^-30, and two of them times
# one more factor down to 1 / `_FLOAT32_SPAN` stay a normal float32 (2e-36
# against the smallest normal, 1.2e-38). Subnormal float32 arithmetic is slow:
# with the floor at -80, the products of two e^-80 factors in `leg_with_grad`
# fell below the smallest normal, and a call at n = 2046 took 36 ms against
# 17 ms at -40 and 28 ms on float64 tiles. Next to the largest weight, 1, a
# weight below e^-30 = 9.4e-14 is far below float32's precision, so the floor
# moves a sum of m weights by at most m e^-30
_EXP_FLOOR = -30.0

# float32 tiles run only where every scale their factors are formed from lies
# within [1 / _FLOAT32_SPAN, _FLOAT32_SPAN]: past the top, products of two or
# three such factors could overflow float32 or feed -inf times 0; below the
# bottom, squared distances and 1 / sigma^2 lose their precision or underflow,
# and the Gaussian affinities of `leg_with_grad` all round to 1
_FLOAT32_SPAN = 2.0 ** 32


def _tile_dtype(tile_dtype, *scales: float) -> np.dtype:
    """The dtype of the tiles: float64, or float32 when that is asked for
    and every one of the scales (all positive, from the inputs) lies within
    float32's reach, [1 / `_FLOAT32_SPAN`, `_FLOAT32_SPAN`]."""
    dtype = np.dtype(tile_dtype)
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"tile_dtype must be float64 or float32, got {dtype}")
    if dtype == np.float32 and all(1.0 / _FLOAT32_SPAN <= s <= _FLOAT32_SPAN for s in scales):
        return dtype
    return np.dtype(np.float64)


def _floor(exponents: np.ndarray, dtype: np.dtype) -> None:
    """Clamp the exponents of float32 tiles at `_EXP_FLOOR`, in place."""
    if dtype == np.float32:
        np.maximum(exponents, _EXP_FLOOR, out=exponents)


# ---------------------------------------------------------------------------
# smooth Hausdorff surrogate
# ---------------------------------------------------------------------------


def hand_with_grad(y, w, alpha: float, *, tile_dtype=np.float64) -> tuple[float, np.ndarray]:
    """Smooth two-sided Hausdorff surrogate between clouds y and w, plus its
    gradient with respect to the coordinates of y.

    Soft-max over points of the soft-min of the pairwise distances, in both
    directions, summed. Symmetric in (y, w); converges to the modified
    (sum-form) Hausdorff distance exponentially fast in the sharpness alpha,
    which must be positive, and whose product with the largest pair distance
    that the clouds' bounding boxes allow must stay below the largest float.
    Every coordinate must stay below `geometry._COORD_BOUND` in magnitude.
    Coincident pairs (zero distance) get a zero subgradient contribution.
    Training moves only y, the mapped points; by the symmetry, the gradient
    in w is `hand_with_grad(w, y, alpha)[1]`.

    One pass over row tiles of the distances d from w to y, each tile all
    of y against some rows of w, keeps memory O(n + m) and forms each d
    once. A point's soft-min weights are exp(alpha low - alpha d), low its
    nearest distance, and the gradient coefficient of a pair is its weight
    times (1 + alpha v) / d - alpha for v the point's soft-min: the
    soft-min's derivative in d over d, scaled per point by its Boltzmann
    gradient over its weight sum.

    A tile holds whole rows of w, so the soft-min of a w point, its clip and
    its pair coefficients are exact in the tile. Its Boltzmann gradient
    needs every soft-min: it is s (1 + alpha (c - ref)) - s alpha (B - ref)
    over the sum of s = exp(alpha (c - ref)), for B the Boltzmann average
    and ref the running largest soft-min, so the two parts go into two sums
    of coefficient * [1, w] per y point, rescaled as ref rises.

    The soft-min of a y point is an online softmax (Milakov & Gimelshein
    2018) of running minimum, maximum, weight sum and weighted distance
    sum, rescaled as the minimum drops. Its gradient is carried as the sums
    of weight / d * [1, w], coincident pairs left out, and of weight *
    [1, w], which take their scales, the Boltzmann gradient over the weight
    sum times 1 + alpha v and alpha, at the end. The rows of w run in two
    fixed halves, the first on a worker thread (`_halves.split`). Each half
    keeps its own state for every y point; the two are rescaled to common
    references and added, half 0 first.

    tile_dtype (float64 or float32) is the precision of the tiles'
    element work: distances, exponentials, pair coefficients and the
    matmuls on [1, w]. The per-point state, the weight sums, the references,
    the merge of the halves, the value and the gradient are float64 either
    way. Both precisions take the clouds centred on their common box;
    float32 tiles also clamp every exponent at `_EXP_FLOOR`, and run only
    where the box-allowed largest distance D, D^2 and alpha D are within
    float32's reach (`_tile_dtype`); elsewhere the float64 tiles run.
    """
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    y, w = _same_dim_clouds(y, w)
    a = float(alpha)  # a Python float, which float32 tiles take as float32
    reach = _box_reach(y, w)
    if not a * reach < sys.float_info.max:
        raise ValueError(
            f"alpha = {alpha!r} times the largest pair distance the clouds' bounding "
            f"boxes allow, {reach:.6g}, must stay below {sys.float_info.max:.6g}"
        )
    dt = _tile_dtype(tile_dtype, reach, reach * reach, a * reach)
    n, m, k = len(y), len(w), y.shape[1] + 1
    # the tiles take coordinates about the middle of the clouds' common box:
    # each stays within the reach, so alpha times it is finite
    centre = np.minimum(y.min(axis=0), w.min(axis=0)) / 2 + np.maximum(
        y.max(axis=0), w.max(axis=0)) / 2
    tile_y, tile_w = ((p - centre).astype(dt, copy=False) for p in (y, w))
    ones_w = np.vstack([np.ones(m, dt), tile_w.T])  # [1, w] by columns
    c = np.empty(m)  # the soft-min of each w point

    def tiles(lo: int, hi: int):
        """Rows lo:hi of w: their soft-mins into c, and the state of this
        half. For each y point: the running minimum, maximum and weighted
        distance sum of its distances to these rows, and its sums of
        weight / d * [1, w] and weight * [1, w]. For the rows: their running
        largest soft-min ref, and per y point the two sums of their
        Boltzmann gradient's parts."""
        low, high, dot = np.full(n, np.inf), np.full(n, -np.inf), np.zeros(n)
        sums, w_sums, ref = np.zeros((2 * k, n)), np.zeros((2 * k, n)), None
        # a coincident pair divides by zero, and its coefficients are zeroed
        with np.errstate(divide="ignore"):
            for t, d, e, (f,) in _row_tiles(tile_w[lo:hi], tile_y, 1, _HAND_TILE_SCALE):
                t = slice(lo + t.start, lo + t.stop)
                np.sqrt(d, out=d)
                row_low = d.min(axis=1)
                zero = d == 0.0 if row_low.min() == 0.0 else None
                # the rows: the soft-mins of the w points, exact
                np.multiply(d, -a, out=e)
                e += (a * row_low)[:, None]
                _floor(e, dt)
                np.exp(e, out=e)
                e_sum = e.sum(axis=1, dtype=np.float64)
                c[t] = v = np.clip(np.vecdot(d, e) / e_sum, row_low, d.max(axis=1))
                # the columns: one step of the soft-mins of the y points
                col_low = np.minimum(low, d.min(axis=0))
                rescale = np.exp(a * (col_low - low))
                low = col_low
                np.multiply(d, -a, out=f)
                f += (a * low).astype(dt, copy=False)
                _floor(f, dt)
                np.exp(f, out=f)
                np.maximum(high, d.max(axis=0), out=high)
                dot *= rescale
                dot += np.einsum("ij,ij->j", d, f)
                sums *= rescale
                sums[k:] += ones_w[:, t] @ f
                f /= d
                if zero is not None:
                    f[zero] = 0.0
                sums[:k] += ones_w[:, t] @ f
                # the rows' Boltzmann gradients, against the running largest v
                top = float(v.max())
                if ref is None:
                    ref = top
                elif top > ref:
                    _raise_ref(w_sums, k, a * (top - ref))
                    ref = top
                x = a * (v - ref)
                _floor(x, dt)
                s = np.exp(x) / e_sum
                scaled = np.vstack([s * (1.0 + x) * ones_w[:, t],
                                    s * ones_w[:, t]]).astype(dt, copy=False)
                # the rows' pair coefficients e ((1 + a v) / d - a), in e
                np.divide((1.0 + a * v).astype(dt, copy=False)[:, None], d, out=d)
                d -= a
                e *= d
                if zero is not None:
                    e[zero] = 0.0
                w_sums += scaled @ e
        return low, high, dot, sums, ref, w_sums

    # the halves' states, rescaled to the common references and added
    halves = _halves.split(tiles, m, n)
    low = np.minimum.reduce([h[0] for h in halves])
    high = np.maximum.reduce([h[1] for h in halves])
    ref = max(h[4] for h in halves)
    dot = sums = w_sums = 0.0
    for part_low, _, part_dot, part_sums, part_ref, part_w_sums in halves:
        rescale = np.exp(a * (low - part_low))
        dot = dot + part_dot * rescale
        sums = sums + part_sums * rescale
        _raise_ref(part_w_sums, k, a * (ref - part_ref))
        w_sums = w_sums + part_w_sums
    r_sum = sums[k]
    r = np.clip(dot / r_sum, low, high)
    b = boltzmann(c, a)
    # the w points' parts, s (1 + a (c - ref)) - s a (b - ref), over sum s
    grad = (w_sums[:k] - a * (b - ref) * w_sums[k:]) / np.exp(a * (c - ref)).sum()
    # the y points' scales bg(r) / r_sum times (1 + a r) / d - a
    grad += boltzmann_gradient(r, a) / r_sum * ((1.0 + a * r) * sums[:k] - a * sums[k:])
    return boltzmann(r, a) + b, _pull(grad.T, tile_y.astype(np.float64, copy=False))


# ---------------------------------------------------------------------------
# localized geometric distortion
# ---------------------------------------------------------------------------


def leg_with_grad(
    original, mapped, lambda_inv_values, sigma: float, *, tile_dtype=np.float64
) -> tuple[float, np.ndarray, np.ndarray]:
    """Localized distortion energy of a mapped cloud, plus its gradients in the
    mapped coordinates and in the per-point inverse factors.

    Mean over all ordered point pairs (diagonal included, it vanishes) of the
    squared mismatch between the Gaussian affinity of the originals and the
    lambda-compensated Gaussian affinity of their images, at kernel width
    sigma (finite and at least `_SIGMA_FLOOR`), where
    lambda_ij = 1 / (v_i + v_j) for the inverse factors v (positive and
    finite, one per point). Both clouds' coordinates must stay below
    `geometry._COORD_BOUND` in magnitude. Zero exactly when every image pair distance
    equals lambda_ij times the original distance.

    The mismatch, both affinities and lambda are symmetric in (i, j), so
    only the pairs j >= i are formed, in row bands [lo, hi) x [lo, n) of
    the upper triangle (`geometry._row_tiles`), keeping memory O(n) beyond
    the band buffers. A band's row sums go to its rows and the column sums
    of its part right of the diagonal block to those columns; its value
    counts twice, less its diagonal block, which holds both orders of its
    pairs. The bands run in two fixed halves cut where each holds half the
    pairs, the first on a worker thread (`_halves.split`). Each half keeps
    its own gradients, and the halves are added half 0 first.

    tile_dtype (float64 or float32) is the precision of the bands' element
    work: distances, affinities, lambda, the matmuls on [1, y] and the dots
    of each row's mismatches; the sums of those dots and of the rows, the
    value and the gradients are float64 either way. Both precisions take
    each cloud centred on its box; float32 bands also clamp every exponent
    at `_EXP_FLOOR`, and run only where the larger box-allowed largest
    distance D of the two clouds, D^2, 1 / sigma^2, D^2 / sigma^2, the
    largest inverse factor and its square are within float32's reach
    (`_tile_dtype`); elsewhere the float64 bands run.
    """
    _check_sigma("sigma", sigma)
    x = as_cloud(original)
    y = as_cloud(mapped, dim=2)
    _check_coord_bound(x, "original")
    _check_coord_bound(y, "mapped")
    n = len(x)
    if len(y) != n:
        raise ValueError(f"original has {n} points but mapped has {len(y)}")
    v = np.asarray(lambda_inv_values, dtype=np.float64).ravel()
    if v.size != n:
        raise ValueError(f"{v.size} inverse factors for {n} points")
    if not (np.isfinite(v).all() and (v > 0.0).all()):
        raise ValueError("inverse factors must be positive and finite")
    neg_inv_s2 = -1.0 / float(sigma * sigma)  # as alpha in `hand_with_grad`
    reach, top = max(_box_reach(x, x), _box_reach(y, y)), float(v.max())
    dt = _tile_dtype(tile_dtype, reach, reach * reach, -neg_inv_s2,
                     reach * reach * -neg_inv_s2, top, top * top)
    # both precisions take each cloud about the middle of its box
    x, y = ((p - (p.min(axis=0) / 2 + p.max(axis=0) / 2)).astype(dt, copy=False)
            for p in (x, y))
    v = v.astype(dt, copy=False)
    y_lhs, y_rhs = _diff_factors(y, y)
    v_lhs, v_rhs = _diff_factors(v[:, None], -v[:, None])  # v_i - (-v_j)
    ones_y = np.column_stack([np.ones(n, dt), y])
    pull_y = y.astype(np.float64, copy=False)

    def bands(lo: int, hi: int) -> tuple[float, np.ndarray, np.ndarray]:
        """Bands of rows lo:hi: their part of the sum of squares and of
        both gradients."""
        value, g_mapped, g_inv = 0.0, np.zeros_like(pull_y), np.zeros(n)
        # for a tiny sigma a scaled squared distance can overflow to -inf; its
        # exp is the exact 0, which is the right affinity, so no warning is due
        with np.errstate(over="ignore"):
            for t, e, inv_lam, (sqy, hy) in _row_tiles(x[lo:hi], x[lo:], 2, _TILE_SCALE,
                                                       upper=True):
                rows, cols = slice(lo + t.start, lo + t.stop), slice(lo + t.start, n)
                right = slice(rows.stop, n)  # the columns right of the diagonal block
                side = len(e)
                # e = gx - hy, the affinity mismatch, with gx = exp(-|x_i - x_j|^2 / s2),
                # hy = exp(-sqy / (s2 lam^2)), sqy = |y_i - y_j|^2, 1 / lam = v_i + v_j
                e *= neg_inv_s2
                _floor(e, dt)
                np.exp(e, out=e)
                # inv_lam is the distance pass's scratch until it is formed
                _sq_dists_into(y_lhs[:, rows], y_rhs[:, :, cols], sqy, inv_lam)
                np.matmul(v_lhs[0, rows], v_rhs[0, :, cols], out=inv_lam)
                np.multiply(inv_lam, inv_lam, out=hy)
                hy *= sqy
                hy *= neg_inv_s2
                _floor(hy, dt)
                np.exp(hy, out=hy)
                e -= hy
                block = e[:, :side]
                # dots of one row each, added in float64
                value += (2.0 * float(np.vecdot(e, e).sum(dtype=np.float64))
                          - float(np.vecdot(block, block).sum(dtype=np.float64)))
                # with p = 4 e hy and both orders of each pair:
                # d value / d y_i = sum_j 2 p (y_i - y_j) / (n^2 s2 lam^2),
                # d value / d v_i = sum_j 2 p sqy / (n^2 s2 lam)
                e *= hy
                e *= inv_lam
                sqy *= e
                g_inv[rows] += sqy.sum(axis=1)
                g_inv[right] += sqy[:, side:].sum(axis=0)
                e *= inv_lam
                g_mapped[rows] += _pull(e @ ones_y[cols], pull_y[rows])
                g_mapped[right] += _pull(e[:, side:].T @ ones_y[rows], pull_y[right])
        return value, g_mapped, g_inv

    # the cut row that leaves half the n (n + 1) / 2 pairs j >= i on each side
    cut = round(n * (1.0 - math.sqrt(0.5)))
    value, g_mapped, g_inv = (sum(part) for part in zip(*_halves.split(bands, n, n, cut)))
    k = -8.0 * neg_inv_s2 / (n * n)
    return value / (n * n), g_mapped * k, g_inv * k


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
    alpha: float,
    sigma: float,
    n_base: int | None = None,
    *,
    tile_dtype=np.float64,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Combined objective on one batch, plus its gradients in the mapped
    coordinates and in the inverse factors.

    `original`/`mapped`/`lambda_inv_values` cover the batch with landmark
    points appended; rows before `n_base` (default: all) are the non-landmark
    batch the domain surrogate term sees. alpha is the sharpness of the
    domain and landmark surrogates, sigma the kernel width of the distortion
    energy. `landmark_rows` gives, per landmark region, the row indices of
    its points inside `mapped`; `targets` the corresponding planar target
    clouds. With beta1 == 0 the distortion term is skipped entirely,
    `lambda_inv_values` may be None and the gradient in the inverse factors
    is zero. tile_dtype, float64 or float32, is the precision of the
    energies' tiles (`hand_with_grad`, `leg_with_grad`).
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
        leg_val, g_leg_y, g_leg_v = leg_with_grad(x, y, lambda_inv_values, sigma,
                                                  tile_dtype=tile_dtype)
        g_mapped += cfg.beta1 * g_leg_y
        g_v = cfg.beta1 * g_leg_v

    hand_val = 0.0
    if cfg.beta2 > 0:
        hand_val, g_hand_y = hand_with_grad(y[:n_base], domain_sample, alpha,
                                            tile_dtype=tile_dtype)
        g_mapped[:n_base] += cfg.beta2 * g_hand_y

    lm_val = 0.0
    if cfg.beta3 > 0:
        for rows, q in zip(landmark_rows, targets):
            v, g_k = hand_with_grad(y[rows], q, alpha, tile_dtype=tile_dtype)
            lm_val += v
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
    mesh: TriangleMesh, mapped, lambda_inv_values, sigma: float
) -> BoundAuditReport:
    """Evaluate both sides of the distortion-energy angle bound on one instance,
    at kernel width sigma.

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
    d_sigma = leg_with_grad(mesh.vertices, mapped, lambda_inv_values, sigma)[0]
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
    eta = 1.0 / sigma

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
