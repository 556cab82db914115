"""Training energies: smooth Hausdorff surrogate, localized distortion, landmarks.

All energies are plain functions of arrays plus small config dataclasses.
Each is one *_with_grad function that returns the value together with its
analytic gradients with respect to the mapped coordinates (and the
inverse-conformal-factor values where relevant); callers that need only the
value take element [0]. Gradients are exact derivatives of the implemented
formulas; finite-difference agreement is enforced in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boltzmann import boltzmann, boltzmann_gradient, boltzmann_rows_grad
from .geometry import (
    TriangleMesh,
    _sq_dists,
    angle_distortion,
    as_cloud,
    edge_incidence,
    pairwise_distances,
)

__all__ = [
    "HandConfig",
    "LegConfig",
    "ObjectiveConfig",
    "hand_with_grad",
    "leg_with_grad",
    "lambda_pair_from_inverse",
    "lambda_inv_chain",
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


@dataclass(frozen=True)
class LegConfig:
    """Gaussian kernel width of the localized distortion energy."""

    sigma: float = 0.5

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


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
    """
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    a = cfg.alpha
    d = pairwise_distances(y, w)  # validates both clouds

    r, g1 = boltzmann_rows_grad(d, -a)  # g1[i,k] = d r_i / d d_ik
    term1 = boltzmann(r, a)
    g1 *= boltzmann_gradient(r, a)[:, None]

    # d.T stays a transposed view: a contiguous copy would sum its rows in
    # another order and change the bits
    c, jc = boltzmann_rows_grad(d.T, -a)  # jc[k,i] = d c_k / d d_ik
    term2 = boltzmann(c, a)
    jc *= boltzmann_gradient(c, a)[:, None]

    # coef = (g1 + jc.T) / d where d > 0, else 0
    coef = g1
    coef += jc.T
    del jc
    with np.errstate(invalid="ignore", divide="ignore"):
        coef /= d
    coef[~(d > 0.0)] = 0.0
    gy = coef.sum(axis=1)[:, None] * y - coef @ w
    gw = coef.sum(axis=0)[:, None] * w - coef.T @ y
    return term1 + term2, gy, gw


# ---------------------------------------------------------------------------
# localized geometric distortion
# ---------------------------------------------------------------------------


def leg_with_grad(
    original, mapped, lambda_pair, cfg: LegConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Localized distortion energy of a mapped cloud, plus its gradients in the
    mapped coordinates and in lambda_pair.

    Mean over all ordered point pairs (diagonal included, it vanishes) of the
    squared mismatch between the Gaussian affinity of the originals and the
    lambda-compensated Gaussian affinity of their images. Zero exactly when
    every image pair distance equals lambda_ij times the original distance.
    """
    x = as_cloud(original)
    y = as_cloud(mapped, dim=2)
    n = len(x)
    if len(y) != n:
        raise ValueError(f"original has {n} points but mapped has {len(y)}")
    lam = np.asarray(lambda_pair, dtype=np.float64)
    if lam.shape != (n, n):
        raise ValueError(f"lambda_pair must have shape ({n}, {n}), got {lam.shape}")
    if not (np.isfinite(lam).all() and (lam > 0.0).all()):
        raise ValueError("lambda_pair entries must be positive and finite")
    s2 = cfg.sigma * cfg.sigma

    # e = gx - hy, the affinity mismatch, with gx = exp(-|x_i - x_j|^2 / s2),
    # hy = exp(-sqy / (s2 lam^2)) and sqy = |y_i - y_j|^2, built in place
    e = _sq_dists(x, x)
    np.negative(e, out=e)
    e /= s2
    np.exp(e, out=e)  # gx
    sqy = _sq_dists(y, y)
    q = lam * s2
    q *= lam
    hy = np.negative(sqy)
    hy /= q
    del q
    np.exp(hy, out=hy)
    e -= hy
    buf = e * e
    value = float(buf.sum() / (n * n))

    # d value / d h_ij = -2 e_ij / n^2, h_ij = exp(-sqy_ij / (s2 lam_ij^2))
    # p = 4 e hy; k = p / (n^2 s2 lam^2); g_lambda = -p sqy / (n^2 s2 lam^3).
    # Negating p gives the bits of -4 e hy: rounding is symmetric in sign.
    p = np.multiply(e, 4.0, out=buf)
    p *= hy
    del e, hy
    k = lam * (n * n * s2)
    k *= lam
    np.divide(p, k, out=k)
    c = np.add(k, k.T)
    del k
    g_mapped = c.sum(axis=1)[:, None] * y - c @ y
    del c
    np.negative(p, out=p)
    p *= sqy
    del sqy
    den = np.power(lam, 3)
    den *= n * n * s2
    g_lambda = np.divide(p, den, out=p)
    return value, g_mapped, g_lambda


def lambda_pair_from_inverse(values) -> np.ndarray:
    """Pairwise conformal factors from per-point inverse values.

    lambda_ij = 1 / (v_i + v_j). Values must be non-negative with every pair
    sum positive; the result is symmetric and strictly positive.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("values is empty")
    if not np.isfinite(v).all():
        raise ValueError("values contain non-finite entries")
    if (v < 0.0).any():
        raise ValueError("inverse factors must be non-negative")
    s = v[:, None] + v[None, :]
    if (s <= 0.0).any():
        i, j = np.argwhere(s <= 0.0)[0]
        raise ValueError(f"pair ({int(i)}, {int(j)}) of inverse factors sums to zero")
    return np.divide(1.0, s, out=s)


def lambda_inv_chain(g_lambda: np.ndarray, lambda_pair: np.ndarray) -> np.ndarray:
    """Pull a gradient in lambda_pair back to the per-point inverse values.

    With lambda_ij = 1/(v_i + v_j): d lambda_ij / d v_a = -lambda_ij^2 for
    a in {i, j}, both roles accumulated (the diagonal picks up both).
    """
    t = g_lambda * lambda_pair
    t *= lambda_pair
    return -(t.sum(axis=1) + t.sum(axis=0))


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
    v = None
    if cfg.beta1 > 0:
        if lambda_inv_values is None:
            raise ValueError("lambda_inv_values is required when beta1 > 0")
        v = np.asarray(lambda_inv_values, dtype=np.float64).ravel()
        if v.size != len(x):
            raise ValueError(f"{v.size} inverse factors for {len(x)} points")
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
        lam = lambda_pair_from_inverse(v)
        leg_val, g_leg_y, g_lam = leg_with_grad(x, y, lam, cfg.leg)
        g_mapped += cfg.beta1 * g_leg_y
        g_v = cfg.beta1 * lambda_inv_chain(g_lam, lam)

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
    mesh: TriangleMesh, mapped, lambda_pair, cfg: LegConfig
) -> BoundAuditReport:
    """Evaluate both sides of the distortion-energy angle bound on one instance.

    lambda0 / LambdaT are taken from the instance itself: the smallest
    lambda_pair entry and the largest image-to-original length ratio over the
    mesh edges (any valid bounding pair satisfies the statement; these give
    the tightest audit). Zero-length original edges are rejected.
    """
    mapped = as_cloud(mapped, dim=2)
    if len(mapped) != len(mesh.vertices):
        raise ValueError(
            f"mapped cloud has {len(mapped)} points for {len(mesh.vertices)} vertices"
        )
    if len(mesh.triangles) == 0:
        raise ValueError("mesh has no triangles")
    n = len(mesh.vertices)
    lam = np.asarray(lambda_pair, dtype=np.float64)
    if lam.shape != (n, n):
        raise ValueError(f"lambda_pair must have shape ({n}, {n}), got {lam.shape}")
    if not (np.isfinite(lam).all() and (lam > 0.0).all()):
        raise ValueError("lambda_pair entries must be positive and finite")

    edges = np.array(sorted(edge_incidence(mesh).keys()), dtype=np.int64)
    ei, ej = edges[:, 0], edges[:, 1]
    dx = np.linalg.norm(mesh.vertices[ei] - mesh.vertices[ej], axis=1)
    if (dx == 0.0).any():
        k = int(np.flatnonzero(dx == 0.0)[0])
        raise ValueError(f"zero-length original edge ({int(ei[k])}, {int(ej[k])})")
    dy = np.linalg.norm(mapped[ei] - mapped[ej], axis=1)

    lambda0 = float(lam[ei, ej].min())
    lambda_t = float((dy / dx).max())
    r = max(lambda_t / lambda0, 1.0)
    big_r = float(dx.max())
    eta = 1.0 / cfg.sigma

    d_sigma = leg_with_grad(mesh.vertices, mapped, lam, cfg)[0]
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
