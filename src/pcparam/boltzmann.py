"""Boltzmann weighted average: a smooth, bounded max/min surrogate.

B_a(x) = sum_i x_i e^(a x_i) / sum_i e^(a x_i) = x . softmax(a x)

a > 0 approaches max(x), a < 0 approaches min(x), a = 0 is the plain mean.
Always within [min(x), max(x)], and B_(-a)(x) = -B_a(-x). Exponents are
evaluated max-shifted so large |a| never overflows.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "boltzmann",
    "boltzmann_gradient",
    "extremum_error_and_bound",
]


def _validate(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"values must be a 1-d array, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("values is empty")
    if not np.isfinite(x).all():
        raise ValueError("values contain non-finite entries")
    return x


def _softmax_and_average(values, alpha: float):
    """(x, softmax(alpha x), B_alpha(x)) of validated values."""
    x = _validate(values)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    w = np.exp(alpha * x - (alpha * x).max())
    s = w / w.sum()
    # weighted mean can stray a few ulp outside [min, max]; clamp it back
    return x, s, np.clip((x * s).sum(), x.min(), x.max())


def boltzmann(values, alpha: float) -> float:
    """Boltzmann average of a 1-d array. alpha = 0 gives the arithmetic mean."""
    return float(_softmax_and_average(values, alpha)[2])


def boltzmann_gradient(values, alpha: float) -> np.ndarray:
    """Gradient of boltzmann() in its values.

    grad_i = softmax(a x)_i * (1 + a (x_i - B_a(x))); rows sum to 1 at a = 0.
    """
    x, s, b = _softmax_and_average(values, alpha)
    return s * (1.0 + alpha * (x - b))


def extremum_error_and_bound(values, alpha: float) -> tuple[float, float, float, float]:
    """Actual and guaranteed |B - extremum| for both signs of a positive alpha.

    Returns (err_max, bound_max, err_min, bound_min) where

        |B_a(x)  - max x| <= (n/m) exp(-a (max x - x_next)) |x|_2
        |B_-a(x) - min x| <= (n/l) exp(-a (x_prev - min x)) |x|_2

    with m, l the multiplicities of max/min and x_next / x_prev the nearest
    strictly smaller / larger values. Requires alpha > 0 and a non-constant
    vector (a constant vector has no gap; callers skip those).
    """
    x = _validate(values)
    if alpha <= 0:
        raise ValueError("alpha must be positive for the extremum bound")
    xmax, xmin = x.max(), x.min()
    if xmax == xmin:
        raise ValueError("constant vector: extremum gap undefined")
    n = x.size
    norm = float(np.linalg.norm(x))

    m = int((x == xmax).sum())
    x_next = x[x < xmax].max()
    bound_max = (n / m) * np.exp(-alpha * (xmax - x_next)) * norm
    err_max = abs(boltzmann(x, alpha) - xmax)

    l = int((x == xmin).sum())
    x_prev = x[x > xmin].min()
    bound_min = (n / l) * np.exp(-alpha * (x_prev - xmin)) * norm
    err_min = abs(boltzmann(x, -alpha) - xmin)

    return float(err_max), float(bound_max), float(err_min), float(bound_min)
