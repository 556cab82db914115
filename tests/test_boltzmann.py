"""Soft extremum operator: values, gradients, bounds, and the duality."""

import math

import numpy as np
import pytest

from pcparam.boltzmann import (
    boltzmann,
    boltzmann_gradient,
    extremum_error_and_bound,
)


def _reference_boltzmann(values, alpha):
    # direct formula with exponent shifting, written independently of the
    # implementation under test
    values = np.asarray(values, dtype=np.float64)
    t = alpha * values
    e = np.exp(t - t.max())
    return float((values * e).sum() / e.sum())


def test_two_point_closed_form():
    # B_1((0, 1)) = e / (1 + e)
    got = boltzmann(np.array([0.0, 1.0]), 1.0)
    assert got == pytest.approx(math.e / (1.0 + math.e), rel=1e-15)


def test_alpha_zero_is_mean():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(0, 5, rng.integers(1, 30))
        assert boltzmann(x, 0.0) == pytest.approx(x.mean(), rel=1e-12, abs=1e-12)


def test_matches_reference_formula():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(0, rng.uniform(0.1, 50), rng.integers(1, 64))
        for alpha in (-30.0, -2.0, 0.5, 3.0, 25.0):
            assert boltzmann(x, alpha) == pytest.approx(
                _reference_boltzmann(x, alpha), rel=1e-12, abs=1e-12
            )


def test_bounded_by_min_and_max():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(0, 10, rng.integers(1, 40))
        alpha = rng.uniform(-2000, 2000)
        b = boltzmann(x, alpha)
        assert x.min() <= b <= x.max()


def test_extreme_alpha_hits_extremes_exactly():
    x = np.array([0.0, 0.5, 1.0])
    assert boltzmann(x, 1e6) == 1.0
    assert boltzmann(x, -1e6) == 0.0


def test_duality():
    # B_{-alpha}(x) == -B_alpha(-x)
    rng = np.random.default_rng(19)
    for _ in range(30):
        x = rng.normal(0, 3, rng.integers(2, 32))
        alpha = rng.uniform(0.1, 40)
        assert boltzmann(x, -alpha) == pytest.approx(
            -boltzmann(-x, alpha), rel=1e-12, abs=1e-12
        )


def test_monotone_in_alpha():
    rng = np.random.default_rng(23)
    x = rng.normal(0, 1, 16)
    vals = [boltzmann(x, a) for a in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gradient_formula_and_fd():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(20):
        n = int(rng.integers(2, 20))
        x = rng.normal(0, 2, n)
        alpha = rng.uniform(-5, 5)
        g = boltzmann_gradient(x, alpha)
        fd = np.zeros(n)
        for i in range(n):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd[i] = (boltzmann(xp, alpha) - boltzmann(xm, alpha)) / (2 * eps)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


def test_gradient_sums_to_one_at_alpha_zero():
    # at alpha = 0 the operator is the mean, so the gradient is 1/n each
    x = np.array([3.0, -1.0, 2.0, 0.5])
    np.testing.assert_allclose(boltzmann_gradient(x, 0.0), np.full(4, 0.25))


def test_extremum_bound_holds_on_random_vectors():
    # max/min approximation error against the exponential-decay bound
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(2, 64))
        x = rng.normal(0, 10.0 ** rng.uniform(-1, 1.5), n)
        for alpha in (1.0, 2.0, 5.0, 10.0, 50.0):
            err_max, bound_max, err_min, bound_min = extremum_error_and_bound(x, alpha)
            assert err_max <= bound_max
            assert err_min <= bound_min
            checked += 1
    assert checked == 1500


def test_extremum_bound_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        extremum_error_and_bound(np.array([2.0, 2.0, 2.0]), 5.0)
    with pytest.raises(ValueError):
        extremum_error_and_bound(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        extremum_error_and_bound(np.array([0.0, 1.0]), -2.0)


def test_input_validation():
    with pytest.raises(ValueError):
        boltzmann(np.array([]), 1.0)
    with pytest.raises(ValueError):
        boltzmann(np.array([1.0, np.nan]), 1.0)
    with pytest.raises(ValueError):
        boltzmann(np.array([1.0, 2.0]), np.inf)
    with pytest.raises(ValueError):
        boltzmann(np.array([[1.0, 2.0]]), 1.0)  # not a vector
