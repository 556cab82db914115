"""Smooth Hausdorff surrogate, localized distortion energy, combined objective."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from pcparam import losses
from pcparam.geometry import TriangleMesh, modified_hausdorff_exact
from pcparam.losses import (
    BoundAuditReport,
    ObjectiveConfig,
    audit_theorem_bound,
    hand_with_grad,
    leg_with_grad,
    total_loss_with_grad,
)


# the sharpness and kernel width the combined-objective tests use
ALPHA, SIGMA = 20.0, 0.5


def _fd_grad(f, x, eps=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        h = np.zeros_like(xf)
        h[i] = eps
        flat[i] = (f((xf + h).reshape(x.shape)) - f((xf - h).reshape(x.shape))) / (
            2 * eps
        )
    return g


def _rel_err(analytic, numeric):
    # vector-norm relative error: entrywise ratios are meaningless once an
    # entry falls below the finite-difference noise floor
    analytic = np.asarray(analytic).ravel()
    numeric = np.asarray(numeric).ravel()
    denom = max(np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


# ---------------------------------------------------------------------------
# smooth Hausdorff surrogate
# ---------------------------------------------------------------------------


def test_hand_singletons_twice_distance():
    alpha = 7.0
    assert hand_with_grad([[0.0, 0.0]], [[3.0, 4.0]], alpha)[0] == 10.0
    assert hand_with_grad([[1.0, 1.0, 1.0]], [[1.0, 1.0, 6.0]], alpha)[0] == 10.0


def test_hand_closed_form_two_vs_one():
    # y = {(0,0),(1,0)}, w = {(0,0)}: hand = e^a/(1+e^a) + e^-a/(1+e^-a)
    a = 2.0
    got = hand_with_grad([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]], a)[0]
    want = np.exp(a) / (1 + np.exp(a)) + np.exp(-a) / (1 + np.exp(-a))
    assert got == pytest.approx(want, rel=1e-14)


def test_hand_symmetric():
    # symmetric up to summation order: numpy reduces transposed rows in a
    # different blocking, so allow an ulp-scale difference
    rng = np.random.default_rng(3)
    alpha = 11.0
    for _ in range(20):
        y = rng.normal(0, 1, (int(rng.integers(1, 15)), 2))
        w = rng.normal(0, 1, (int(rng.integers(1, 15)), 2))
        assert hand_with_grad(y, w, alpha)[0] == pytest.approx(
            hand_with_grad(w, y, alpha)[0], rel=1e-13
        )


def test_hand_converges_to_modified_hausdorff():
    rng = np.random.default_rng(12)
    for _ in range(10):
        y = rng.uniform(-1, 1, (int(rng.integers(3, 20)), 2))
        w = rng.uniform(-1, 1, (int(rng.integers(3, 20)), 2))
        exact = modified_hausdorff_exact(y, w)
        both = np.vstack([y, w])
        diam = np.sqrt(((both[:, None] - both[None]) ** 2).sum(-1)).max()
        err_lo = abs(hand_with_grad(y, w, 5.0)[0] - exact)
        err_hi = abs(hand_with_grad(y, w, 80.0)[0] - exact)
        assert err_hi <= err_lo + 1e-12
        # near-ties between point distances slow the exponential rate, so the
        # sharp claim is percent-of-diameter accuracy at alpha = 100
        err_tight = abs(hand_with_grad(y, w, 100.0)[0] - exact)
        assert err_tight < 1e-2 * diam


def test_hand_gradient_fd():
    rng = np.random.default_rng(21)
    alpha = 6.0
    for _ in range(10):
        y = rng.normal(0, 1, (int(rng.integers(2, 10)), 2))
        w = rng.normal(0, 1, (int(rng.integers(2, 10)), 2))
        _, gy = hand_with_grad(y, w, alpha)
        gw = hand_with_grad(w, y, alpha)[1]
        fy = _fd_grad(lambda p: hand_with_grad(p, w, alpha)[0], y)
        fw = _fd_grad(lambda p: hand_with_grad(y, p, alpha)[0], w)
        assert _rel_err(gy, fy) < 1e-6
        assert _rel_err(gw, fw) < 1e-6


def test_hand_gradient_finite_at_coincident_points():
    y = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    w = np.array([[0.0, 0.0], [2.0, 1.0]])
    val, gy = hand_with_grad(y, w, 5.0)
    gw = hand_with_grad(w, y, 5.0)[1]
    assert np.isfinite(val)
    assert np.isfinite(gy).all()
    assert np.isfinite(gw).all()


def test_hand_config_validation():
    for alpha in (0.0, -3.0, float("nan")):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            hand_with_grad([[0.0, 0.0]], [[1.0, 0.0]], alpha)


# ---------------------------------------------------------------------------
# lambda factors
# ---------------------------------------------------------------------------


def _box_reach(y, w):
    """The largest distance between a point of y's bounding box and one of w's."""
    return math.dist(np.maximum(w.max(axis=0) - y.min(axis=0), y.max(axis=0) - w.min(axis=0)),
                     np.zeros(y.shape[1]))


@pytest.mark.parametrize("scale, alpha", [(1.0, 1e308), (1e6, 1e303)])
def test_hand_refuses_an_alpha_that_overflows(scale, alpha):
    rng = np.random.default_rng(3)
    y, w = rng.normal(size=(40, 2)) * scale, rng.normal(size=(30, 2)) * scale
    with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha!r} times")):
        hand_with_grad(y, w, alpha)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
def test_hand_is_finite_up_to_the_alpha_bound(scale):
    # up to where alpha times the box-allowed largest distance reaches the
    # largest float: 1e307 on the unit clouds and 1e301 on the 1e6 ones
    # were finite before that bound, and still are
    rng = np.random.default_rng(3)
    y, w = rng.normal(size=(40, 2)) * scale, rng.normal(size=(30, 2)) * scale
    bound = min(sys.float_info.max / _box_reach(y, w), sys.float_info.max)
    for alpha in (1e307 / scale, 0.5 * bound, 0.999999 * bound):
        if alpha < bound:
            value, gy = hand_with_grad(y, w, alpha)
            assert np.isfinite(value) and np.isfinite(gy).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_energies_refuse_clouds_past_the_coordinate_bound():
    # past about 1e154 the squared pair distances overflow, so both energies
    # refuse every cloud past the bound, naming it, before any arithmetic
    rng = np.random.default_rng(4)
    y, w = rng.normal(size=(20, 2)) * 1e160, rng.normal(size=(15, 2)) * 1e160
    bound = re.escape("must stay below 1e+150")
    for clouds in ((y, w), (w, y), (y / 1e160, w), (y, w / 1e160)):
        with pytest.raises(ValueError, match=bound):
            hand_with_grad(*clouds, 1e-200)
    x = rng.normal(size=(20, 3)) * 1e160
    v = np.ones(20)
    for original, mapped in ((x, y), (x, y / 1e160), (x / 1e160, y)):
        with pytest.raises(ValueError, match=bound):
            leg_with_grad(original, mapped, v, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shift", [1e6, -1e12])
def test_hand_is_finite_up_to_the_alpha_bound_off_the_origin(shift):
    # the bound is on alpha times the pair distances, which do not grow with
    # the clouds' distance from the origin; the gradient sums must not either
    rng = np.random.default_rng(5)
    y, w = rng.normal(size=(40, 2)) + shift, rng.normal(size=(30, 2)) + shift
    bound = sys.float_info.max / _box_reach(y, w)
    for alpha in (0.5 * bound, 0.999999 * bound):
        value, gy = hand_with_grad(y, w, alpha)
        assert np.isfinite(value) and np.isfinite(gy).all()


def _same_bits(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float32_tiles_past_their_reach_run_float64():
    # inputs past float32's reach take the float64 tiles and give their
    # result bit for bit, with no warning: a tiny sigma (1 / sigma^2 is inf
    # in float32, and -inf times the zero diagonal would be nan), clouds at
    # 1e19 (their squared distances overflow float32) and at 1e-30 (theirs
    # underflow), inverse factors at 1e20, and alpha D past float32's max
    rng = np.random.default_rng(8)
    x, y, w = rng.normal(size=(40, 3)), rng.normal(size=(40, 2)), rng.normal(size=(30, 2))
    v = rng.uniform(0.5, 2.0, 40)
    legs = [(x, y, v, 1e-20), (x * 1e19, y * 1e19, v, 0.5), (x, y * 1e19, v, 0.5),
            (x * 1e-30, y * 1e-30, v, 1e-30), (x, y, v * 1e20, 0.5)]
    for args in legs:
        assert _same_bits(leg_with_grad(*args, tile_dtype=np.float32), leg_with_grad(*args))
    alpha_past = 2.0 * float(np.finfo(np.float32).max) / _box_reach(y, w)
    hands = [(y * 1e19, w * 1e19, 20.0), (y * 1e-30, w * 1e-30, 1e30), (y, w, alpha_past)]
    for args in hands:
        assert _same_bits(hand_with_grad(*args, tile_dtype=np.float32), hand_with_grad(*args))
    # within the reach, the float32 tiles run
    assert not _same_bits(leg_with_grad(x, y, v, 0.5, tile_dtype=np.float32),
                          leg_with_grad(x, y, v, 0.5))
    assert not _same_bits(hand_with_grad(y, w, 20.0, tile_dtype=np.float32),
                          hand_with_grad(y, w, 20.0))


def test_float32_tile_reach():
    span = losses._FLOAT32_SPAN
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert losses._tile_dtype(np.float32, 1.0, span, 1.0 / span) == f32
    for scales in ((1.0, 2.0 * span), (1.0 / (2.0 * span), 1.0), (math.inf,)):
        assert losses._tile_dtype(np.float32, *scales) == f64
    assert losses._tile_dtype(np.float64, 1.0) == f64
    with pytest.raises(ValueError, match="tile_dtype must be float64 or float32"):
        hand_with_grad([[0.0, 0.0]], [[1.0, 0.0]], 1.0, tile_dtype=np.float16)


def test_exponent_floor_keeps_float32_products_normal():
    # the product of two exponential factors at the floor, times the
    # smallest other factor the reach admits, is still a normal float32,
    # so no subnormal (slow) arithmetic follows from the clamped exponents
    lowest = np.exp(np.float32(losses._EXP_FLOOR))
    assert lowest * lowest * np.float32(1.0 / losses._FLOAT32_SPAN) >= np.finfo(np.float32).tiny


def test_lambda_pair_values():
    # two points: only the off-diagonal pairs count, with lambda_01 = 1 / (0.1 + 0.4) = 2
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([[0.0, 0.0], [1.5, 0.0]])
    e = np.exp(-1.0) - np.exp(-2.25 / 2.0**2)
    want = 2.0 * e * e / 4.0
    sigma = 1.0
    assert leg_with_grad(x, y, [0.1, 0.4], sigma)[0] == pytest.approx(want, rel=1e-15)
    assert leg_with_grad(x[::-1], y[::-1], [0.4, 0.1], sigma)[0] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("sigma", [1e-160, 1e-200, 5e-324])
def test_leg_config_rejects_sigma_whose_square_is_not_normal(sigma):
    # below sqrt(smallest normal) the energy came out nan, or 1 / sigma^2
    # raised a bare ZeroDivisionError
    with pytest.raises(ValueError, match=f"sigma must be at least .* got {sigma!r}"):
        leg_with_grad(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2), sigma)


def test_leg_config_accepts_sigma_at_the_floor():
    floor = max(math.sqrt(sys.float_info.min), math.sqrt(8.0 / sys.float_info.max))
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.isfinite(leg_with_grad(x, x, np.ones(2), floor)[0])
    with pytest.raises(ValueError, match="sigma"):
        leg_with_grad(x, x, np.ones(2), float(np.nextafter(floor, 0.0)))


@pytest.mark.parametrize("sigma", [1.5e-154, 2.0e-154])
def test_leg_config_rejects_sigma_whose_gradient_scale_overflows(sigma):
    # sigma^2 is a normal float here, but the gradient scale 8 / sigma^2
    # overflowed to inf and both gradients came out nan
    with pytest.raises(ValueError, match=f"sigma must be at least .* got {sigma!r}"):
        leg_with_grad(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2), sigma)


# the exponent -sqy / (sigma lam)^2 overflows to -inf here; exp(-inf) is the
# exact 0 it stands for, so the value is right and no warning is due
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_leg_gradients_are_finite_just_above_the_floor():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 2))
    y[7] = y[3] + 1e-154  # one image pair about sigma apart
    value, g_mapped, g_inv = leg_with_grad(x, y, rng.uniform(0.3, 1.2, 40), 2.2e-154)
    assert np.isfinite(value)
    assert np.isfinite(g_mapped).all() and np.isfinite(g_inv).all()


def test_lambda_pair_validation():
    x = np.zeros((2, 2))
    sigma = 0.5
    with pytest.raises(ValueError, match="inverse factors for"):
        leg_with_grad(x, x, [], sigma)
    with pytest.raises(ValueError, match="positive"):
        leg_with_grad(x, x, [0.5, -0.1], sigma)
    with pytest.raises(ValueError, match="positive"):
        leg_with_grad(x, x, [0.0, 0.0], sigma)
    with pytest.raises(ValueError, match="finite"):
        leg_with_grad(x, x, [np.inf, 1.0], sigma)


def test_lambda_inv_chain_matches_fd():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, (8, 3))
    y = rng.normal(0, 1, (8, 2))
    sigma = 0.7
    v0 = rng.uniform(0.3, 1.5, 8)
    _, _, analytic = leg_with_grad(x, y, v0, sigma)
    numeric = _fd_grad(lambda v: leg_with_grad(x, y, v, sigma)[0], v0)
    assert _rel_err(analytic, numeric) < 1e-6


# ---------------------------------------------------------------------------
# localized distortion energy
# ---------------------------------------------------------------------------


def test_leg_identity_is_exact_zero():
    rng = np.random.default_rng(9)
    x = rng.normal(0, 1, (12, 2))
    v = np.full(12, 0.5)  # lambda = 1
    assert leg_with_grad(x, x, v, 0.6)[0] == 0.0


def test_leg_compensated_scaling_is_fixed_point():
    rng = np.random.default_rng(10)
    x = rng.normal(0, 1, (10, 2))
    for s in (0.25, 3.0):
        v = np.full(10, 1.0 / (2 * s))  # lambda = s
        assert leg_with_grad(x, s * x, v, 0.5)[0] < 1e-12


def test_leg_rigid_invariance():
    rng = np.random.default_rng(11)
    x = rng.normal(0, 1, (9, 3))
    y = rng.normal(0, 1, (9, 2))
    v = rng.uniform(0.2, 1.0, 9)
    sigma = 0.8
    base = leg_with_grad(x, y, v, sigma)[0]
    th = 1.234
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    moved = y @ rot.T + np.array([5.0, -2.0])
    assert abs(leg_with_grad(x, moved, v, sigma)[0] - base) < 1e-10


def test_leg_joint_scale_covariance():
    # scaling the image by c and every lambda by c leaves the energy unchanged
    rng = np.random.default_rng(13)
    x = rng.normal(0, 1, (7, 3))
    y = rng.normal(0, 1, (7, 2))
    v = rng.uniform(0.2, 1.0, 7)
    sigma = 0.5
    c = 1.7
    scaled = leg_with_grad(x, c * y, v / c, sigma)[0]  # lambda scaled by c
    assert abs(scaled - leg_with_grad(x, y, v, sigma)[0]) < 1e-10


def test_leg_positive_when_distorted():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    y = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # one edge stretched
    assert leg_with_grad(x, y, np.full(3, 0.5), 1.0)[0] > 1e-4


def test_leg_gradients_fd():
    rng = np.random.default_rng(14)
    sigma = 0.6
    for _ in range(10):
        n = int(rng.integers(3, 12))
        x = rng.normal(0, 1, (n, 3))
        y = rng.normal(0, 1, (n, 2))
        v = rng.uniform(0.3, 1.2, n)
        _, gy, gv = leg_with_grad(x, y, v, sigma)
        fy = _fd_grad(lambda p: leg_with_grad(x, p, v, sigma)[0], y)
        assert _rel_err(gy, fy) < 1e-6
        fv = _fd_grad(lambda p: leg_with_grad(x, y, p, sigma)[0], v)
        assert _rel_err(gv, fv) < 1e-6


def test_leg_shape_mismatch_errors():
    x = np.zeros((3, 2))
    v = np.ones(3)
    with pytest.raises(ValueError):
        leg_with_grad(x, np.zeros((4, 2)), v, 0.5)
    with pytest.raises(ValueError):
        leg_with_grad(x, np.zeros((3, 2)), np.ones(2), 0.5)
    bad = v.copy()
    bad[1] = -1.0
    with pytest.raises(ValueError):
        leg_with_grad(x, np.zeros((3, 2)), bad, 0.5)


# ---------------------------------------------------------------------------
# landmark energy
# ---------------------------------------------------------------------------


def _landmark_term(clouds, targets, alpha, **kw):
    """The landmark term of total_loss_with_grad, and its gradient in each
    landmark cloud, with the clouds stacked as the mapped batch."""
    rows = np.cumsum([0] + [len(c) for c in clouds])
    y = np.concatenate([np.asarray(c, dtype=np.float64) for c in clouds]).reshape(-1, 2)
    cfg = ObjectiveConfig(beta1=0.0, beta2=0.0, beta3=1.0)
    bd, g, _ = total_loss_with_grad(np.zeros((len(y), 3)), y, None, None,
                                    [np.arange(a, b) for a, b in zip(rows, rows[1:])],
                                    targets, cfg, alpha, SIGMA, **kw)
    return bd.landmark, [g[a:b] for a, b in zip(rows, rows[1:])]


def test_landmark_energy_frozen_singletons():
    got = _landmark_term([[[0.0, 0.0]]], [[[3.0, 0.0]]], 4.0)[0]
    assert got == 6.0  # twice the distance for singleton clouds


def test_landmark_energy_sums_pairs():
    alpha = 4.0
    m1, q1 = [[0.0, 0.0]], [[3.0, 0.0]]
    m2, q2 = [[1.0, 1.0], [2.0, 2.0]], [[1.0, 1.0]]
    total = _landmark_term([m1, m2], [q1, q2], alpha)[0]
    assert total == hand_with_grad(m1, q1, alpha)[0] + hand_with_grad(m2, q2, alpha)[0]
    # no landmark regions: the term is zero
    cfg = ObjectiveConfig(beta1=0.0, beta2=0.0, beta3=1.0)
    assert total_loss_with_grad(np.zeros((2, 3)), m2, None, None, [], [], cfg,
                                alpha, SIGMA)[0].landmark == 0.0


def test_landmark_energy_list_mismatch():
    with pytest.raises(ValueError, match="1 landmark row lists vs 0 targets"):
        total_loss_with_grad(np.zeros((1, 3)), [[0.0, 0.0]], None, None, [[0]], [],
                             ObjectiveConfig(beta1=0.0, beta2=0.0), 20.0, SIGMA)


def test_landmark_energy_gradients():
    rng = np.random.default_rng(15)
    alpha = 5.0
    m = [rng.normal(0, 1, (4, 2)), rng.normal(0, 1, (3, 2))]
    q = [rng.normal(0, 1, (5, 2)), rng.normal(0, 1, (3, 2))]
    _, grads = _landmark_term(m, q, alpha)
    for k in range(2):
        np.testing.assert_array_equal(grads[k], hand_with_grad(m[k], q[k], alpha)[1])

        def f(p, k=k):
            clouds = [p if i == k else m[i] for i in range(2)]
            return _landmark_term(clouds, q, alpha)[0]

        assert _rel_err(grads[k], _fd_grad(f, m[k])) < 1e-6


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------


def _instance(seed=16, n=10, n_extra=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n + n_extra, 3))
    y = rng.normal(0, 1, (n + n_extra, 2))
    v = rng.uniform(0.3, 1.2, n + n_extra)
    w = rng.uniform(0, 1, (20, 2))
    rows = [np.arange(n, n + n_extra)]
    targets = [rng.uniform(0, 1, (4, 2))]
    return x, y, v, w, rows, targets


def test_total_is_weighted_sum_of_parts():
    x, y, v, w, rows, targets = _instance()
    n = 10
    cfg = ObjectiveConfig(beta1=5.0, beta2=2.0, beta3=0.5)
    bd = total_loss_with_grad(x, y, v, w, rows, targets, cfg, ALPHA, SIGMA, n_base=n)[0]
    want_leg = leg_with_grad(x, y, v, SIGMA)[0]
    want_hand = hand_with_grad(y[:n], w, ALPHA)[0]
    want_lm = hand_with_grad(y[rows[0]], targets[0], ALPHA)[0]
    assert bd.leg == pytest.approx(want_leg, rel=1e-14)
    assert bd.hand == pytest.approx(want_hand, rel=1e-14)
    assert bd.landmark == pytest.approx(want_lm, rel=1e-14)
    assert bd.total == pytest.approx(
        5.0 * want_leg + 2.0 * want_hand + 0.5 * want_lm, rel=1e-13
    )


def test_total_passes_float32_tiles_to_every_term():
    x, y, v, w, rows, targets = _instance()
    n = 10
    cfg = ObjectiveConfig(beta1=5.0, beta2=2.0, beta3=0.5)
    bd = total_loss_with_grad(x, y, v, w, rows, targets, cfg, ALPHA, SIGMA, n_base=n,
                              tile_dtype=np.float32)[0]
    f32 = {"tile_dtype": np.float32}
    assert bd.leg == leg_with_grad(x, y, v, SIGMA, **f32)[0] != leg_with_grad(x, y, v, SIGMA)[0]
    assert bd.hand == hand_with_grad(y[:n], w, ALPHA, **f32)[0]
    assert bd.landmark == hand_with_grad(y[rows[0]], targets[0], ALPHA, **f32)[0]
    assert bd.landmark != hand_with_grad(y[rows[0]], targets[0], ALPHA)[0]


def test_total_n_base_restricts_domain_term():
    x, y, v, w, rows, targets = _instance()
    cfg = ObjectiveConfig(beta1=0.0, beta2=1.0, beta3=0.0)
    bd_cut = total_loss_with_grad(x, y, None, w, [], [], cfg, ALPHA, SIGMA, n_base=10)[0]
    bd_all = total_loss_with_grad(x, y, None, w, [], [], cfg, ALPHA, SIGMA)[0]
    assert bd_cut.hand == hand_with_grad(y[:10], w, ALPHA)[0]
    assert bd_all.hand == hand_with_grad(y, w, ALPHA)[0]
    assert bd_cut.hand != bd_all.hand


def test_total_identity_with_zero_weights_is_zero():
    rng = np.random.default_rng(17)
    x = rng.normal(0, 1, (8, 2))
    v = np.full(8, 0.5)
    cfg = ObjectiveConfig(beta1=4.0, beta2=0.0, beta3=0.0)
    bd = total_loss_with_grad(x, x, v, np.zeros((1, 2)), [], [], cfg, ALPHA, SIGMA)[0]
    assert bd.total == 0.0
    assert bd.leg == 0.0


def test_total_beta1_zero_skips_distortion():
    x, y, _, w, rows, targets = _instance()
    cfg = ObjectiveConfig(beta1=0.0, beta2=1.0, beta3=1.0)
    bd = total_loss_with_grad(x, y, None, w, rows, targets, cfg, ALPHA, SIGMA, n_base=10)[0]
    assert bd.leg == 0.0
    assert bd.total == pytest.approx(bd.hand + bd.landmark, rel=1e-14)


def test_total_requires_lambda_when_beta1_positive():
    x, y, _, w, rows, targets = _instance()
    cfg = ObjectiveConfig(beta1=1.0, beta2=1.0, beta3=1.0)
    with pytest.raises(ValueError, match="lambda_inv_values"):
        total_loss_with_grad(x, y, None, w, rows, targets, cfg, ALPHA, SIGMA, n_base=10)


def test_total_gradients_fd():
    x, y, v, w, rows, targets = _instance()
    n = 10
    cfg = ObjectiveConfig(beta1=5.0, beta2=2.0, beta3=0.5)
    bd, gm, gv = total_loss_with_grad(x, y, v, w, rows, targets, cfg, ALPHA, SIGMA, n_base=n)
    assert np.isfinite(bd.total)

    def f_mapped(p):
        return total_loss_with_grad(
            x, p, v, w, rows, targets, cfg, ALPHA, SIGMA, n_base=n
        )[0].total

    def f_v(p):
        return total_loss_with_grad(
            x, y, p, w, rows, targets, cfg, ALPHA, SIGMA, n_base=n
        )[0].total

    assert _rel_err(gm, _fd_grad(f_mapped, y)) < 1e-5
    assert _rel_err(gv, _fd_grad(f_v, v)) < 1e-5


def test_total_loss_memory_is_bounded():
    # the energies work in row tiles of about 2^15 elements; the dense
    # kernels peaked at about 48 bytes per pair, about 800 MB at this size
    rng = np.random.default_rng(18)
    n = 4096
    x = rng.normal(0, 1, (n, 3))
    y = rng.normal(0, 1, (n, 2))
    v = rng.uniform(0.3, 1.2, n)
    w = rng.uniform(-1, 1, (n, 2))
    tracemalloc.start()
    try:
        bd = total_loss_with_grad(x, y, v, w, [], [], ObjectiveConfig(), ALPHA, SIGMA)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(bd.total)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_hand_memory_is_bounded():
    # one pass over row tiles of the domain sample: beyond the tiles, each
    # half keeps O(n) sums per point, never an n x m array (128 MB here)
    rng = np.random.default_rng(19)
    n = 4096
    y = rng.normal(0, 1, (n, 2))
    w = rng.uniform(-1, 1, (n, 2))
    tracemalloc.start()
    try:
        value, gy = hand_with_grad(y, w, ALPHA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and np.isfinite(gy).all()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_objective_config_validation():
    ObjectiveConfig(beta1=0.0)  # shape matching is allowed
    with pytest.raises(ValueError):
        ObjectiveConfig(beta1=-1.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(beta2=-0.5)
    with pytest.raises(ValueError):
        ObjectiveConfig(beta3=float("inf"))
    for name, bad in (("beta1", True), ("beta2", None), ("beta3", "1")):
        with pytest.raises(ValueError, match=f"{name} must be non-negative, got {bad!r}"):
            ObjectiveConfig(**{name: bad})


# ---------------------------------------------------------------------------
# distortion-vs-angle bound audit
# ---------------------------------------------------------------------------


def _bump_instance(seed):
    rng = np.random.default_rng(seed)
    k = 5
    xs, ys = np.meshgrid(np.linspace(0, 1, k), np.linspace(0, 1, k))
    grid = np.column_stack([xs.ravel(), ys.ravel()])
    z = 0.3 * np.exp(-((grid - 0.5) ** 2).sum(axis=1) / 0.1)
    verts = np.column_stack([grid, z])
    tris = []
    for r in range(k - 1):
        for c in range(k - 1):
            a = r * k + c
            tris.append([a, a + 1, a + k])
            tris.append([a + 1, a + k + 1, a + k])
    mesh = TriangleMesh(verts, np.array(tris))
    mapped = grid + rng.normal(0, 0.02, grid.shape)
    v = rng.uniform(0.4, 0.8, len(verts))
    return mesh, mapped, v


def test_audit_bound_holds_on_random_instances():
    for seed in range(8):
        mesh, mapped, v = _bump_instance(seed)
        report = audit_theorem_bound(mesh, mapped, v, 0.5)
        assert isinstance(report, BoundAuditReport)
        assert report.holds
        assert report.lhs >= report.rhs
        assert report.n_points == len(mesh.vertices)
        assert report.n_triangles == len(mesh.triangles)
        assert report.r_lambda >= 1.0


def test_audit_bound_error_paths():
    mesh, mapped, v = _bump_instance(0)
    sigma = 0.5
    with pytest.raises(ValueError):
        audit_theorem_bound(mesh, mapped[:-1], v, sigma)
    with pytest.raises(ValueError):
        audit_theorem_bound(mesh, mapped, v[:-1], sigma)
    bad = v.copy()
    bad[2] = 0.0
    with pytest.raises(ValueError):
        audit_theorem_bound(mesh, mapped, bad, sigma)


def test_audit_bound_rejects_zero_length_edge():
    # two vertices at the same position joined by a face edge
    verts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    mapped = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(ValueError, match="zero-length"):
        audit_theorem_bound(mesh, mapped, np.full(3, 0.5), 0.5)
