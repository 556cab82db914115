"""RMSprop update, stage schedule, and the staged training driver."""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

from pcparam import _halves, optimizer
from pcparam.domains import preset_domain
from pcparam.geometry import TriangleMesh
from pcparam.losses import LossBreakdown, ObjectiveConfig
from pcparam.neural import NetworkSpec, forward
from pcparam.optimizer import (
    RmsPropConfig,
    RmsPropState,
    StageConfig,
    TrainingError,
    _batch_rows,
    _flatten_landmarks,
    advance_stage,
    alpha_schedule,
    rmsprop_step,
    train,
)


# ---------------------------------------------------------------------------
# RMSprop
# ---------------------------------------------------------------------------


def test_rmsprop_first_two_steps_frozen():
    cfg = RmsPropConfig()  # lr 1e-4, rho 0.99, momentum 0.9, eps 1e-8
    params = np.zeros(3)
    state = RmsPropState.zeros(3)
    g1 = np.ones(3)
    p1 = rmsprop_step(params, g1, state, cfg)
    v1 = (1.0 - 0.99) * 1.0
    m1 = 1.0 / np.sqrt(v1 + 1e-8)
    np.testing.assert_array_equal(state.v, np.full(3, v1))
    np.testing.assert_array_equal(state.m, np.full(3, m1))
    np.testing.assert_array_equal(p1, np.full(3, -1e-4 * m1))

    g2 = np.full(3, -2.0)
    p2 = rmsprop_step(p1, g2, state, cfg)
    v2 = 0.99 * v1 + (1.0 - 0.99) * 4.0
    m2 = 0.9 * m1 + (-2.0) / np.sqrt(v2 + 1e-8)
    np.testing.assert_array_equal(state.v, np.full(3, v2))
    np.testing.assert_array_equal(p2, p1 - 1e-4 * m2)


@pytest.mark.parametrize("min_half", [None, 0])
def test_rmsprop_matches_the_three_line_formula_bit_for_bit(monkeypatch, min_half):
    # the in-place update, in one piece and over two halves, against the
    # formula it replaces, over several steps, so the state it carries is
    # compared too
    if min_half is not None:
        monkeypatch.setattr(_halves, "_MIN_HALF", min_half)
    cfg = RmsPropConfig(learning_rate=3e-3, rho=0.9, momentum=0.7, eps=1e-6)
    rng = np.random.default_rng(4)
    n = 1001  # unequal halves
    params = rng.normal(size=n)
    state = RmsPropState.zeros(n)
    want_p, want_v, want_m = params.copy(), np.zeros(n), np.zeros(n)
    for _ in range(5):
        grad = rng.normal(size=n) * np.exp(rng.normal(size=n) * 3)
        before = params.copy()
        params = rmsprop_step(params, grad, state, cfg)
        assert np.array_equal(before, want_p)  # the input is left alone
        want_v = cfg.rho * want_v + (1.0 - cfg.rho) * grad * grad
        want_m = cfg.momentum * want_m + grad / np.sqrt(want_v + cfg.eps)
        want_p = want_p - cfg.learning_rate * want_m
        assert np.array_equal(state.v, want_v)
        assert np.array_equal(state.m, want_m)
        assert np.array_equal(params, want_p)


def test_rmsprop_rejects_bad_gradients():
    cfg = RmsPropConfig()
    state = RmsPropState.zeros(2)
    with pytest.raises(ValueError):
        rmsprop_step(np.zeros(2), np.zeros(3), state, cfg)
    with pytest.raises(FloatingPointError, match="index 1"):
        rmsprop_step(np.zeros(2), np.array([0.0, np.nan]), state, cfg)
    # a finite gradient whose square overflows v is refused too, before the
    # state moves and without an overflow warning
    with pytest.raises(FloatingPointError, match="gradient -1e\\+160 at parameter index 1"):
        rmsprop_step(np.zeros(2), np.array([1.0, -1e160]), state, cfg)
    assert not state.v.any() and not state.m.any()


def test_rmsprop_config_validation():
    with pytest.raises(ValueError):
        RmsPropConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        RmsPropConfig(rho=1.0)
    with pytest.raises(ValueError):
        RmsPropConfig(momentum=-0.1)
    with pytest.raises(ValueError):
        RmsPropConfig(eps=0.0)
    # a number must be a real number, not a bool, a string or None
    for name, bad in (("learning_rate", True), ("rho", False), ("momentum", "0.5"), ("eps", None)):
        with pytest.raises(ValueError, match=f"{name} must be .*, got {bad!r}"):
            RmsPropConfig(**{name: bad})


# ---------------------------------------------------------------------------
# stage schedule
# ---------------------------------------------------------------------------


def test_alpha_schedule_values():
    assert alpha_schedule(1, 10, 2.0, 20.0) == 2.0
    assert alpha_schedule(10, 10, 2.0, 20.0) == 20.0
    assert alpha_schedule(5, 10, 2.0, 20.0) == 10.0
    assert alpha_schedule(1, 1, 2.0, 20.0) == 2.0  # single epoch stays at init
    with pytest.raises(ValueError):
        alpha_schedule(0, 10, 2.0, 20.0)
    with pytest.raises(ValueError):
        alpha_schedule(11, 10, 2.0, 20.0)


def test_advance_stage_from_defaults():
    nxt = advance_stage(StageConfig(), n_points=5000, n_domain=4096)
    assert nxt.sigma == 0.5 / math.sqrt(2.0)
    assert nxt.alpha_init == 20.0
    assert nxt.alpha_final == 40.0
    assert nxt.epochs == 5000
    assert nxt.batch_points == 2048
    assert nxt.batch_domain == 2048
    # limits untouched
    assert nxt.sigma_min == 1e-3 and nxt.alpha_max == 100.0 and nxt.epochs_min == 1000


def test_advance_stage_saturates():
    cfg = StageConfig()
    for _ in range(30):
        cfg = advance_stage(cfg, n_points=3000, n_domain=4096)
    assert cfg.sigma == 1e-3
    assert cfg.alpha_init == 100.0
    assert cfg.alpha_final == 100.0
    assert cfg.epochs == 1000
    assert cfg.batch_points == 3000
    assert cfg.batch_domain == 4096


def test_stage_config_validation():
    with pytest.raises(ValueError):
        StageConfig(epochs=0)
    with pytest.raises(ValueError):
        StageConfig(batch_points=-1)
    with pytest.raises(ValueError):
        StageConfig(sigma=0.0)
    with pytest.raises(ValueError):
        StageConfig(alpha_final=float("nan"))
    for name, bad in (("epochs", True), ("batch_points", 8.0), ("sigma", "0.5"),
                      ("alpha_init", None), ("alpha_max", True)):
        with pytest.raises(ValueError, match=f"{name} must be .*, got {bad!r}"):
            StageConfig(**{name: bad})
    for name in ("sigma", "sigma_min"):
        for tiny in (1e-200, 1.5e-154, 2.0e-154):
            with pytest.raises(ValueError, match=f"{name} must be at least .* got {tiny!r}"):
                StageConfig(**{name: tiny})


# ---------------------------------------------------------------------------
# training driver (tiny instances throughout)
# ---------------------------------------------------------------------------

_TINY_MAP = NetworkSpec(2, (8,), 2)
_TINY_LAMBDA = NetworkSpec(2, (4,), 1, output_activation="softplus")


def _tiny_cloud(n=10, seed=2):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 0.9, (n, 2))


def _tiny_kwargs(**over):
    kw = dict(
        objective=ObjectiveConfig(beta1=1.0, beta2=1.0, beta3=0.0),
        stage=StageConfig(
            epochs=2, batch_points=4, batch_domain=8, epochs_min=1
        ),
        map_spec=_TINY_MAP,
        lambda_spec=_TINY_LAMBDA,
        seed=7,
        domain_size=16,
        eval_sample_size=32,
    )
    kw.update(over)
    return kw


def test_train_stage_progression():
    x = _tiny_cloud(10)
    dom = preset_domain("square")
    result = train(x, dom, **_tiny_kwargs())
    seq = [r.batch_points for r in result.records]
    assert seq == [4, 8, 10]  # doubles until it covers the cloud, then stops
    assert [r.stage for r in result.records] == [1, 2, 3]
    assert result.records[-1].batch_points == 10
    # epoch halving with floor 1
    assert [r.epochs for r in result.records] == [2, 1, 1]
    # sigma shrinks by sqrt(2) each stage
    sig = [r.sigma for r in result.records]
    assert sig[1] == pytest.approx(sig[0] / math.sqrt(2))
    assert np.isfinite([r.loss_total for r in result.records]).all()
    assert all(np.isfinite(r.eval_hausdorff) for r in result.records)


def test_train_passes_the_scheduled_alpha_and_sigma_to_the_loss(monkeypatch):
    # StageConfig is the only source of alpha and sigma: every loss call gets
    # the alpha of alpha_schedule for its epoch and the sigma of its stage
    original = optimizer.total_loss_with_grad
    seen = []

    def recording(*args, **kwargs):
        bound = inspect.signature(original).bind(*args, **kwargs).arguments
        seen.append((bound["alpha"], bound["sigma"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "total_loss_with_grad", recording)
    stage = StageConfig(epochs=3, batch_points=4, batch_domain=8, epochs_min=1,
                        sigma=0.4, alpha_init=2.0, alpha_final=6.0)
    result = train(_tiny_cloud(8), preset_domain("square"), **_tiny_kwargs(stage=stage))
    assert len(result.records) == 2
    want = []
    cfg = stage
    for _ in result.records:
        for epoch in range(1, cfg.epochs + 1):
            alpha = alpha_schedule(epoch, cfg.epochs, cfg.alpha_init, cfg.alpha_final)
            want += [(alpha, cfg.sigma)] * (8 // cfg.batch_points)
        cfg = advance_stage(cfg, 8, 16)
    assert seen == want
    assert len(set(seen)) == 4  # alphas 2, 4 and 6 at sigma 0.4, then 6 at 0.4 / sqrt(2)


@pytest.mark.parametrize("map_dtype, lambda_dtype, beta1, want", [
    ("float32", "float32", 1.0, np.float32),
    ("float32", "float64", 1.0, np.float64),
    ("float64", "float32", 1.0, np.float64),
    ("float32", "float64", 0.0, np.float32),  # beta1 = 0 makes no lambda net
])
def test_train_runs_float32_tiles_only_with_float32_nets(monkeypatch, map_dtype, lambda_dtype,
                                                         beta1, want):
    original = optimizer.total_loss_with_grad
    seen = set()

    def recording(*args, tile_dtype, **kwargs):
        seen.add(tile_dtype)
        return original(*args, tile_dtype=tile_dtype, **kwargs)

    monkeypatch.setattr(optimizer, "total_loss_with_grad", recording)
    train(_tiny_cloud(8), preset_domain("square"), **_tiny_kwargs(
        objective=ObjectiveConfig(beta1=beta1, beta2=1.0, beta3=0.0),
        map_spec=dataclasses.replace(_TINY_MAP, dtype=map_dtype),
        lambda_spec=dataclasses.replace(_TINY_LAMBDA, dtype=lambda_dtype)))
    assert seen == {want}


def test_train_single_stage_when_batch_covers_cloud():
    x = _tiny_cloud(6)
    dom = preset_domain("square")
    result = train(x, dom, **_tiny_kwargs(stage=StageConfig(
        epochs=2, batch_points=64, batch_domain=8, epochs_min=1)))
    assert len(result.records) == 1
    assert result.records[0].batch_points == 6


def test_train_bitwise_deterministic():
    x = _tiny_cloud(8)
    dom = preset_domain("square")
    r1 = train(x, dom, **_tiny_kwargs())
    r2 = train(x, dom, **_tiny_kwargs())
    np.testing.assert_array_equal(r1.map_params, r2.map_params)
    np.testing.assert_array_equal(r1.lambda_params, r2.lambda_params)
    assert r1.records == r2.records
    r3 = train(x, dom, **_tiny_kwargs(seed=8))
    assert not np.array_equal(r1.map_params, r3.map_params)


@pytest.mark.parametrize("cloud", [
    [[0.4, 0.6]],
    [[0.4, 0.6], [0.1, 0.2]],
    [[0.4, 0.6]] * 10,
    [[0.4, 0.6], [0.1, 0.2]] * 5,
], ids=["one_point", "two_points", "ten_copies", "two_points_five_times"])
def test_train_refuses_fewer_than_three_distinct_points(cloud):
    distinct = len({tuple(p) for p in cloud})
    with pytest.raises(ValueError, match=f"at least 3 distinct points, got {distinct}$"):
        train(np.array(cloud), preset_domain("square"), **_tiny_kwargs())


def test_train_runs_on_three_points():
    x = np.array([[0.4, 0.6], [0.1, 0.2], [0.8, 0.3]] * 2)
    result = train(x, preset_domain("square"), **_tiny_kwargs())
    assert result.mapped.shape == (6, 2) and np.isfinite(result.mapped).all()


def test_train_shape_matching_has_no_lambda_net():
    x = _tiny_cloud(6)
    dom = preset_domain("square")
    result = train(x, dom, **_tiny_kwargs(
        objective=ObjectiveConfig(beta1=0.0, beta2=1.0, beta3=0.0),
        lambda_spec=None,
    ))
    assert result.lambda_spec is None
    assert result.lambda_params is None
    assert all(r.loss_leg == 0.0 for r in result.records)


def test_train_landmarks_tracked():
    x = _tiny_cloud(6)
    dom = preset_domain("square")
    targets = [np.array([[0.2, 0.2], [0.8, 0.8]])]
    result = train(x, dom, **_tiny_kwargs(
        objective=ObjectiveConfig(beta1=0.0, beta2=1.0, beta3=1.0),
        lambda_spec=None,
        landmarks=[[0, 3]],
        targets=targets,
    ))
    for rec in result.records:
        assert rec.eval_landmark_hausdorff is not None
        assert np.isfinite(rec.eval_landmark_hausdorff)
        assert rec.loss_landmark >= 0.0
    # without landmarks the field stays empty
    plain = train(x, dom, **_tiny_kwargs(
        objective=ObjectiveConfig(beta1=0.0, beta2=1.0, beta3=0.0),
        lambda_spec=None,
    ))
    assert all(r.eval_landmark_hausdorff is None for r in plain.records)


def _plain_batch_rows(chunk, groups):
    """The batch-row rule in plain Python: the chunk, then each landmark row
    the chunk lacks, once, in order of first appearance over the groups; and
    for each group, where its rows sit in that list."""
    rows = [int(i) for i in chunk]
    for group in groups:
        for i in group:
            if i not in rows:
                rows.append(int(i))
    return rows, [[rows.index(i) for i in group] for group in groups]


@pytest.mark.parametrize("chunk, groups", [
    ([4, 1, 7], [[1, 9], [9, 2, 4]]),  # overlapping groups, rows in and out
    ([3, 0], [[5, 6, 5], [6]]),  # a repeated row, none in the chunk
    ([2, 8, 5], [[8, 2], [5]]),  # every landmark already in the chunk
    ([0], [[9, 3, 0, 3], [3, 9], [7]]),
])
def test_batch_rows_match_plain_rule(chunk, groups):
    n_points = 10
    groups, flat = _flatten_landmarks(groups, n_points)
    want_flat = []
    for group in groups:
        for i in group:
            if i not in want_flat:
                want_flat.append(int(i))
    assert flat.tolist() == want_flat
    rows, landmark_rows = _batch_rows(np.array(chunk), flat, groups, n_points)
    want_rows, want_landmark_rows = _plain_batch_rows(chunk, groups)
    assert rows.tolist() == want_rows
    assert [r.tolist() for r in landmark_rows] == want_landmark_rows
    assert rows.dtype == np.int64 and all(r.dtype == np.int64 for r in landmark_rows)


def test_train_eval_mesh_angles():
    verts = np.array([[0.1, 0.1], [0.9, 0.1], [0.9, 0.9], [0.1, 0.9]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
    dom = preset_domain("square")
    result = train(verts, dom, **_tiny_kwargs(eval_mesh=mesh))
    assert all(r.eval_mean_abs_angle is not None for r in result.records)
    with pytest.raises(ValueError, match="eval_mesh"):
        train(verts + 0.01, dom, **_tiny_kwargs(eval_mesh=mesh))


def test_train_callbacks_fire_in_order():
    x = _tiny_cloud(6)
    dom = preset_domain("square")
    batch_calls = []
    stage_calls = []

    def on_batch(stage, epoch, batch, breakdown):
        assert isinstance(breakdown, LossBreakdown)
        batch_calls.append((stage, epoch, batch))

    def on_stage(stage, record, map_params, lambda_params):
        assert record.stage == stage
        stage_calls.append((stage, map_params.copy()))

    result = train(x, dom, **_tiny_kwargs(
        batch_callback=on_batch, stage_callback=on_stage))
    assert batch_calls == sorted(batch_calls)
    assert [s for s, _ in stage_calls] == [r.stage for r in result.records]
    # the last stage snapshot is the final parameter vector
    np.testing.assert_array_equal(stage_calls[-1][1], result.map_params)


def test_train_mapped_output_shape():
    x = _tiny_cloud(7)
    dom = preset_domain("square")
    result = train(x, dom, **_tiny_kwargs())
    mapped = forward(result.map_spec, result.map_params, x)
    assert mapped.shape == (7, 2)
    assert np.isfinite(mapped).all()
    # the mapping train returns is the one its last evaluation computed
    np.testing.assert_array_equal(result.mapped, mapped)


def test_train_diverging_run_raises_training_error():
    x = _tiny_cloud(6)
    dom = preset_domain("square")
    with pytest.raises(TrainingError, match="stage 1"):
        train(x, dom, **_tiny_kwargs(
            optimizer=RmsPropConfig(learning_rate=1e200),
            stage=StageConfig(epochs=4, batch_points=8, batch_domain=8,
                              epochs_min=1),
        ))


def _float32_nets():
    return {"map_spec": dataclasses.replace(_TINY_MAP, dtype="float32"),
            "lambda_spec": dataclasses.replace(_TINY_LAMBDA, dtype="float32")}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lr", [1e37, 1e39, 1e200])
def test_train_float32_divergence_names_the_batch(lr):
    # the diverged weights overflow a later float32 pass or gradient, which
    # the step refuses, naming where it happened
    with pytest.raises(TrainingError, match=r"^stage 1 epoch \d+ batch \d+: the float32 "
                                            r"(pass|gradient) left float32's range"):
        train(_tiny_cloud(6), preset_domain("square"), **_tiny_kwargs(
            optimizer=RmsPropConfig(learning_rate=lr), **_float32_nets()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("float32, lr, message", [
    (True, 1e140, r"the float32 pass left float32's range"),
    (False, 1e160, r"mapped coordinates diverged \(max magnitude \S+e\+16\d, past the bound "
                   r"1e\+150\)"),
], ids=["float32", "float64"])
def test_train_divergence_at_evaluation_names_the_stage(float32, lr, message):
    # one step, so the stage-end evaluation is the first pass of the diverged
    # weights; the float64 map stays finite but passes the coordinate bound
    with pytest.raises(TrainingError, match="^stage 1 evaluation: " + message):
        train(_tiny_cloud(6), preset_domain("square"), **_tiny_kwargs(
            optimizer=RmsPropConfig(learning_rate=lr),
            stage=StageConfig(epochs=1, batch_points=6, batch_domain=8, epochs_min=1),
            **(_float32_nets() if float32 else {})))


def test_train_float64_gradient_overflow_names_the_batch():
    # at beta2 = 1e300 the float64 gradients stay finite, but their squares
    # overflow RMSprop's average: the step refuses them, and train names the batch
    with pytest.raises(TrainingError, match=r"^stage 1 epoch 1 batch 0: gradient \S+ at "
                                            r"parameter index \d+ is not finite or its square"):
        train(_tiny_cloud(8), preset_domain("square"), **_tiny_kwargs(
            objective=ObjectiveConfig(beta1=1.0, beta2=1e300, beta3=0.0)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_train_names_the_batch_of_an_overflowing_update(dtype):
    # at learning rate 1e308 the first update itself overflows; the step
    # refuses it, and train names the batch, as for any numeric failure
    nets = {"map_spec": dataclasses.replace(_TINY_MAP, dtype=dtype),
            "lambda_spec": dataclasses.replace(_TINY_LAMBDA, dtype=dtype)}
    with pytest.raises(TrainingError, match=r"^stage 1 epoch 1 batch 0: the update at "
                                            r"parameter index \d+ is not finite "
                                            r"\(learning rate 1e\+308\)"):
        train(_tiny_cloud(6), preset_domain("square"), **_tiny_kwargs(
            optimizer=RmsPropConfig(learning_rate=1e308), **nets))


@pytest.mark.parametrize("scale", [1e150, 1e200])
def test_train_rejects_input_past_the_coordinate_bound(scale):
    # such a cloud used to train to the end with overflowing squared distances
    x = _tiny_cloud(6) * scale
    x[0, 0] = scale
    with pytest.raises(ValueError, match=re.escape(f"magnitude {scale:g};")):
        train(x, preset_domain("square"), **_tiny_kwargs())


def test_train_accepts_input_just_below_the_coordinate_bound():
    x = _tiny_cloud(6) * 1e149
    x[0, 0] = np.nextafter(1e150, 0.0)
    result = train(x, preset_domain("square"), **_tiny_kwargs())
    assert np.isfinite(result.map_params).all()


def test_train_input_validation():
    x = _tiny_cloud(6)
    dom = preset_domain("square")
    with pytest.raises(ValueError, match="domain_size"):
        train(x, dom, **_tiny_kwargs(domain_size=4))
    with pytest.raises(ValueError):
        train(x, dom, **_tiny_kwargs(landmarks=[[0]], targets=[]))
    with pytest.raises(ValueError):
        train(x, dom, **_tiny_kwargs(landmarks=[[]], targets=[[[0.0, 0.0]]]))
    with pytest.raises(ValueError):
        train(x, dom, **_tiny_kwargs(landmarks=[[99]], targets=[[[0.0, 0.0]]]))
    with pytest.raises(ValueError):  # wrong input dim for the cloud
        train(x, dom, **_tiny_kwargs(map_spec=NetworkSpec(3, (8,), 2)))
    with pytest.raises(ValueError, match="softplus"):
        train(x, dom, **_tiny_kwargs(
            lambda_spec=NetworkSpec(2, (4,), 1, output_activation="linear")))
