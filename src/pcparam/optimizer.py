"""Staged stochastic minimization of the combined parametrization objective.

One stage is a fixed number of epochs at a fixed distortion bandwidth sigma
and a linearly ramped sharpness alpha. Between stages sigma shrinks by
sqrt(2), the alpha ramp restarts where it ended and doubles its endpoint,
the epoch count halves, and both batch sizes double, all clamped to their
limits. Training stops after the stage that saw the point batch reach the
full cloud. Both networks step with RMSprop plus momentum on the
preconditioned gradient.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _halves
from .domains import Domain
from .geometry import (_COORD_BOUND, TriangleMesh, _check_coord_bound, _check_real,
                       angle_distortion, as_cloud)
from .geometry import hausdorff_exact as _chunked_hausdorff
from .losses import (LossBreakdown, ObjectiveConfig, _check_sigma,
                     total_loss_with_grad)
from .neural import (
    NetworkSpec,
    backward,
    default_lambda_spec,
    default_map_spec,
    forward,
    init_params,
    param_count,
)

__all__ = [
    "RmsPropConfig",
    "RmsPropState",
    "rmsprop_step",
    "alpha_schedule",
    "StageConfig",
    "advance_stage",
    "StageRecord",
    "TrainResult",
    "TrainingError",
    "train",
]


@dataclass(frozen=True)
class RmsPropConfig:
    """RMSprop with momentum applied to the preconditioned step."""

    learning_rate: float = 1e-4
    rho: float = 0.99
    momentum: float = 0.9
    eps: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("learning_rate", "eps"):
            _check_real(name, getattr(self, name), lambda v: 0 < v < math.inf, "positive")
        for name in ("rho", "momentum"):
            _check_real(name, getattr(self, name), lambda v: 0 <= v < 1, "in [0, 1)")


@dataclass
class RmsPropState:
    """Per-parameter running statistics: v is the squared-gradient average,
    m the momentum buffer."""

    v: np.ndarray
    m: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "RmsPropState":
        return cls(v=np.zeros(n), m=np.zeros(n))


def rmsprop_step(
    params: np.ndarray, grad: np.ndarray, state: RmsPropState, cfg: RmsPropConfig
) -> np.ndarray:
    """One update: v <- rho v + (1-rho) g^2; m <- mu m + g / sqrt(v + eps);
    theta <- theta - lr m. Updates `state` in place and returns the new
    parameters in a new array. The two halves of the vector run on two
    threads (`_halves.split`); every operation is element-wise, in the order
    of the formula, so the bits do not depend on the split."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ValueError(f"grad shape {grad.shape} != params shape {params.shape}")
    # v averages g^2: a gradient that is not finite, or whose square (twice
    # it, for the rounding of the average) overflows, is refused; a NaN
    # makes both extremes NaN
    top = max(float(grad.max(initial=0.0)), -float(grad.min(initial=0.0)))
    if not math.isfinite(2.0 * top * top):
        with np.errstate(over="ignore"):
            idx = int(np.flatnonzero(~np.isfinite(2.0 * grad * grad))[0])
        raise FloatingPointError(
            f"gradient {grad[idx]:g} at parameter index {idx} is not finite or its square overflows"
        )
    out = np.empty(params.shape)

    def half(lo: int, hi: int) -> None:
        g, v, m, t = grad[lo:hi], state.v[lo:hi], state.m[lo:hi], out[lo:hi]
        np.multiply(1.0 - cfg.rho, g, out=t)
        t *= g
        v *= cfg.rho
        v += t
        np.add(v, cfg.eps, out=t)
        np.sqrt(t, out=t)
        np.divide(g, t, out=t)
        m *= cfg.momentum
        m += t
        np.multiply(cfg.learning_rate, m, out=t)
        np.subtract(params[lo:hi], t, out=t)

    _halves.split(half, len(out), 1)
    return out


def alpha_schedule(epoch: int, n_epochs: int, alpha_init: float, alpha_final: float) -> float:
    """Sharpness for 1-based `epoch` of `n_epochs`, linear from init to final.

    A single-epoch stage uses alpha_init.
    """
    if not 1 <= epoch <= n_epochs:
        raise ValueError(f"epoch must be in [1, {n_epochs}], got {epoch}")
    if n_epochs == 1:
        return alpha_init
    return alpha_init + (epoch - 1) * (alpha_final - alpha_init) / (n_epochs - 1)


@dataclass(frozen=True)
class StageConfig:
    """Knobs for the first stage; later stages derive via advance_stage."""

    epochs: int = 10000
    batch_points: int = 1024
    batch_domain: int = 1024
    sigma: float = 0.5
    alpha_init: float = 2.0
    alpha_final: float = 20.0
    sigma_min: float = 1e-3
    alpha_max: float = 100.0
    epochs_min: int = 1000

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_points", "batch_domain", "epochs_min"):
            _check_real(name, getattr(self, name),
                        lambda v: isinstance(v, numbers.Integral) and v >= 1, "a positive integer")
        for name in ("sigma", "sigma_min"):
            _check_sigma(name, getattr(self, name))
        for name in ("alpha_init", "alpha_final", "alpha_max"):
            _check_real(name, getattr(self, name), lambda v: 0 < v < math.inf, "positive")


def advance_stage(cfg: StageConfig, n_points: int, n_domain: int) -> StageConfig:
    """The next stage's knobs given the cloud size and the domain sample cap."""
    return dataclasses.replace(
        cfg,
        sigma=max(cfg.sigma / math.sqrt(2.0), cfg.sigma_min),
        alpha_init=cfg.alpha_final,
        alpha_final=min(2.0 * cfg.alpha_final, cfg.alpha_max),
        epochs=max(cfg.epochs // 2, cfg.epochs_min),
        batch_points=min(2 * cfg.batch_points, n_points),
        batch_domain=min(2 * cfg.batch_domain, n_domain),
    )


@dataclass
class StageRecord:
    """What one stage did and where it ended.

    Loss fields are the last minibatch's breakdown; eval fields are computed
    on the full cloud against a fixed held-out domain sample at stage end.
    eval_mean_abs_angle needs an evaluation mesh and eval_landmark_hausdorff
    needs landmarks, otherwise they stay None.
    """

    stage: int
    sigma: float
    alpha_init: float
    alpha_final: float
    epochs: int
    batch_points: int
    batch_domain: int
    loss_total: float
    loss_leg: float
    loss_hand: float
    loss_landmark: float
    eval_hausdorff: float
    eval_mean_abs_angle: float | None
    eval_landmark_hausdorff: float | None


@dataclass
class TrainResult:
    """Trained parameters plus one record per stage, in order, and the
    cloud as the final map sends it (the array the last evaluation used)."""

    map_spec: NetworkSpec
    map_params: np.ndarray
    lambda_spec: NetworkSpec | None
    lambda_params: np.ndarray | None
    records: list[StageRecord]
    mapped: np.ndarray


class TrainingError(RuntimeError):
    """Raised when a loss or gradient goes non-finite, naming the batch."""


def _flatten_landmarks(landmarks, n_points: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The checked landmark groups, and their rows once each in order of
    first appearance."""
    groups = []
    for k, rows in enumerate(landmarks):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if rows.size == 0:
            raise ValueError(f"landmark group {k} is empty")
        if rows.min() < 0 or rows.max() >= n_points:
            raise ValueError(f"landmark group {k} has an index outside [0, {n_points})")
        groups.append(rows)
    if not groups:
        return groups, np.empty(0, dtype=np.int64)
    every = np.concatenate(groups)
    _, first = np.unique(every, return_index=True)
    return groups, every[np.sort(first)]


def _batch_rows(chunk: np.ndarray, flat_landmarks: np.ndarray, groups, n_points: int):
    """The cloud rows of one batch: the chunk, then the landmark rows it
    lacks. Also each landmark group's positions among those rows."""
    extra = flat_landmarks[~np.isin(flat_landmarks, chunk)]
    rows = np.concatenate([chunk, extra])
    pos = np.empty(n_points, dtype=np.int64)
    pos[rows] = np.arange(len(rows))
    return rows, [pos[g] for g in groups]


def train(
    points,
    domain: Domain,
    objective: ObjectiveConfig | None = None,
    stage: StageConfig | None = None,
    optimizer: RmsPropConfig | None = None,
    map_spec: NetworkSpec | None = None,
    lambda_spec: NetworkSpec | None = None,
    landmarks=None,
    targets=None,
    seed: int = 0,
    domain_size: int = 4096,
    eval_mesh: TriangleMesh | None = None,
    eval_sample_size: int = 4096,
    batch_callback=None,
    stage_callback=None,
) -> TrainResult:
    """Fit the parametrization map (and inverse-factor net) to a cloud.

    Every epoch permutes the cloud and walks it in batches of batch_points
    (the last batch is whatever remains); landmark points not already in a
    batch are appended to it, and the domain surrogate term only sees the
    non-landmark rows. The domain comparison set is resampled fresh per batch
    (capped at domain_size points per stage). Stages follow advance_stage
    until the point batch covers the whole cloud; that final full-batch stage
    still runs.

    With objective.beta1 == 0 no inverse-factor net is created and the
    distortion term is skipped (shape matching only). Otherwise lambda_spec
    defaults to a small softplus-headed net over the input dimension.

    The energies run float32 tiles (`total_loss_with_grad`'s tile_dtype)
    when the map net is float32 and so is the inverse-factor net, if there
    is one; otherwise float64 tiles.

    Fully deterministic for fixed inputs and seed. batch_callback, if given,
    is called as batch_callback(stage, epoch, batch_index, breakdown) after
    every step; stage_callback as stage_callback(stage, record, map_params,
    lambda_params) with parameter snapshots at each stage end.
    """
    x = as_cloud(points)
    n_points = len(x)
    _check_coord_bound(x, "input")
    objective = ObjectiveConfig() if objective is None else objective
    stage_cfg = StageConfig() if stage is None else stage
    opt_cfg = RmsPropConfig() if optimizer is None else optimizer
    if map_spec is None:
        map_spec = default_map_spec(x.shape[1])
    if map_spec.input_dim != x.shape[1] or map_spec.output_dim != 2:
        raise ValueError(
            f"map network must be {x.shape[1]} -> 2, got "
            f"{map_spec.input_dim} -> {map_spec.output_dim}"
        )
    use_lambda = objective.beta1 > 0
    if use_lambda:
        if lambda_spec is None:
            lambda_spec = default_lambda_spec(x.shape[1])
        if lambda_spec.input_dim != x.shape[1] or lambda_spec.output_dim != 1:
            raise ValueError(
                f"inverse-factor network must be {x.shape[1]} -> 1, got "
                f"{lambda_spec.input_dim} -> {lambda_spec.output_dim}"
            )
        if lambda_spec.output_activation != "softplus":
            raise ValueError("inverse-factor network needs a softplus output")
    else:
        lambda_spec = None
    # the float32 nets take the loss gradients cast to float32, so float64
    # tiles would only feed them bits that the cast drops
    float32_nets = map_spec.dtype == "float32" and (lambda_spec is None
                                                     or lambda_spec.dtype == "float32")
    tile_dtype = np.float32 if float32_nets else np.float64

    landmarks = [] if landmarks is None else list(landmarks)
    targets = [] if targets is None else [as_cloud(t, dim=2) for t in targets]
    if len(landmarks) != len(targets):
        raise ValueError(f"{len(landmarks)} landmark groups vs {len(targets)} targets")
    groups, flat_landmarks = _flatten_landmarks(landmarks, n_points)

    if domain_size < stage_cfg.batch_domain:
        raise ValueError(
            f"domain_size {domain_size} is smaller than batch_domain {stage_cfg.batch_domain}"
        )
    if eval_mesh is not None and not np.array_equal(eval_mesh.vertices, x):
        raise ValueError("eval_mesh vertices must be exactly the training cloud")

    root = np.random.SeedSequence(seed)
    # the stage generators are spawned from root after these four, so the
    # count fixes their seeds, and with them every fit's bits; the fourth is
    # unused
    ss_map, ss_lambda, ss_eval, _ = root.spawn(4)
    map_params = init_params(map_spec, np.random.default_rng(ss_map))
    map_state = RmsPropState.zeros(param_count(map_spec))
    if use_lambda:
        lambda_params = init_params(lambda_spec, np.random.default_rng(ss_lambda))
        lambda_state = RmsPropState.zeros(param_count(lambda_spec))
    else:
        lambda_params = None
        lambda_state = None

    eval_rng = np.random.default_rng(ss_eval)
    w_eval = domain.sample_area(eval_sample_size, eval_rng)

    stage_cfg = dataclasses.replace(
        stage_cfg,
        batch_points=min(stage_cfg.batch_points, n_points),
        batch_domain=min(stage_cfg.batch_domain, domain_size),
    )

    records: list[StageRecord] = []
    keep_going = True
    stage_idx = 0
    # OpenBLAS stays at one thread for the whole loop, so that its idle
    # workers do not spin on the core of the second row half
    with _halves.blas_hold():
        while keep_going:
            stage_idx += 1
            if stage_cfg.batch_points == n_points:
                keep_going = False
            stage_rng = np.random.default_rng(root.spawn(1)[0])
            last_breakdown: LossBreakdown | None = None

            for epoch in range(1, stage_cfg.epochs + 1):
                alpha = alpha_schedule(
                    epoch, stage_cfg.epochs, stage_cfg.alpha_init, stage_cfg.alpha_final
                )
                perm = stage_rng.permutation(n_points)
                n_batches = -(-n_points // stage_cfg.batch_points)
                for bi in range(n_batches):
                    chunk = perm[bi * stage_cfg.batch_points : (bi + 1) * stage_cfg.batch_points]
                    rows, landmark_rows = chunk, []
                    if groups:
                        rows, landmark_rows = _batch_rows(chunk, flat_landmarks, groups, n_points)
                    x_batch = x[rows]
                    w = domain.sample_area(stage_cfg.batch_domain, stage_rng)

                    map_tape: list = []
                    mapped = forward(map_spec, map_params, x_batch, tape=map_tape)
                    # coordinates past the bound overflow every squared distance
                    # downstream, which would surface as a cryptic validation
                    # error deep inside the loss; report the divergence here
                    worst = float(np.abs(mapped).max())
                    if not (worst < _COORD_BOUND):
                        raise TrainingError(
                            f"stage {stage_idx} epoch {epoch} batch {bi}: mapped "
                            f"coordinates diverged (max magnitude {worst:g})"
                        )
                    lambda_tape: list = []
                    if use_lambda:
                        lam_inv = forward(
                            lambda_spec, lambda_params, x_batch, tape=lambda_tape
                        ).ravel()
                        if not np.isfinite(lam_inv).all():
                            raise TrainingError(
                                f"stage {stage_idx} epoch {epoch} batch {bi}: "
                                "inverse factors diverged"
                            )
                        # a strongly negative pre-activation underflows softplus
                        # to exact zero; floor at the smallest positive normal so
                        # a coincident pair of such points cannot zero a pair sum
                        np.maximum(lam_inv, np.finfo(np.float64).tiny, out=lam_inv)
                    else:
                        lam_inv = None
                    breakdown, g_mapped, g_v = total_loss_with_grad(
                        x_batch, mapped, lam_inv, w, landmark_rows, targets,
                        objective, alpha, stage_cfg.sigma, n_base=len(chunk),
                        tile_dtype=tile_dtype,
                    )
                    if not np.isfinite(breakdown.total):
                        raise TrainingError(
                            f"stage {stage_idx} epoch {epoch} batch {bi}: "
                            f"loss is {breakdown.total}"
                        )
                    try:
                        g_map = backward(map_spec, map_tape, g_mapped)
                        map_params = rmsprop_step(map_params, g_map, map_state, opt_cfg)
                        if use_lambda:
                            g_lam = backward(lambda_spec, lambda_tape, g_v[:, None])
                            lambda_params = rmsprop_step(
                                lambda_params, g_lam, lambda_state, opt_cfg
                            )
                    except FloatingPointError as exc:
                        raise TrainingError(
                            f"stage {stage_idx} epoch {epoch} batch {bi}: {exc}"
                        ) from exc
                    last_breakdown = breakdown
                    if batch_callback is not None:
                        batch_callback(stage_idx, epoch, bi, breakdown)

            mapped_all = forward(map_spec, map_params, x)
            if not np.isfinite(mapped_all).all():
                raise TrainingError(
                    f"stage {stage_idx}: mapped coordinates diverged at evaluation"
                )
            eval_h = _chunked_hausdorff(mapped_all, w_eval)
            eval_angle = None
            if eval_mesh is not None:
                eval_angle = float(angle_distortion(eval_mesh, mapped_all).mean_abs)
            eval_lm = None
            if groups:
                eval_lm = max(
                    _chunked_hausdorff(mapped_all[g], q) for g, q in zip(groups, targets)
                )
            assert last_breakdown is not None
            record = StageRecord(
                stage=stage_idx,
                sigma=stage_cfg.sigma,
                alpha_init=stage_cfg.alpha_init,
                alpha_final=stage_cfg.alpha_final,
                epochs=stage_cfg.epochs,
                batch_points=stage_cfg.batch_points,
                batch_domain=stage_cfg.batch_domain,
                loss_total=last_breakdown.total,
                loss_leg=last_breakdown.leg,
                loss_hand=last_breakdown.hand,
                loss_landmark=last_breakdown.landmark,
                eval_hausdorff=eval_h,
                eval_mean_abs_angle=eval_angle,
                eval_landmark_hausdorff=eval_lm,
            )
            records.append(record)
            if stage_callback is not None:
                stage_callback(
                    stage_idx,
                    record,
                    map_params.copy(),
                    None if lambda_params is None else lambda_params.copy(),
                )
            if keep_going:
                stage_cfg = advance_stage(stage_cfg, n_points, domain_size)

    return TrainResult(
        map_spec=map_spec,
        map_params=map_params,
        lambda_spec=lambda_spec,
        lambda_params=lambda_params,
        records=records,
        mapped=mapped_all,
    )
