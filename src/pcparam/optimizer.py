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
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _halves
from .domains import Domain
from .geometry import (_COORD_BOUND, TriangleMesh, _check_coord_bound, _check_real,
                       angle_distortion, as_cloud)
from .geometry import hausdorff_exact as _chunked_hausdorff
from .losses import ObjectiveConfig, _check_sigma, total_loss_with_grad
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
    of the formula, so the bits do not depend on the split. A new parameter
    past float64's range, as a huge learning rate gives, is refused with a
    FloatingPointError, without a warning, after the state has moved."""
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

    def half(lo: int, hi: int) -> bool:
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
        return bool(np.isfinite(t).all())

    # the worker half runs under the caller's error state
    with np.errstate(over="ignore"):
        finite = _halves.split(half, len(out), 1)
    if not all(finite):
        idx = int(np.flatnonzero(~np.isfinite(out))[0])
        raise FloatingPointError(f"the update at parameter index {idx} is not finite "
                                 f"(learning rate {cfg.learning_rate:g})")
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
    """Raised when a step of a fit overflows, naming its stage, epoch and
    batch, or the stage-end evaluation does, naming its stage: any
    FloatingPointError of a network pass, the loss or an RMSprop step."""


def _check_mapped(mapped: np.ndarray) -> np.ndarray:
    """The mapped cloud, refused as an overflow past the coordinate bound,
    where every squared distance downstream overflows."""
    worst = float(np.abs(mapped).max())
    if not worst < _COORD_BOUND:
        raise FloatingPointError(
            f"mapped coordinates diverged (max magnitude {worst:g}, past the bound "
            f"{_COORD_BOUND:g})"
        )
    return mapped


def _floor_lambda_inv(out: np.ndarray) -> np.ndarray:
    """The inverse factors, the softplus head's column floored at the
    smallest positive normal: a strongly negative pre-activation underflows
    softplus to exact zero, and a coincident pair of such points would zero
    a pair sum."""
    lam_inv = out.ravel()
    np.maximum(lam_inv, np.finfo(np.float64).tiny, out=lam_inv)
    return lam_inv


def _map_and_lambda(per_net) -> tuple:
    """(map entry, inverse-factor entry or None) of a per-net list."""
    return (*per_net, None)[:2]


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
    """Fit the parametrization map (and inverse-factor net) to a cloud of at
    least 3 distinct points.

    Every epoch permutes the cloud and walks it in batches of batch_points
    (the last batch is whatever remains); landmark points not already in a
    batch are appended to it, and the domain surrogate term only sees the
    non-landmark rows. The domain comparison set is resampled fresh per batch
    (capped at domain_size points per stage). Stages follow advance_stage
    until the point batch covers the whole cloud; that final full-batch stage
    still runs.

    With objective.beta1 == 0 no inverse-factor net is created, lambda_spec
    is ignored and the distortion term is skipped (shape matching only).
    Otherwise lambda_spec defaults to a small softplus-headed net over the
    input dimension.

    The energies run float32 tiles (`total_loss_with_grad`'s tile_dtype)
    when every net of the fit is float32; otherwise float64 tiles.

    Fully deterministic for fixed inputs and seed. batch_callback, if given,
    is called as batch_callback(stage, epoch, batch_index, breakdown) after
    every step; stage_callback as stage_callback(stage, record, map_params,
    lambda_params) with copies of the parameters at each stage end,
    lambda_params None without an inverse-factor net.
    """
    x = as_cloud(points)
    n_points, dim = x.shape
    _check_coord_bound(x, "input")
    n_distinct = len(np.unique(x, axis=0))
    if n_distinct < 3:
        raise ValueError(f"a fit needs at least 3 distinct points, got {n_distinct}")
    objective = ObjectiveConfig() if objective is None else objective
    stage_cfg = StageConfig() if stage is None else stage
    opt_cfg = RmsPropConfig() if optimizer is None else optimizer
    # the fit's nets, map first, each as (name, spec, output width, output
    # activation it needs, what its output is to the loss)
    map_spec = default_map_spec(dim) if map_spec is None else map_spec
    lambda_spec = default_lambda_spec(dim) if lambda_spec is None else lambda_spec
    nets = [("map network", map_spec, 2, None, _check_mapped),
            ("inverse-factor network", lambda_spec, 1, "softplus", _floor_lambda_inv)]
    if objective.beta1 == 0:  # shape matching has no inverse-factor net
        del nets[1]
    for name, spec, width, head, _ in nets:
        if spec.input_dim != dim or spec.output_dim != width:
            raise ValueError(f"{name} must be {dim} -> {width}, got "
                             f"{spec.input_dim} -> {spec.output_dim}")
        if head is not None and spec.output_activation != head:
            raise ValueError(f"{name} needs a {head} output")
    _, specs, _, _, outputs = zip(*nets)
    # the float32 nets take the loss gradients cast to float32, so float64
    # tiles would only feed them bits that the cast drops
    tile_dtype = np.float32 if all(s.dtype == "float32" for s in specs) else np.float64

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
    # count fixes their seeds, and with them every fit's bits; the second
    # (the inverse-factor net's) is unused without that net, the fourth always
    *ss_nets, ss_eval, _ = root.spawn(4)
    params = [init_params(s, np.random.default_rng(ss)) for s, ss in zip(specs, ss_nets)]
    states = [RmsPropState.zeros(param_count(s)) for s in specs]

    w_eval = domain.sample_area(eval_sample_size, np.random.default_rng(ss_eval))

    stage_cfg = dataclasses.replace(stage_cfg, batch_points=min(stage_cfg.batch_points, n_points))

    records: list[StageRecord] = []
    # OpenBLAS stays at one thread for the whole loop, so that its idle
    # workers do not spin on the core of the second row half
    with _halves.blas_hold():
        for stage_idx in itertools.count(1):
            stage_rng = np.random.default_rng(root.spawn(1)[0])
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

                    try:
                        tapes = [[] for _ in specs]
                        # in order, so the map's output is checked before the
                        # inverse-factor net runs
                        outs = [output(forward(s, p, x_batch, tape=tape))
                                for s, p, tape, output in zip(specs, params, tapes, outputs)]
                        breakdown, *grads = total_loss_with_grad(
                            x_batch, *_map_and_lambda(outs), w, landmark_rows, targets,
                            objective, alpha, stage_cfg.sigma, n_base=len(chunk),
                            tile_dtype=tile_dtype,
                        )
                        if not np.isfinite(breakdown.total):
                            raise FloatingPointError(f"loss is {breakdown.total}")
                        # each net's cotangent has one column per output
                        for k, (s, tape, g) in enumerate(zip(specs, tapes, grads)):
                            g_net = backward(s, tape, g.reshape(len(g), -1))
                            params[k] = rmsprop_step(params[k], g_net, states[k], opt_cfg)
                    except FloatingPointError as exc:
                        raise TrainingError(
                            f"stage {stage_idx} epoch {epoch} batch {bi}: {exc}"
                        ) from exc
                    if batch_callback is not None:
                        batch_callback(stage_idx, epoch, bi, breakdown)

            try:
                mapped_all = _check_mapped(forward(specs[0], params[0], x))
            except FloatingPointError as exc:
                raise TrainingError(f"stage {stage_idx} evaluation: {exc}") from exc
            eval_h = _chunked_hausdorff(mapped_all, w_eval)
            eval_angle = None
            if eval_mesh is not None:
                eval_angle = float(angle_distortion(eval_mesh, mapped_all).mean_abs)
            eval_lm = max((_chunked_hausdorff(mapped_all[g], q) for g, q in zip(groups, targets)),
                          default=None)
            # the loss fields are the stage's last step's
            record = StageRecord(
                stage=stage_idx, sigma=stage_cfg.sigma, alpha_init=stage_cfg.alpha_init,
                alpha_final=stage_cfg.alpha_final, epochs=stage_cfg.epochs,
                batch_points=stage_cfg.batch_points, batch_domain=stage_cfg.batch_domain,
                loss_total=breakdown.total, loss_leg=breakdown.leg, loss_hand=breakdown.hand,
                loss_landmark=breakdown.landmark, eval_hausdorff=eval_h,
                eval_mean_abs_angle=eval_angle, eval_landmark_hausdorff=eval_lm,
            )
            records.append(record)
            if stage_callback is not None:
                stage_callback(stage_idx, record, *_map_and_lambda([p.copy() for p in params]))
            if stage_cfg.batch_points == n_points:
                break
            stage_cfg = advance_stage(stage_cfg, n_points, domain_size)

    (map_spec, lambda_spec), (map_params, lambda_params) = map(_map_and_lambda, (specs, params))
    return TrainResult(map_spec, map_params, lambda_spec, lambda_params, records, mapped_all)
