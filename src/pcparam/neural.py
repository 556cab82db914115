"""Small fully-connected networks with sine activations, by hand in numpy.

Parameters live in one flat float64 vector laid out layer by layer, weights
then bias per layer; weights are (fan_in, fan_out) raveled row-major. Hidden
layers apply sin(omega * (a W + b)); the output layer is affine, optionally
followed by a softplus (used to keep inverse conformal factors positive).
Reverse-mode gradients are implemented directly: forward() can record a tape
of the activations it computed, and backward() works from that tape, so
the network runs forward once per gradient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _halves

__all__ = [
    "NetworkSpec",
    "param_count",
    "init_params",
    "forward",
    "backward",
    "softplus",
    "save_checkpoint",
    "load_checkpoint",
    "default_map_spec",
    "default_lambda_spec",
]

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of one network."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    output_dim: int
    output_activation: str = "linear"  # "linear" | "softplus"
    omega: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be >= 1")
        if self.output_activation not in ("linear", "softplus"):
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive, got {self.omega}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_widths, self.output_dim]
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]


def param_count(spec: NetworkSpec) -> int:
    return sum(fi * fo + fo for fi, fo in spec.layer_dims)


def init_params(spec: NetworkSpec, seed: int) -> np.ndarray:
    """Deterministic init: weights uniform in +-sqrt(6/fan_in)/omega, biases 0."""
    rng = np.random.default_rng(seed)
    params = np.zeros(param_count(spec), dtype=np.float64)
    off = 0
    for fi, fo in spec.layer_dims:
        bound = np.sqrt(6.0 / fi) / spec.omega
        params[off : off + fi * fo] = rng.uniform(-bound, bound, size=fi * fo)
        off += fi * fo + fo  # biases stay zero
    return params


def _unpack(spec: NetworkSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"expected {param_count(spec)} parameters for {spec}, got shape {params.shape}"
        )
    if not np.isfinite(params).all():
        raise ValueError(
            f"non-finite parameter at index {int(np.flatnonzero(~np.isfinite(params))[0])}"
        )
    layers = []
    off = 0
    for fi, fo in spec.layer_dims:
        w = params[off : off + fi * fo].reshape(fi, fo)
        off += fi * fo
        b = params[off : off + fo]
        off += fo
        layers.append((w, b))
    return layers


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x), overflow-safe for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_inputs(spec: NetworkSpec, inputs) -> np.ndarray:
    a = np.asarray(inputs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != spec.input_dim:
        raise ValueError(f"inputs must be (n, {spec.input_dim}), got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("inputs contain non-finite values")
    return a


def forward(spec: NetworkSpec, params, inputs, *, tape: list | None = None) -> np.ndarray:
    """Evaluate the network on a batch of rows.

    The rows run in two halves, the first on a worker thread, or in one
    piece for small nets and batches (`_halves.split`). If `tape` is a list,
    its contents are replaced by what backward() needs of this pass: one
    tape per piece, holding per layer the weights, the layer's input rows
    and its pre-activation (scaled by omega on hidden layers).
    """
    layers = _unpack(spec, params)
    a = _check_inputs(spec, inputs)
    out = np.empty((len(a), spec.output_dim))

    def half(lo: int, hi: int) -> list | None:
        return _forward_rows(spec, layers, a[lo:hi], out[lo:hi], tape is not None)

    parts = _halves.split(half, len(a), _widest(spec))
    if tape is not None:
        tape[:] = parts
    return out


def _widest(spec: NetworkSpec) -> int:
    """Elements one row adds to the largest array of a layer."""
    return max(fo for _, fo in spec.layer_dims)


def _forward_rows(spec: NetworkSpec, layers, a, out, keep: bool) -> list | None:
    """The layer loop over some rows into `out`; their tape if `keep`."""
    tape = [] if keep else None
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        z = a @ w
        z += b
        if li < last:
            if spec.omega != 1.0:
                z *= spec.omega
            nxt = np.sin(z)
        elif spec.output_activation == "softplus":
            nxt = softplus(z)
        else:
            nxt = z
        if keep:
            tape.append((w, a, z))
        a = nxt
    out[...] = a
    return tape


def backward(
    spec: NetworkSpec, params, inputs, output_cotangent, *, tape: list
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-mode pass: (d loss / d params flat, d loss / d inputs).

    `output_cotangent` is d loss / d outputs, shape (n, output_dim). `tape`
    is the tape a forward() of the same spec, params and inputs filled; its
    activations are reused, so a training step runs each net forward once,
    and `inputs` is not read. Each piece of the rows runs back through its
    own tape, as forward() cut them; the weight gradient is half 0's plus
    half 1's.
    """
    dims = spec.layer_dims
    if not tape or [len(t) for t in tape] != [len(dims)] * len(tape):
        raise ValueError(f"tape has {len(tape[0]) if tape else 0} layers, {spec} has {len(dims)}")
    ct = np.asarray(output_cotangent, dtype=np.float64)
    n = sum(len(t[0][1]) for t in tape)
    if ct.shape != (n, spec.output_dim):
        raise ValueError(f"cotangent shape {ct.shape} != output shape {(n, spec.output_dim)}")
    da = np.empty((n, spec.input_dim))

    def half(lo: int, hi: int) -> np.ndarray:
        return _backward_rows(spec, tape[1 if lo else 0], ct[lo:hi], da[lo:hi])

    grad, *rest = _halves.split(half, n, _widest(spec))
    for g in rest:
        grad += g
    return grad, da


def _backward_rows(spec: NetworkSpec, tape: list, ct, da_out) -> np.ndarray:
    """The reverse layer loop over the rows of one half tape; their weight
    gradient, and their input gradient into `da_out`."""
    dims = spec.layer_dims
    grad = np.empty(param_count(spec))
    o = len(grad)
    dz = ct * _sigmoid(tape[-1][2]) if spec.output_activation == "softplus" else ct
    for li in range(len(dims) - 1, -1, -1):
        w, a, _ = tape[li]
        fi, fo = dims[li]
        o -= fi * fo + fo
        grad[o : o + fi * fo] = (a.T @ dz).ravel()
        grad[o + fi * fo : o + fi * fo + fo] = dz.sum(axis=0)
        da = dz @ w.T
        if li > 0:
            # d sin(omega z) / dz = omega cos(omega z); the tape holds omega z
            deriv = np.cos(tape[li - 1][2])
            if spec.omega != 1.0:
                deriv *= spec.omega
            da *= deriv
            dz = da
    da_out[...] = da
    return grad


def save_checkpoint(path, spec: NetworkSpec, params) -> None:
    """Write {version, spec, params} as JSON. Deterministic byte output."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (param_count(spec),):
        raise ValueError(f"params shape {params.shape} does not match {spec}")
    doc = {
        "version": CHECKPOINT_VERSION,
        "spec": {
            "input_dim": spec.input_dim,
            "hidden_widths": list(spec.hidden_widths),
            "output_dim": spec.output_dim,
            "output_activation": spec.output_activation,
            "omega": spec.omega,
        },
        "params": params.tolist(),
    }
    # json.dump always runs the pure-Python encoder; dumps uses the C one
    # (same bytes)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(doc, separators=(",", ":")))
        f.write("\n")


def load_checkpoint(path) -> tuple[NetworkSpec, np.ndarray]:
    """Read a checkpoint; validates version, spec fields and parameter count."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt checkpoint JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    try:
        s = doc["spec"]
        spec = NetworkSpec(
            input_dim=int(s["input_dim"]),
            hidden_widths=tuple(int(w) for w in s["hidden_widths"]),
            output_dim=int(s["output_dim"]),
            output_activation=str(s.get("output_activation", "linear")),
            omega=float(s.get("omega", 1.0)),
        )
        params = np.asarray(doc["params"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from exc
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"{path}: checkpoint has {params.size} parameters, spec wants {param_count(spec)}"
        )
    return spec, params


def default_map_spec(input_dim: int = 3) -> NetworkSpec:
    """Parametrization network: cloud points to plane. A planar cloud (plane
    to plane shape matching) gets three 64-wide layers, a surface cloud five
    256-wide ones."""
    widths = (64, 64, 64) if input_dim == 2 else (256, 256, 256, 256, 256)
    return NetworkSpec(input_dim, widths, 2)


def default_lambda_spec(input_dim: int = 3) -> NetworkSpec:
    """Inverse conformal factor network; softplus keeps outputs positive."""
    return NetworkSpec(input_dim, (128, 128, 128), 1, output_activation="softplus")
