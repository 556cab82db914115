"""Small fully-connected networks with sine activations, by hand in numpy.

Parameters live in one flat float64 vector laid out layer by layer, weights
then bias per layer; weights are (fan_in, fan_out) raveled row-major. Hidden
layers apply sin(omega * (a W + b)); the output layer is affine, optionally
followed by a softplus (used to keep inverse conformal factors positive).
Reverse-mode gradients are implemented directly: forward() can record a tape
of the activations it computed, and backward() works from that tape, so
the network runs forward once per gradient.

A spec's `dtype` ("float64" or "float32") is the precision of its layer
loop. Under "float32", forward() casts the weights and the inputs once per
call and runs the matmuls, sin, cos and tape in float32. The output head
is float64: the softplus runs on the float32 pre-activation taken to
float64, and an affine output is taken to float64 as it is. backward()
writes each layer's float32 products into the float64 flat gradient, so
the parameters, the optimizer state and the losses stay float64. On numpy
2.4 (x86-64, AVX-512) float32 sin on a 1024 x 256 array takes about
0.3 ms against about 6 ms for float64, which takes the scalar libm path.
numpy picks its float32 sin and cos loops by CPU feature, so float32 bits
can differ between CPUs with and without AVX2/FMA3. Both passes check what
they produced rather than bound it in advance: forward() refuses a pass
whose output head's pre-activation is not finite, which an inf or NaN in
any layer reaches, and backward() one whose gradient is not finite, each
with a FloatingPointError in either dtype. An input the dtype cannot hold,
past the largest float32 on a float32 net, is a ValueError before the
pass. The default specs are float32; the finite-difference checks and the
bit-exact tests run float64 specs.

A checkpoint is one line of JSON, {"version": 2, "spec": {...}, "params":
"..."}, with params the base64 text of the flat vector's little-endian
float64 bytes, whatever the spec's dtype. The spec holds the fields of
NetworkSpec, which checks them on reading as it does anywhere; it holds
"dtype" only when it is not "float64", so a file without it loads as a
float64 net. Writing the 264,706 parameters of the default 3-D map net
takes about 13 ms and reading them about 30 ms (2 vCPUs), against about
0.35 s and 0.2 s for version 1, which listed them as shortest round-trip
decimals and still loads.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import _halves
from .geometry import _check_real

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

CHECKPOINT_VERSION = 2

_DTYPES = ("float64", "float32")


def _is_size(value) -> bool:
    return isinstance(value, numbers.Integral) and value >= 1


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of one network."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    output_dim: int
    output_activation: str = "linear"  # "linear" | "softplus"
    omega: float = 1.0
    dtype: str = "float64"  # precision of the layer loop, one of _DTYPES

    def __post_init__(self) -> None:
        for name in ("input_dim", "output_dim"):
            _check_real(name, getattr(self, name), _is_size, "an integer >= 1")
            object.__setattr__(self, name, int(getattr(self, name)))
        widths = self.hidden_widths
        if not (isinstance(widths, (list, tuple))
                and all(not isinstance(w, bool) and _is_size(w) for w in widths)):
            raise ValueError(f"hidden_widths must be a list of positive integers, got {widths!r}")
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in widths))
        if self.output_activation not in ("linear", "softplus"):
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        _check_real("omega", self.omega, lambda v: 0 < v < math.inf, "positive and finite")
        object.__setattr__(self, "omega", float(self.omega))
        if not (isinstance(self.dtype, str) and self.dtype in _DTYPES):
            raise ValueError(f"dtype must be one of {_DTYPES}, got {self.dtype!r}")

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
    """Per layer (weights, bias) views of the flat float64 params."""
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
    """The inputs as (n, input_dim) rows of spec.dtype, each value finite
    in it: a float32 net refuses an input past the largest float32, where
    the cast alone would overflow."""
    a = np.asarray(inputs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != spec.input_dim:
        raise ValueError(f"inputs must be (n, {spec.input_dim}), got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("inputs contain non-finite values")
    biggest, top = float(np.abs(a).max(initial=0.0)), float(np.finfo(spec.dtype).max)
    if not biggest <= top:
        raise ValueError(
            f"inputs reach magnitude {biggest:g}, past the largest {spec.dtype} ({top:g})"
        )
    return a.astype(spec.dtype, copy=False)


def _overflow(spec: NetworkSpec, what: str, values, name: str) -> FloatingPointError:
    """The refusal of a pass whose `what` left spec.dtype's range, naming
    the largest magnitude of the `values` that went in."""
    return FloatingPointError(
        f"the {spec.dtype} {what} left {spec.dtype}'s range (magnitude up to "
        f"{float(np.finfo(spec.dtype).max):g}) on {name} of magnitude up to "
        f"{float(np.abs(values).max(initial=0.0)):g}"
    )


def forward(spec: NetworkSpec, params, inputs, *, tape: list | None = None) -> np.ndarray:
    """Evaluate the network on a batch of rows.

    The rows run in two halves, the first on a worker thread, or in one
    piece for small nets and batches (`_halves.split`). If `tape` is a list,
    its contents are replaced by what backward() needs of this pass: one
    tape per piece, holding per layer the weights, the layer's input rows
    and its pre-activation (scaled by omega on hidden layers), all in
    spec.dtype. The output is float64 whatever the dtype; a pass whose
    head's pre-activation is not finite raises FloatingPointError.
    """
    layers = _unpack(spec, params)
    a = _check_inputs(spec, inputs)
    out = np.empty((len(a), spec.output_dim))

    def half(lo: int, hi: int) -> list | None:
        return _forward_rows(spec, layers, a[lo:hi], out[lo:hi], tape is not None)

    # an overflow leaves inf or NaN in the head's pre-activation, which is
    # refused below, so it need not warn here
    with np.errstate(over="ignore", invalid="ignore"):
        layers = [(w.astype(spec.dtype, copy=False), b.astype(spec.dtype, copy=False))
                  for w, b in layers]
        parts = _halves.split(half, len(a), _widest(spec))
    if not np.isfinite(out).all():
        raise _overflow(spec, "pass", a, "inputs")
    if spec.output_activation == "softplus":  # in float64
        out = softplus(out)
    if tape is not None:
        tape[:] = parts
    return out


def _widest(spec: NetworkSpec) -> int:
    """Elements one row adds to the largest array of a layer."""
    return max(fo for _, fo in spec.layer_dims)


def _forward_rows(spec: NetworkSpec, layers, a, out, keep: bool) -> list | None:
    """The layer loop over some rows, the head's pre-activation into `out`;
    their tape if `keep`."""
    tape = [] if keep else None
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        z = a @ w
        z += b
        if li < last and spec.omega != 1.0:
            z *= spec.omega
        if keep:
            tape.append((w, a, z))
        a = np.sin(z) if li < last else z
    out[...] = a
    return tape


def backward(spec: NetworkSpec, tape: list, output_cotangent) -> np.ndarray:
    """Reverse-mode pass: d loss / d params, flat.

    `tape` is the tape a forward() of the same spec filled, and
    `output_cotangent` is d loss / d outputs, shape (n, output_dim). The
    tape's activations and weights are reused, so a training step runs each
    net forward once. Training moves only the parameters, so no gradient in
    the inputs is formed. Each piece of the rows runs back through its own
    tape, as forward() cut them; the gradient is half 0's plus half 1's.
    The layer loop runs in spec.dtype and the gradient is float64; a loop
    that overflowed spec.dtype is refused with a FloatingPointError.
    """
    dims = spec.layer_dims
    if not tape or [len(t) for t in tape] != [len(dims)] * len(tape):
        raise ValueError(f"tape has {len(tape[0]) if tape else 0} layers, {spec} has {len(dims)}")
    ct = np.asarray(output_cotangent, dtype=np.float64)
    n = sum(len(t[0][1]) for t in tape)
    if ct.shape != (n, spec.output_dim):
        raise ValueError(f"cotangent shape {ct.shape} != output shape {(n, spec.output_dim)}")

    def half(lo: int, hi: int) -> np.ndarray:
        return _backward_rows(spec, tape[1 if lo else 0], ct[lo:hi])

    grads = _halves.split(half, n, _widest(spec))
    if not all(np.isfinite(g).all() for g in grads):
        raise _overflow(spec, "gradient", ct, "output cotangents")
    grad, *rest = grads
    for g in rest:
        grad += g
    return grad


def _backward_rows(spec: NetworkSpec, tape: list, ct) -> np.ndarray:
    """The reverse layer loop over the rows of one half tape; their
    parameter gradient."""
    dims = spec.layer_dims
    grad = np.empty(param_count(spec))
    o = len(grad)
    if spec.output_activation == "softplus":  # the head is float64
        ct = ct * _sigmoid(tape[-1][2].astype(np.float64, copy=False))
    # an overflow leaves inf or NaN in the gradient, which backward()
    # refuses, so it need not warn here
    with np.errstate(over="ignore", invalid="ignore"):
        dz = ct.astype(spec.dtype, copy=False)
        for li in range(len(dims) - 1, -1, -1):
            w, a, _ = tape[li]
            fi, fo = dims[li]
            o -= fi * fo + fo
            grad[o : o + fi * fo] = (a.T @ dz).ravel()
            grad[o + fi * fo : o + fi * fo + fo] = dz.sum(axis=0)
            if li > 0:
                # d sin(omega z) / dz = omega cos(omega z); the tape holds omega z
                deriv = np.cos(tape[li - 1][2])
                if spec.omega != 1.0:
                    deriv *= spec.omega
                dz = dz @ w.T
                dz *= deriv
    return grad


def save_checkpoint(path, spec: NetworkSpec, params) -> None:
    """Write {version, spec, params} as one line of JSON, params as the
    base64 text of the vector's little-endian float64 bytes. Deterministic
    bytes."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (param_count(spec),):
        raise ValueError(f"params shape {params.shape} does not match {spec}")
    fields = asdict(spec)
    if spec.dtype == "float64":
        del fields["dtype"]
    doc = {"version": CHECKPOINT_VERSION, "spec": fields}
    # the document as json.dumps would write it with "params" last; the
    # base64 text needs no escapes, and scanning its megabytes for them
    # took about 13 ms of a 33 ms write, so it goes outside the encoder
    head = json.dumps(doc, separators=(",", ":"))[:-1].encode("ascii")
    with open(path, "wb") as f:
        f.write(head + b',"params":"')
        f.write(base64.b64encode(params.astype("<f8").tobytes()))
        f.write(b'"}\n')


def _decode_params(version: int, raw) -> np.ndarray:
    """The flat float64 parameters of a version-1 (list of numbers) or
    version-2 (base64 of little-endian float64) `params` field."""
    if version == 1:
        if not isinstance(raw, list):
            raise ValueError(f"params is a {type(raw).__name__}, not a list")
        try:
            params = np.asarray(raw)
            flat = params.ndim == 1 and params.dtype.kind in "fi"
        except ValueError:  # ragged nesting
            flat = False
        if not flat:
            raise ValueError("params is not a flat list of numbers")
        return params.astype(np.float64)
    if not isinstance(raw, str):
        raise ValueError(f"params is a {type(raw).__name__}, not a base64 string")
    try:
        data = base64.b64decode(raw, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII str
        raise ValueError(f"params is not base64: {exc}") from None
    if len(data) % 8:
        raise ValueError(f"params holds {len(data)} bytes, not whole float64 values")
    return np.frombuffer(data, dtype="<f8").astype(np.float64)


def load_checkpoint(path) -> tuple[NetworkSpec, np.ndarray]:
    """Read a checkpoint of version 2 or 1; validates version, spec fields
    (NetworkSpec's own checks) and parameter count. Any malformed document
    is a ValueError naming path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt checkpoint JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(
            f"{path}: malformed checkpoint: top level is a {type(doc).__name__}, not an object"
        )
    version = doc.get("version")
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        fields = doc["spec"]
        if not isinstance(fields, dict):
            raise TypeError(f"spec is a {type(fields).__name__}, not an object")
        spec = NetworkSpec(**fields)
        params = _decode_params(version, doc["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from exc
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"{path}: checkpoint has {params.size} parameters, spec wants {param_count(spec)}"
        )
    return spec, params


def default_map_spec(input_dim: int = 3) -> NetworkSpec:
    """Parametrization network: cloud points to plane. A planar cloud (plane
    to plane shape matching) gets three 64-wide layers, a surface cloud five
    256-wide ones. Its layer loop runs in float32."""
    widths = (64, 64, 64) if input_dim == 2 else (256, 256, 256, 256, 256)
    return NetworkSpec(input_dim, widths, 2, dtype="float32")


def default_lambda_spec(input_dim: int = 3) -> NetworkSpec:
    """Inverse conformal factor network; softplus keeps outputs positive.
    Its layer loop runs in float32."""
    return NetworkSpec(input_dim, (128, 128, 128), 1, output_activation="softplus",
                       dtype="float32")
