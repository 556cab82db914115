"""Sine-activation networks: init, forward/backward, checkpoints."""

import base64
import dataclasses
import json
import warnings

import numpy as np
import pytest

from pcparam.neural import (
    CHECKPOINT_VERSION,
    NetworkSpec,
    backward,
    default_lambda_spec,
    default_map_spec,
    forward,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
    softplus,
)


def test_param_count_frozen_values():
    assert param_count(NetworkSpec(3, (8, 4), 2)) == 78
    assert param_count(NetworkSpec(1, (), 1)) == 2
    # the three stock architectures
    assert param_count(default_map_spec(2)) == 8642
    # 3*256+256 + 4*(256*256+256) + 256*2+2
    assert param_count(default_map_spec(3)) == 264706
    assert param_count(default_lambda_spec(3)) == 33665


def test_default_spec_shapes():
    assert default_map_spec(2).dtype == default_lambda_spec(3).dtype == "float32"
    assert NetworkSpec(2, (4,), 2).dtype == "float64"
    assert default_map_spec(2).hidden_widths == (64,) * 3
    assert default_map_spec(3).hidden_widths == (256,) * 5
    assert default_map_spec(2).input_dim == 2
    lam = default_lambda_spec(3)
    assert lam.output_dim == 1
    assert lam.output_activation == "softplus"


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(0, (4,), 2)
    with pytest.raises(ValueError):
        NetworkSpec(2, (4, 0), 2)
    with pytest.raises(ValueError):
        NetworkSpec(2, (4,), 2, output_activation="relu")
    with pytest.raises(ValueError):
        NetworkSpec(2, (4,), 2, omega=0.0)
    # omega is a real number, not a bool or a string of one
    for omega in (True, "2", None, float("nan")):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            NetworkSpec(2, (4,), 2, omega=omega)
    assert NetworkSpec(2, (4,), 2, omega=2).omega == 2.0
    assert type(NetworkSpec(2, (4,), 2, omega=np.float32(2)).omega) is float
    for dtype in ("float16", np.float32, None):
        with pytest.raises(ValueError, match="dtype must be one of"):
            NetworkSpec(2, (4,), 2, dtype=dtype)


def test_init_bounds_and_zero_biases():
    spec = NetworkSpec(3, (16, 8), 2, omega=2.0)
    params = init_params(spec, seed=5)
    off = 0
    for fi, fo in spec.layer_dims:
        w = params[off : off + fi * fo]
        b = params[off + fi * fo : off + fi * fo + fo]
        bound = np.sqrt(6.0 / fi) / spec.omega
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # actually spread out
        np.testing.assert_array_equal(b, np.zeros(fo))
        off += fi * fo + fo
    assert off == param_count(spec)


def test_init_deterministic():
    spec = default_map_spec(2)
    a = init_params(spec, seed=7)
    b = init_params(spec, seed=7)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, init_params(spec, seed=8))


def test_forward_matches_manual_computation():
    spec = NetworkSpec(2, (3,), 1, omega=1.5)
    # params layout: W1 (2x3) row-major, b1 (3), W2 (3x1), b2 (1)
    w1 = np.array([[0.2, -0.4, 0.1], [0.5, 0.3, -0.2]])
    b1 = np.array([0.05, -0.1, 0.0])
    w2 = np.array([[1.0], [-2.0], [0.5]])
    b2 = np.array([0.25])
    params = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
    x = np.array([[0.3, -0.7], [1.2, 0.4]])
    want = np.sin(1.5 * (x @ w1 + b1)) @ w2 + b2
    got = forward(spec, params, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_forward_softplus_output():
    spec = NetworkSpec(2, (4,), 1, output_activation="softplus")
    params = init_params(spec, seed=3)
    out = forward(spec, params, np.random.default_rng(0).normal(0, 2, (50, 2)))
    assert (out > 0).all()


def test_softplus_overflow_safe():
    assert softplus(np.array([800.0]))[0] == 800.0
    assert softplus(np.array([-800.0]))[0] == 0.0
    x = np.array([-2.0, 0.0, 1.5])
    np.testing.assert_allclose(softplus(x), np.log1p(np.exp(x)), rtol=1e-15)


def test_batched_equals_single_rows():
    spec = NetworkSpec(3, (8, 8), 2)
    params = init_params(spec, seed=11)
    x = np.random.default_rng(1).normal(0, 1, (7, 3))
    batch = forward(spec, params, x)
    rows = np.vstack([forward(spec, params, x[i : i + 1]) for i in range(7)])
    np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-12)


def _fd_param_grad(spec, params, x, ct, eps=1e-6):
    g = np.zeros_like(params)
    for i in range(params.size):
        h = np.zeros_like(params)
        h[i] = eps
        up = (forward(spec, params + h, x) * ct).sum()
        dn = (forward(spec, params - h, x) * ct).sum()
        g[i] = (up - dn) / (2 * eps)
    return g


def test_backward_matches_fd():
    rng = np.random.default_rng(23)
    for spec in (
        NetworkSpec(2, (5,), 2),
        NetworkSpec(3, (6, 4), 1, output_activation="softplus"),
        NetworkSpec(2, (4, 4, 4), 2, omega=1.3),
    ):
        params = init_params(spec, seed=2)
        x = rng.normal(0, 1, (6, spec.input_dim))
        ct = rng.normal(0, 1, (6, spec.output_dim))
        tape = []
        forward(spec, params, x, tape=tape)
        g = backward(spec, tape, ct)
        fd = _fd_param_grad(spec, params, x, ct)
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-6


def test_forward_validation():
    spec = NetworkSpec(2, (4,), 2)
    params = init_params(spec, seed=0)
    with pytest.raises(ValueError):
        forward(spec, params[:-1], np.zeros((1, 2)))
    bad = params.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite parameter"):
        forward(spec, bad, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        forward(spec, params, np.zeros((3,)))
    with pytest.raises(ValueError):
        forward(spec, params, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        forward(spec, params, np.array([[0.0, np.inf]]))
    tape = []
    forward(spec, params, np.zeros((2, 2)), tape=tape)
    with pytest.raises(ValueError, match="cotangent shape"):
        backward(spec, tape, np.zeros((3, 2)))


# the largest |float32 - float64| of outputs and of parameter gradients,
# over the largest float64 entry, at the default widths must stay below
# this: about 84 float32 epsilons. Measured: 3e-7 to 1e-6.
FLOAT32_REL_BOUND = 1e-5


@pytest.mark.parametrize("n", [1024, 2046])
@pytest.mark.parametrize("default", [default_map_spec, default_lambda_spec])
def test_float32_matches_float64_at_default_widths(default, n):
    spec32 = default(3)
    spec64 = dataclasses.replace(spec32, dtype="float64")
    params = init_params(spec64, seed=4)
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, (n, 3))
    ct = rng.normal(0.0, 1.0, (n, spec64.output_dim))
    got = {}
    for spec in (spec32, spec64):
        tape = []
        out = forward(spec, params, x, tape=tape)
        got[spec.dtype] = out, backward(spec, tape, ct)
        assert tape[0][0][0].dtype == spec.dtype  # the weights the layer loop ran
    for k in (0, 1):  # outputs, gradient
        want, have = got["float64"][k], got["float32"][k]
        assert have.dtype == np.float64
        assert np.abs(have - want).max() / np.abs(want).max() < FLOAT32_REL_BOUND


def test_float32_forward_refuses_inputs_past_float32_range():
    spec = NetworkSpec(3, (8,), 2, dtype="float32")
    params = init_params(spec, seed=0)
    big_bias = params.copy()
    big_bias[-1] = 1e39  # an output bias past float32 even on small inputs
    past = r"the float32 pass left float32's range \(magnitude up to 3\.40282e\+38\) on inputs"
    for p, x, error, message in [
        # the cast alone overflows: refused before the pass
        (params, np.array([[0.0, 1e39, 0.5]]), ValueError,
         r"inputs reach magnitude 1e\+39, past the largest float32 \(3\.40282e\+38\)"),
        # the first matmul overflows, and then the bias of the head
        (params, np.array([[2e38, 1e38, -2e38]]), FloatingPointError,
         past + r" of magnitude up to 2e\+38$"),
        (big_bias, np.array([[0.0, 1.0, 0.5]]), FloatingPointError,
         past + r" of magnitude up to 1$"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning before the refusal
            for tape in (None, []):
                with pytest.raises(error, match=message):
                    forward(spec, p, x, tape=tape)
        assert np.isfinite(forward(dataclasses.replace(spec, dtype="float64"), p, x)).all()
    # inputs the default init admits stay finite, without a warning
    spec = default_map_spec(3)
    params = init_params(spec, seed=0)
    x = np.random.default_rng(0).uniform(-3e37, 3e37, (64, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape = []
        assert np.isfinite(forward(spec, params, x, tape=tape)).all()
        assert np.isfinite(backward(spec, tape, np.ones((64, 2)))).all()
        # a gradient past its dtype's range is refused, not left inf or NaN,
        # in float32 and in float64 alike
        for net, ct, top in [(spec, 1e6, r"3\.40282e\+38"),
                             (dataclasses.replace(spec, dtype="float64"), 1e300,
                              r"1\.79769e\+308")]:
            tape = []
            forward(net, params, x, tape=tape)
            want = rf"the {net.dtype} gradient left {net.dtype}'s range \(magnitude up to {top}\)"
            with pytest.raises(FloatingPointError, match=want):
                backward(net, tape, np.full((64, 2), ct))


@pytest.mark.parametrize("dtype, weight", [("float64", -1e300), ("float32", -1e30)])
def test_forward_refuses_a_softplus_head_at_minus_inf(dtype, weight):
    # the head's pre-activation overflows to -inf, where softplus is a finite 0
    spec = NetworkSpec(2, (), 1, output_activation="softplus", dtype=dtype)
    params = np.array([weight, weight, 0.0])
    x = np.array([[1e10, 1e10], [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=rf"^the {dtype} pass left {dtype}'s range"):
            forward(spec, params, x)
        assert np.isfinite(forward(spec, params, x[1:])).all()


def test_checkpoint_round_trip(tmp_path):
    spec = NetworkSpec(3, (8, 4), 2, output_activation="softplus", omega=1.5)
    params = init_params(spec, seed=9)
    params[:4] = [5e-324, -0.0, 0.1 + 0.2, np.nan]
    path = tmp_path / "net.ckpt.json"
    save_checkpoint(path, spec, params)
    spec2, params2 = load_checkpoint(path)
    assert spec2 == spec
    assert params2.dtype == np.float64 and params2.tobytes() == params.tobytes()
    # one line of strict JSON, params the base64 of the little-endian bytes
    text = path.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON token {c}"))
    assert list(doc) == ["version", "spec", "params"]
    assert doc["version"] == CHECKPOINT_VERSION == 2
    assert base64.b64decode(doc["params"]) == params.astype("<f8").tobytes()
    # save is byte deterministic
    path2 = tmp_path / "again.ckpt.json"
    save_checkpoint(path2, spec, params)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_checkpoint_bytes_are_json_dumps_of_the_document(tmp_path, dtype):
    # the base64 text is written outside the encoder, with the bytes that
    # json.dumps gives the whole document; "dtype" only when not float64
    spec = NetworkSpec(3, (8, 4), 2, output_activation="softplus", omega=1.5, dtype=dtype)
    params = init_params(spec, seed=9)
    path = tmp_path / "net.ckpt.json"
    save_checkpoint(path, spec, params)
    spec_doc = {"input_dim": 3, "hidden_widths": [8, 4], "output_dim": 2,
                "output_activation": "softplus", "omega": 1.5}
    if dtype != "float64":
        spec_doc["dtype"] = dtype
    doc = {"version": 2, "spec": spec_doc,
           "params": base64.b64encode(params.astype("<f8").tobytes()).decode("ascii")}
    assert path.read_bytes() == (json.dumps(doc, separators=(",", ":")) + "\n").encode()
    assert load_checkpoint(path)[0] == spec


def test_checkpoint_without_dtype_loads_as_float64(tmp_path):
    path = tmp_path / "old.ckpt.json"
    path.write_text(_doc())
    assert load_checkpoint(path)[0] == NetworkSpec(1, (2,), 1, dtype="float64")
    path.write_text(V1_DOC)
    assert load_checkpoint(path)[0].dtype == "float64"


def test_checkpoint_rejects_bad_files(tmp_path):
    spec = NetworkSpec(2, (3,), 1)
    params = init_params(spec, seed=0)
    good = tmp_path / "good.json"
    save_checkpoint(good, spec, params)

    bad = tmp_path / "trunc.json"
    bad.write_text(good.read_text()[:40])
    with pytest.raises(ValueError, match="corrupt"):
        load_checkpoint(bad)

    doc = json.loads(good.read_text())
    doc["version"] = 99
    vfile = tmp_path / "version.json"
    vfile.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(vfile)

    doc = json.loads(good.read_text())
    doc["params"] = base64.b64encode(base64.b64decode(doc["params"])[:-8]).decode()
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="parameters"):
        load_checkpoint(pfile)

    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.json", spec, params[:-1])


# a version-1 document as version 1 wrote it: params.tolist() through
# json.dumps, shortest round-trip decimals, NaN as a bare token
V1_DOC = (
    '{"version":1,"spec":{"input_dim":1,"hidden_widths":[2],"output_dim":1,'
    '"output_activation":"linear","omega":1.0},'
    '"params":[0.30000000000000004,5e-324,-0.0,-1.7976931348623157e+308,'
    '0.1,NaN,1e-05]}\n'
)


def test_checkpoint_reads_version_1_bit_for_bit(tmp_path):
    path = tmp_path / "v1.ckpt.json"
    path.write_text(V1_DOC)
    spec, params = load_checkpoint(path)
    assert spec == NetworkSpec(1, (2,), 1)
    expected = np.array([0.1 + 0.2, 5e-324, -0.0, -np.finfo(np.float64).max, 0.1, np.nan, 1e-5])
    assert params.dtype == np.float64 and params.tobytes() == expected.tobytes()
    # integers in the list are read as numbers too
    path.write_text(V1_DOC.replace("0.1,NaN,1e-05", "1,-2,0"))
    assert load_checkpoint(path)[1][-3:].tolist() == [1.0, -2.0, 0.0]


def _doc(**changes) -> str:
    """A version-2 document of NetworkSpec(1, (2,), 1) with keys replaced."""
    spec = {"input_dim": 1, "hidden_widths": [2], "output_dim": 1}
    params = base64.b64encode(np.arange(7.0).astype("<f8").tobytes()).decode()
    doc = {"version": 2, "spec": spec, "params": params}
    for key, value in changes.items():
        (spec if key in {f.name for f in dataclasses.fields(NetworkSpec)} else doc)[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    pytest.param("[1, 2]", "top level is a list, not an object", id="list-document"),
    pytest.param('"x"', "top level is a str, not an object", id="string-document"),
    pytest.param(_doc(version=3), "unsupported checkpoint version 3", id="version-3"),
    pytest.param(_doc(version=True), "unsupported checkpoint version True", id="version-true"),
    pytest.param(_doc(version="2"), "unsupported checkpoint version '2'", id="version-str"),
    pytest.param(_doc(spec=[1, 2]), "spec is a list, not an object", id="spec-list"),
    pytest.param(_doc(hidden_widths="2"), "hidden_widths must be a list of positive integers, "
                 "got '2'", id="widths-str"),
    pytest.param(_doc(hidden_widths=[0]), "hidden_widths must be a list of positive integers, "
                 "got [0]", id="widths-zero"),
    # sizes are integers, not truncated to them
    pytest.param(_doc(hidden_widths=[2.7]), "hidden_widths must be a list of positive integers, "
                 "got [2.7]", id="widths-float"),
    pytest.param(_doc(input_dim=2.0), "input_dim must be an integer >= 1, got 2.0",
                 id="input-dim-float"),
    pytest.param(_doc(output_dim=True), "output_dim must be an integer >= 1, got True",
                 id="output-dim-true"),
    pytest.param(_doc(spec={"input_dim": 1, "hidden_widths": [2], "output_dim": 1, "depth": 3}),
                 "unexpected keyword argument 'depth'", id="spec-unknown-key"),
    pytest.param(_doc(dtype="float16"), "dtype must be one of ('float64', 'float32'), got "
                 "'float16'", id="dtype-float16"),
    pytest.param(_doc(dtype=32), "dtype must be one of", id="dtype-number"),
    pytest.param(_doc(omega=True), "omega must be positive and finite, got True",
                 id="omega-true"),
    # past the float range, so float() would raise OverflowError
    pytest.param(_doc(omega=10**400), "omega must be positive and finite, got 1000",
                 id="omega-huge-integer"),
    pytest.param(_doc(params=[0.0] * 7), "params is a list, not a base64 string",
                 id="v2-params-list"),
    pytest.param(_doc(params="AAAA*AAA"), "params is not base64", id="v2-not-base64"),
    pytest.param(_doc(params="AAAA\nAAA="), "params is not base64", id="v2-newline"),
    pytest.param(_doc(params="AAAA"), "3 bytes, not whole float64 values", id="v2-partial"),
    pytest.param(_doc(params=""), "checkpoint has 0 parameters, spec wants 7", id="v2-empty"),
    pytest.param(_doc(version=1, params=[[1, 2], [3, 4], [5, 6], [7]]),
                 "params is not a flat list of numbers", id="v1-ragged"),
    pytest.param(_doc(version=1, hidden_widths=[], output_dim=3,
                      params=[[1, 2], [3, 4], [5, 6]]),
                 "params is not a flat list of numbers", id="v1-nested"),
    pytest.param(_doc(version=1, params=["1"] * 7), "params is not a flat list of numbers",
                 id="v1-strings"),
    pytest.param(_doc(version=1, params=[True] * 7), "params is not a flat list of numbers",
                 id="v1-bools"),
    pytest.param(_doc(version=1, params="AAAA"), "params is a str, not a list", id="v1-str"),
    pytest.param(_doc(version=1, params=[0.0] * 6), "checkpoint has 6 parameters",
                 id="v1-count"),
])
def test_checkpoint_malformed_document_names_the_path(tmp_path, text, message):
    path = tmp_path / "bad.ckpt.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)
