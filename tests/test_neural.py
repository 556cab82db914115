"""Sine-activation networks: init, forward/backward, checkpoints."""

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
        g, gx = backward(spec, params, x, ct, tape=tape)
        fd = _fd_param_grad(spec, params, x, ct)
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-6

        gx_fd = np.zeros_like(x)
        for i in range(x.size):
            h = np.zeros_like(x).ravel()
            h[i] = 1e-6
            h = h.reshape(x.shape)
            up = (forward(spec, params, x + h) * ct).sum()
            dn = (forward(spec, params, x - h) * ct).sum()
            gx_fd.ravel()[i] = (up - dn) / 2e-6
        assert np.linalg.norm(gx - gx_fd) / max(np.linalg.norm(gx_fd), 1e-12) < 1e-6


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
        backward(spec, params, np.zeros((2, 2)), np.zeros((3, 2)), tape=tape)


def test_checkpoint_round_trip(tmp_path):
    spec = NetworkSpec(3, (8, 4), 2, output_activation="softplus", omega=1.5)
    params = init_params(spec, seed=9)
    path = tmp_path / "net.ckpt.json"
    save_checkpoint(path, spec, params)
    spec2, params2 = load_checkpoint(path)
    assert spec2 == spec
    np.testing.assert_array_equal(params2, params)
    # save is byte deterministic
    path2 = tmp_path / "again.ckpt.json"
    save_checkpoint(path2, spec, params)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_bad_files(tmp_path):
    spec = NetworkSpec(2, (3,), 1)
    params = init_params(spec, seed=0)
    good = tmp_path / "good.json"
    save_checkpoint(good, spec, params)

    bad = tmp_path / "trunc.json"
    bad.write_text(good.read_text()[:40])
    with pytest.raises(ValueError, match="corrupt"):
        load_checkpoint(bad)

    import json

    doc = json.loads(good.read_text())
    doc["version"] = 99
    vfile = tmp_path / "version.json"
    vfile.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(vfile)

    doc = json.loads(good.read_text())
    doc["params"] = doc["params"][:-1]
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="parameters"):
        load_checkpoint(pfile)

    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.json", spec, params[:-1])
