import math

import numpy as np
import pytest
import scipy.sparse as sp

from unilp.autodiff import (
    Optimizer,
    PROB_EPS,
    Tape,
    check_gradients,
    clone_params,
    const,
    load_checkpoint,
    param,
    save_checkpoint,
    step,
    xavier_uniform,
    zero_grad,
)
from unilp.errors import ConfigError, DataError, NumericError
from unilp.rng import derive_rng

GRAD_TOL = 1e-6


def safe_values(shape, seed):
    """Random values bounded away from zero so kinked ops (leaky_relu,
    clamp) stay differentiable at every probe point."""
    rng = derive_rng(seed, "test-autodiff-values")
    return rng.uniform(0.2, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def scalarize(tape, x, seed=0):
    """Squash any output to a scalar with fixed random weights, keeping the
    chain nonlinear so gradient bugs can't cancel."""
    rng = derive_rng(seed, "test-autodiff-scalarize")
    if x.values.ndim == 2:
        x = tape.matmul(x, const(rng.normal(size=x.values.shape[1])))
    x = tape.sigmoid(x)
    if x.values.ndim == 0:
        return x
    return tape.matmul(x, const(rng.normal(size=x.values.shape[0])))


# ---------------------------------------------------------------------------
# per-op gradient checks against central differences


def test_matmul_gradients_all_arities():
    cases = [
        {"a": param(safe_values((3, 4), 1)), "b": param(safe_values((4, 2), 2))},
        {"a": param(safe_values(4, 3)), "b": param(safe_values((4, 2), 4))},
        {"a": param(safe_values((3, 4), 5)), "b": param(safe_values(4, 6))},
        {"a": param(safe_values(4, 7)), "b": param(safe_values(4, 8))},
    ]
    for i, params in enumerate(cases):
        err = check_gradients(
            lambda ps, tape: scalarize(tape, tape.matmul(ps["a"], ps["b"]), seed=i),
            params,
        )
        assert err < GRAD_TOL, (i, err)


def test_matmul_rejects_bad_shapes():
    tape = Tape()
    with pytest.raises(ConfigError):
        tape.matmul(param(np.ones((2, 3))), param(np.ones((2, 3))))
    with pytest.raises(ConfigError):
        tape.matmul(param(np.ones(())), param(np.ones(3)))


def test_add_gradients_same_shape_and_broadcast():
    params = {"a": param(safe_values((3, 4), 1)), "b": param(safe_values((3, 4), 2))}
    err = check_gradients(lambda ps, t: scalarize(t, t.add(ps["a"], ps["b"])), params)
    assert err < GRAD_TOL
    params = {"a": param(safe_values((5, 3), 3)), "b": param(safe_values(3, 4))}
    err = check_gradients(lambda ps, t: scalarize(t, t.add(ps["a"], ps["b"])), params)
    assert err < GRAD_TOL
    with pytest.raises(ConfigError):
        Tape().add(param(np.ones((2, 3))), param(np.ones(2)))


def test_scale_tile_mean_concat_gradients():
    params = {"x": param(safe_values((4, 3), 1)), "v": param(safe_values(3, 2))}

    def loss(ps, t):
        tiled = t.tile_rows(ps["v"], 4)                       # (4, 3)
        merged = t.concat(t.scale(ps["x"], -1.7), tiled)      # (4, 6)
        return scalarize(t, merged)

    assert check_gradients(loss, params) < GRAD_TOL


def test_leaky_relu_values_and_gradient():
    tape = Tape()
    x = param(np.array([-2.0, -0.5, 0.5, 3.0]))
    y = tape.leaky_relu(x, 0.01)
    assert np.allclose(y.values, [-0.02, -0.005, 0.5, 3.0])
    err = check_gradients(
        lambda ps, t: scalarize(t, t.leaky_relu(ps["x"], 0.01)), {"x": x}
    )
    assert err < GRAD_TOL


def test_sigmoid_values_stable_at_extremes():
    tape = Tape()
    y = tape.sigmoid(param(np.array([-800.0, 0.0, 800.0])))
    assert y.values[1] == 0.5
    assert y.values[0] == 0.0 and y.values[2] == 1.0  # saturates, never NaN
    err = check_gradients(lambda ps, t: scalarize(t, t.sigmoid(ps["x"])), {"x": param(safe_values(5, 9))})
    assert err < GRAD_TOL


def test_softmax_uniform_and_shift_invariant():
    tape = Tape()
    thirds = tape.softmax(param(np.zeros(3)))
    assert np.allclose(thirds.values, [1 / 3] * 3)
    x = safe_values(6, 4)
    a = Tape().softmax(param(x))
    b = Tape().softmax(param(x + 123.0))
    # adding 123.0 rounds the inputs, so invariance holds to float precision
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=0)
    # with dyadic inputs the shift is exact and so is the invariance
    d = np.array([0.25, -0.5, 1.0, 0.125])
    assert np.array_equal(
        Tape().softmax(param(d)).values, Tape().softmax(param(d + 4.0)).values
    )
    err = check_gradients(lambda ps, t: scalarize(t, t.softmax(ps["x"])), {"x": param(x)})
    assert err < GRAD_TOL


def test_take_rows_gradient_accumulates_repeats():
    params = {"x": param(safe_values((4, 3), 2))}

    def loss(ps, t):
        return scalarize(t, t.take_rows(ps["x"], [0, 2, 2, 1]))

    assert check_gradients(loss, params) < GRAD_TOL
    with pytest.raises(ConfigError):
        Tape().take_rows(param(np.ones((2, 2))), [0, 5])


def test_slice_and_reshape_gradients():
    params = {"x": param(safe_values((3, 6), 8))}

    def loss(ps, t):
        left = t.slice_last(ps["x"], 0, 2)
        return scalarize(t, t.reshape(left, (6,)))

    assert check_gradients(loss, params) < GRAD_TOL
    with pytest.raises(ConfigError):
        Tape().slice_last(param(np.ones((2, 3))), 2, 2)


def test_spmm_matches_dense_and_backpropagates():
    rng = derive_rng(0, "test-spmm")
    dense = (rng.random((5, 4)) < 0.5) * rng.random((5, 4))
    s = sp.csr_matrix(dense)
    x = param(safe_values((4, 3), 1))
    out = Tape().spmm(s, x)
    assert np.allclose(out.values, dense @ x.values)
    assert check_gradients(lambda ps, t: scalarize(t, t.spmm(s, ps["x"])), {"x": x}) < GRAD_TOL
    with pytest.raises(ConfigError):
        Tape().spmm(np.ones((3, 3)), x)


def test_clamp_blocks_gradient_outside_range():
    tape = Tape()
    x = param(np.array([-5.0, 0.5, 5.0]))
    y = tape.clamp(x, 0.0, 1.0)
    assert y.values.tolist() == [0.0, 0.5, 1.0]
    loss = tape.matmul(y, const(np.ones(3)))
    tape.backward(loss)
    assert x.grad.tolist() == [0.0, 1.0, 0.0]


def test_bce_values_and_gradient():
    tape = Tape()
    half = tape.bce(param(np.array([0.5])), 1.0)
    assert half.item() == pytest.approx(math.log(2))
    # clamped inputs give a finite loss and a zero gradient
    zero = param(np.array([0.0]))
    loss = Tape().bce(zero, 1.0)
    assert loss.item() == pytest.approx(-math.log(PROB_EPS))

    def chained(ps, t):
        return t.bce(t.sigmoid(ps["z"]), 0.0)

    assert check_gradients(chained, {"z": param(np.array([0.3]))}) < GRAD_TOL
    with pytest.raises(ConfigError):
        Tape().bce(param(np.array([0.5])), 0.7)


def test_gradients_accumulate_across_reuse():
    tape = Tape()
    x = param(np.array([1.0, 2.0]))
    doubled = tape.add(x, x)
    loss = tape.matmul(doubled, const(np.ones(2)))
    tape.backward(loss)
    assert x.grad.tolist() == [2.0, 2.0]


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = param(np.ones(3))
    y = tape.scale(x, 2.0)
    with pytest.raises(ConfigError):
        tape.backward(y)


def test_nonfinite_op_output_raises_at_source():
    with pytest.raises(NumericError):
        Tape().scale(param(np.array([1.0])), math.inf)


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_step_exact():
    p = param(np.array([1.0]))
    p.grad = np.array([2.0])
    opt = Optimizer(kind="sgd", lr=0.1)
    step(opt, {"w": p})
    assert p.values.tolist() == [0.8]
    assert p.grad is None  # cleared


def test_adam_first_step_is_signed_lr():
    p = param(np.array([0.0, 10.0]))
    p.grad = np.array([3.0, -0.25])
    opt = Optimizer(kind="adam", lr=1e-3)
    step(opt, {"w": p})
    assert p.values[0] == pytest.approx(-1e-3, rel=1e-5)
    assert p.values[1] == pytest.approx(10.0 + 1e-3, rel=1e-5)
    assert opt.t == 1 and "w" in opt.m and "w" in opt.v


def test_step_skips_untouched_params():
    touched, idle = param(np.array([1.0])), param(np.array([5.0]))
    touched.grad = np.array([1.0])
    opt = Optimizer(kind="adam", lr=0.1)
    step(opt, {"a": touched, "b": idle})
    assert idle.values.tolist() == [5.0]
    assert "b" not in opt.m


def test_step_is_atomic_on_nonfinite_gradient():
    a, z = param(np.array([1.0])), param(np.array([2.0]))
    a.grad = np.array([0.5])
    z.grad = np.array([np.nan])
    opt = Optimizer(kind="adam", lr=0.1)
    with pytest.raises(NumericError):
        step(opt, {"a": a, "z": z})
    assert a.values.tolist() == [1.0] and z.values.tolist() == [2.0]
    assert opt.t == 0 and not opt.m


def test_step_is_atomic_on_value_overflow():
    # 'a' stages a clean update; 'z' overflows, so neither may commit
    a, z = param(np.array([1.0])), param(np.array([1e308]))
    a.grad = np.array([1.0])
    z.grad = np.array([-1e308])
    opt = Optimizer(kind="sgd", lr=10.0)
    with pytest.raises(NumericError):
        step(opt, {"a": a, "z": z})
    assert a.values.tolist() == [1.0]
    assert z.values.tolist() == [1e308]
    assert opt.t == 0


def test_optimizer_validation():
    with pytest.raises(ConfigError):
        Optimizer(kind="rmsprop", lr=0.1)
    with pytest.raises(ConfigError):
        Optimizer(kind="sgd", lr=0.0)


# ---------------------------------------------------------------------------
# init, checkpoints, cloning


def test_xavier_uniform_bounds():
    rng = derive_rng(0, "test-xavier")
    w = xavier_uniform((40, 60), rng)
    s = math.sqrt(6.0 / 100.0)
    assert w.shape == (40, 60)
    assert w.min() >= -s and w.max() <= s
    assert abs(w.mean()) < 0.05
    v = xavier_uniform((50,), rng)
    assert abs(v).max() <= math.sqrt(6.0 / 51.0)
    with pytest.raises(ConfigError):
        xavier_uniform((2, 2, 2), rng)


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = derive_rng(0, "test-ckpt")
    params = {
        "w": param(rng.normal(size=(3, 4))),
        "b": param(rng.normal(size=4)),
    }
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, {"model": {"hidden_dim": 3}}, params)
    config, loaded = load_checkpoint(path)
    assert config == {"model": {"hidden_dim": 3}}
    assert set(loaded) == {"w", "b"}
    for name in params:
        assert np.array_equal(loaded[name].values, params[name].values)
        assert loaded[name].requires_grad


def test_checkpoint_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99, "config": {}, "parameters": {}}')
    with pytest.raises(DataError):
        load_checkpoint(path)
    path.write_text('{"format_version": 1, "config": {}, "parameters": {"w": {"shape": [2]}}}')
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_clone_params_detaches_storage():
    params = {"w": param(np.array([1.0, 2.0]))}
    cloned = clone_params(params)
    cloned["w"].values[0] = 99.0
    assert params["w"].values[0] == 1.0


def test_zero_grad_clears_everything():
    params = {"w": param(np.ones(2)), "b": param(np.ones(1))}
    params["w"].grad = np.ones(2)
    zero_grad(params)
    assert params["w"].grad is None and params["b"].grad is None
