import base64
import itertools
import json
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

from oracles import ReferenceTape

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
        r = ReferenceTape.on(t)
        row = t.reshape(ps["v"], (1, 3))                      # tiled by broadcasting
        merged = r.concat(r.scale(ps["x"], -1.7), row)        # (4, 6)
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


def test_leaky_relu_matches_factor_form_bitwise():
    rng = derive_rng(0, "test-leaky-bits")
    x = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e300, -1e300],
        rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200),
    ])
    g = rng.normal(size=x.size)
    for slope in (0.0, 0.01, 0.2, 1 / 3, 1.0):
        factor = np.where(x > 0, 1.0, slope)
        tape = Tape()
        xt = param(x.copy())
        y = tape.leaky_relu(xt, slope)
        assert y.values.tobytes() == (x * factor).tobytes(), slope  # signs of zeros too
        (operand, fn), = y._grads
        assert operand is xt and fn(g).tobytes() == (g * factor).tobytes(), slope
    for slope in (-0.01, 1.5, math.nan):
        with pytest.raises(ConfigError):
            Tape().leaky_relu(param(x), slope)


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


@pytest.mark.parametrize("picks", [[0, 2, 2, 1, 2, 0, 2], [3, 1, 0, 1, 3, 3, 2, 1, 3, 0], []],
                         ids=["repeated", "unsorted", "empty"])
def test_take_rows_gradient_equals_sequential_add_at_bit_for_bit(picks):
    out = Tape().take_rows(param(safe_values((4, 5), 3)), picks)
    ((_, scatter_add),) = out._grads
    rng = derive_rng(4, "test-take-rows-grad", len(picks))
    # magnitudes far apart, so any change in summation order shows in the bits
    g = rng.standard_normal((len(picks), 5)) * 10.0 ** rng.integers(-8, 9, (len(picks), 5))
    if len(picks):
        g[0, 0] = -0.0
    expected = np.zeros((4, 5))
    np.add.at(expected, np.asarray(picks, dtype=np.int64), g)
    got = np.asarray(scatter_add(g))
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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


def test_shared_gradient_arrays_are_stored_read_only():
    # one upstream array reaches several tensors uncopied: both operands of
    # an equal-shape add, a reshape chain, and tensors used twice
    w = derive_rng(0, "test-grad-storage").normal(size=6)
    a, b, c, d, e = (param(safe_values((2, 3), seed)) for seed in range(5))
    tape = Tape()
    shared = tape.add(a, b)
    chain = tape.reshape(tape.reshape(c, (3, 2)), (2, 3))
    twice = tape.add(tape.add(shared, chain), c)
    doubled = tape.add(tape.add(d, d), e)
    total = tape.add(twice, doubled)
    loss = tape.matmul(tape.reshape(total, (6,)), const(w))
    tape.backward(loss)
    upstream = w.reshape(2, 3)
    for t, factor in ((a, 1.0), (b, 1.0), (c, 2.0), (d, 2.0), (e, 1.0)):
        assert np.array_equal(t.grad, factor * upstream)
        assert not t.grad.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t.grad += 1.0
    s = param(np.array(0.5))
    tape = Tape()
    tape.backward(tape.add(tape.sigmoid(s), s))
    assert s.grad.shape == () and not s.grad.flags.writeable


def test_spmm_gradient_equals_transposed_csr_product_bitwise():
    rng = derive_rng(0, "test-spmm-transpose")
    repeats = 0
    for rows, cols, width in ((1, 1, 1), (7, 3, 2), (40, 25, 5), (60, 122, 48), (30, 4, 9)):
        counts = rng.integers(0, 8, size=rows)
        # unsorted column indices, with repeats inside a row
        indices = rng.integers(0, cols, size=counts.sum())
        indptr = np.concatenate(([0], np.cumsum(counts)))
        s = sp.csr_matrix((rng.normal(size=counts.sum()), indices, indptr), shape=(rows, cols))
        repeats += any(len(set(row)) < len(row) for row in np.split(s.indices, s.indptr[1:-1]))
        x = param(rng.normal(size=(cols, width)))
        g = rng.normal(size=(rows, width))
        tape = ReferenceTape()
        out = tape.spmm(s, x)
        tape.backward(tape.dot_rows(tape.reshape(out, (rows * width,)), const(g.ravel())))
        assert np.array_equal(x.grad, s.T.tocsr() @ g)
    assert repeats >= 3


def test_backward_requires_scalar_loss():
    tape = ReferenceTape()
    x = param(np.ones(3))
    y = tape.scale(x, 2.0)
    with pytest.raises(ConfigError):
        tape.backward(y)


def test_nonfinite_op_output_raises_at_source():
    with pytest.raises(NumericError):
        ReferenceTape().scale(param(np.array([1.0])), math.inf)


# ---------------------------------------------------------------------------
# stacked (batched) forms: finite differences, and bit-equality with the
# per-row forms the batched model path relies on


def flatten(tape, x):
    return scalarize(tape, tape.reshape(x, (x.values.size,)))


def test_stacked_matmul_gradients_and_per_entry_values():
    cases = [
        {"a": param(safe_values((2, 3, 4), 1)), "b": param(safe_values((4, 5), 2))},
        {"a": param(safe_values((3, 1, 4), 3)), "b": param(safe_values((4, 2), 4))},
        {"a": param(safe_values((2, 3, 1, 4), 5)), "b": param(safe_values((2, 3, 4, 2), 6))},
        {"a": param(safe_values((2, 3, 1, 4), 7)), "b": param(safe_values((3, 4, 2), 8))},
    ]
    for i, params in enumerate(cases):
        err = check_gradients(
            lambda ps, tape: flatten(tape, tape.matmul(ps["a"], ps["b"])), params
        )
        assert err < GRAD_TOL, (i, err)
    rng = derive_rng(0, "test-autodiff-stacked")
    for m in (1, 2, 40):
        a, b = rng.normal(size=(5, m, 96)), rng.normal(size=(96, 48))
        out = Tape().matmul(const(a), const(b)).values
        for k in range(5):
            want = a[k, 0] @ b if m == 1 else a[k] @ b
            assert np.array_equal(out[k].reshape(want.shape), want)
    with pytest.raises(ConfigError):
        Tape().matmul(param(np.ones((2, 3, 4))), param(np.ones(4)))
    with pytest.raises(ConfigError):
        Tape().matmul(param(np.ones((2, 1, 4))), param(np.ones((3, 4, 2))))


def test_broadcast_add_and_concat_gradients():
    cases = [
        ("add", (2, 3, 4), (4,)),
        ("add", (2, 1, 4), (3, 4)),
        ("concat", (2, 1, 3), (4, 2)),
        ("concat", (2, 4, 3), (2, 4, 1)),
    ]
    for i, (op, sa, sb) in enumerate(cases):
        params = {"a": param(safe_values(sa, 2 * i)), "b": param(safe_values(sb, 2 * i + 1))}
        err = check_gradients(
            lambda ps, t: flatten(t, getattr(ReferenceTape.on(t), op)(ps["a"], ps["b"])), params
        )
        assert err < GRAD_TOL, (op, sa, sb, err)
    q, ctx = safe_values((2, 3), 9), safe_values((4, 5), 10)
    keys = ReferenceTape().concat(const(q.reshape(2, 1, 3)), const(ctx)).values
    assert keys.shape == (2, 4, 8)
    for k in range(2):
        assert np.array_equal(keys[k], np.concatenate([np.tile(q[k], (4, 1)), ctx], axis=1))
    with pytest.raises(ConfigError):
        ReferenceTape().concat(param(np.ones((2, 3))), param(np.ones((3, 3))))


def test_stacked_dot_rows_and_softmax_match_rows():
    params = {"x": param(safe_values((2, 3, 2, 4), 3)), "v": param(safe_values((2, 4), 4))}
    err = check_gradients(lambda ps, t: flatten(t, ReferenceTape.on(t).dot_rows(ps["x"], ps["v"])), params)
    assert err < GRAD_TOL
    x, v = params["x"].values, params["v"].values
    out = ReferenceTape().dot_rows(const(x), const(v)).values
    for b in range(2):
        for h in range(2):
            want = ReferenceTape().dot_rows(const(x[b, :, h]), const(v[h])).values
            assert np.array_equal(out[b, :, h], want)
    with pytest.raises(ConfigError):
        ReferenceTape().dot_rows(param(np.ones((3, 4))), param(np.ones((2, 4))))
    # the attention layout at head width 12: every (b, h) column equals its
    # (m, k) . (k,) form, and permuting the rows permutes it bit for bit
    rng = derive_rng(1, "test-dot-rows-width")
    x = rng.normal(size=(3, 50, 4, 12)) * 10.0 ** rng.integers(-6, 6, size=(3, 50, 4, 1))
    v = rng.normal(size=(4, 12))
    out = ReferenceTape().dot_rows(const(x), const(v)).values
    perm = rng.permutation(50)
    moved = ReferenceTape().dot_rows(const(x[:, perm]), const(v)).values
    assert np.array_equal(moved, out[:, perm])
    for b in range(3):
        for h in range(4):
            want = ReferenceTape().dot_rows(const(x[b, :, h]), const(v[h])).values
            assert np.array_equal(out[b, :, h], want)
    assert np.allclose(out, (x * v).sum(axis=-1), rtol=1e-13, atol=0)
    s = safe_values((2, 3, 5), 5)
    err = check_gradients(lambda ps, t: flatten(t, t.softmax(ps["s"])), {"s": param(s)})
    assert err < GRAD_TOL
    # a transposed (non-contiguous) input still reduces each row like 1-D
    scores = safe_values((2, 5, 3), 6)
    tape = Tape()
    rows = tape.softmax(tape.transpose(const(scores), (0, 2, 1))).values
    for b in range(2):
        for h in range(3):
            assert np.array_equal(rows[b, h], Tape().softmax(const(scores[b, :, h])).values)


def unfused_key_scores(tape, query_key, context_key, vec, slope):
    """The chain key_scores replaces: add, leaky_relu, reshape, dot_rows."""
    z = tape.leaky_relu(tape.add(query_key, context_key), slope)
    return tape.dot_rows(tape.reshape(z, z.shape[:2] + vec.shape), vec)


def key_scores_and_grads(op, values, needs, weights):
    """key_scores output values and the gradients of sum(weights * output)
    for the operands in `needs` (the others enter as constants)."""
    leaves = [param(v.copy()) if name in needs else const(v.copy())
              for name, v in zip(("query_key", "context_key", "vec"), values)]
    tape = ReferenceTape()
    out = op(tape, *leaves, 0.2)
    if needs:
        flat = tape.reshape(out, (out.values.size,))
        tape.backward(tape.dot_rows(flat, const(weights.ravel())))
    return out.values, [leaf.grad for leaf in leaves]


def test_key_scores_equal_the_unfused_chain_bitwise(monkeypatch):
    import unilp.autodiff as autodiff

    rng = derive_rng(0, "test-key-scores")
    names = ("query_key", "context_key", "vec")
    subsets = [set(c) for r in range(4) for c in itertools.combinations(names, r)]
    # (B, C, m, H, k, queries per tile); None keeps the default tile budget
    cases = [
        (5, 5, 7, 2, 3, 2),  # C = B, 5 queries in tiles of 2
        (5, 1, 7, 2, 3, 2),  # one shared context
        (7, 7, 9, 4, 12, 3),  # head width 12, B not a multiple of the tile
        (3, 3, 1500, 4, 12, None),  # m * F' above the default budget: one query per tile
        (4, 1, 1500, 4, 12, None),
        (6, 6, 5, 1, 4, 64),  # one tile larger than B
    ]
    for B, C, m, H, k, tile in cases:
        budget = autodiff.KEY_SCORES_TILE if tile is None else tile * m * H * k
        monkeypatch.setattr(autodiff, "KEY_SCORES_TILE", budget)
        values = (rng.normal(size=(B, 1, H * k)), rng.normal(size=(C, m, H * k)), rng.normal(size=(H, k)))
        weights = rng.normal(size=(B, m, H))
        for needs in subsets:
            got, got_grads = key_scores_and_grads(Tape.key_scores, values, needs, weights)
            want, want_grads = key_scores_and_grads(unfused_key_scores, values, needs, weights)
            assert got.tobytes() == want.tobytes(), (B, C, m, needs)
            for name, g, w in zip(names, got_grads, want_grads):
                assert (g is None) == (name not in needs)
                assert g is None or g.tobytes() == w.tobytes(), (B, C, m, needs, name)
        # permuting the context members permutes the scores bit for bit
        perm = rng.permutation(m)
        moved = Tape().key_scores(const(values[0]), const(values[1][:, perm]), const(values[2]), 0.2)
        assert moved.values.tobytes() == got[:, perm].tobytes()


def test_key_scores_gradients_and_rejections():
    for i, (B, C) in enumerate(((3, 3), (3, 1))):
        params = {"q": param(safe_values((B, 1, 6), 3 * i)), "c": param(safe_values((C, 4, 6), 3 * i + 1)),
                  "v": param(safe_values((2, 3), 3 * i + 2))}
        err = check_gradients(
            lambda ps, t: flatten(t, t.key_scores(ps["q"], ps["c"], ps["v"], 0.1)), params
        )
        assert err < GRAD_TOL, (B, C, err)
    good = (np.ones((2, 1, 6)), np.ones((2, 4, 6)), np.ones((2, 3)))
    for i in range(3):
        for bad in (math.inf, -math.inf, math.nan):
            values = [v.copy() for v in good]
            values[i][-1, ..., -1] = bad
            with np.errstate(all="ignore"), pytest.raises(NumericError, match="key_scores"):
                Tape().key_scores(*map(param, values), 0.01)
    with np.errstate(over="ignore"), pytest.raises(NumericError):  # the sum overflows
        Tape().key_scores(param(np.full((1, 1, 2), 1e308)), param(np.full((1, 3, 2), 1e308)),
                          param(np.ones((1, 2))), 0.01)
    for shapes in (
        ((2, 6), (2, 4, 6), (2, 3)),  # query_key not (B, 1, F')
        ((2, 2, 6), (2, 4, 6), (2, 3)),
        ((2, 1, 6), (3, 4, 6), (2, 3)),  # C neither B nor 1
        ((2, 1, 6), (4, 6), (2, 3)),
        ((2, 1, 6), (2, 0, 6), (2, 3)),  # no members
        ((2, 1, 6), (2, 4, 5), (2, 3)),  # F' differs
        ((2, 1, 6), (2, 4, 6), (6,)),  # vec not (H, k)
        ((2, 1, 6), (2, 4, 6), (2, 2)),  # H * k != F'
        ((2, 1, 0), (2, 4, 0), (0, 3)),
    ):
        with pytest.raises(ConfigError):
            Tape().key_scores(*(param(np.ones(s)) for s in shapes), 0.01)
    for slope in (-0.01, 1.5, math.nan):
        with pytest.raises(ConfigError):
            Tape().key_scores(*map(param, good), slope)


def test_transpose_and_stacked_slice_gradients():
    params = {"x": param(safe_values((2, 3, 4), 7))}

    def loss(ps, t):
        moved = t.transpose(ps["x"], (1, 2, 0))            # (3, 4, 2)
        return flatten(t, t.slice_last(moved, 0, 1))

    assert check_gradients(loss, params) < GRAD_TOL
    with pytest.raises(ConfigError):
        Tape().transpose(param(np.ones((2, 3))), (0, 0))


def test_bce_mean_over_batch_sums_left_to_right():
    probs = np.array([0.2, 0.9, 0.55, 0.01, 0.7])
    labels = [1.0, 1.0, 0.0, 0.0, 1.0]
    batched = Tape().bce(param(probs), labels).item()
    total = 0.0
    for p, y in zip(probs, labels):
        total += Tape().bce(param(np.array([p])), y).item()
    assert batched == total * (1.0 / len(labels))

    def chained(ps, t):
        return t.bce(t.sigmoid(ps["z"]), labels)

    assert check_gradients(chained, {"z": param(safe_values(5, 11))}) < GRAD_TOL
    with pytest.raises(ConfigError):
        Tape().bce(param(probs), [1.0, 0.0])


# (the op, its operand shapes, the order in which it lists its operands'
# gradient functions: the order their contributions are accumulated in)
DROP_CASES = {
    "matmul-2d": (Tape.matmul, ((3, 4), (4, 2)), (0, 1)),
    "matmul-shared-matrix": (Tape.matmul, ((2, 3, 4), (4, 5)), (0, 1)),
    "matmul-broadcast-stacks": (Tape.matmul, ((2, 3, 1, 4), (3, 4, 2)), (0, 1)),
    "add": (Tape.add, ((2, 1, 4), (3, 4)), (0, 1)),
    "concat": (ReferenceTape.concat, ((2, 1, 3), (4, 2)), (0, 1)),
    "dot_rows": (ReferenceTape.dot_rows, ((2, 3, 2, 4), (2, 4)), (0, 1)),
    # vec, then query_key, then context_key
    "key_scores": (lambda tape, *xs: tape.key_scores(*xs, 0.2), ((3, 1, 6), (3, 4, 6), (2, 3)), (2, 0, 1)),
}


@pytest.mark.parametrize("op, shapes, order", DROP_CASES.values(), ids=DROP_CASES)
def test_operands_that_need_no_gradient_are_dropped(op, shapes, order):
    """For every subset of operands made param (the rest const), the op
    keeps the gradient functions of exactly those operands, in its operand
    order, and they get the all-param gradients bit for bit."""
    rng = derive_rng(0, "test-dropped-operands")
    values = [rng.normal(size=shape) for shape in shapes]
    want = None
    for r in range(len(values), -1, -1):  # all-param first: the reference
        for needs in itertools.combinations(range(len(values)), r):
            leaves = [param(v) if i in needs else const(v) for i, v in enumerate(values)]
            tape = ReferenceTape()
            out = op(tape, *leaves)
            assert [x for x, _ in out._grads] == [leaves[i] for i in order if i in needs], needs
            if not needs:
                assert not out._needs and tape._nodes == []
                continue
            weights = derive_rng(1, "test-dropped-operands").normal(size=out.values.size)
            tape.backward(tape.dot_rows(tape.reshape(out, (out.values.size,)), const(weights)))
            if want is None:
                want = [leaf.grad for leaf in leaves]
            for i, leaf in enumerate(leaves):
                if i in needs:
                    assert leaf.grad.tobytes() == want[i].tobytes(), (needs, i)
                else:
                    assert leaf.grad is None, (needs, i)


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
    for lr in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ConfigError):
            Optimizer(kind="sgd", lr=lr)


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


def test_checkpoint_keeps_signed_zero_subnormals_and_extremes_bitwise(tmp_path):
    values = np.array([[-0.0, 0.0, 5e-324], [-5e-324, 1.7e308, -1.7e308]])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, {}, {"w": param(values), "b": param(values[1])})
    _, loaded = load_checkpoint(path)
    for name, want in (("w", values), ("b", values[1])):
        got = loaded[name].values
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_loaded_checkpoint_arrays_are_writable_contiguous_float64(tmp_path):
    rng = derive_rng(0, "test-ckpt-writable")
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, {}, {"w": param(rng.normal(size=(4, 3)).T), "s": param(np.array(2.5))})
    _, loaded = load_checkpoint(path)
    for name, t in loaded.items():
        assert t.values.dtype == np.float64 and t.values.flags.c_contiguous, name
        assert t.values.flags.writeable, name
        t.values[...] = 1.0
    assert loaded["w"].shape == (3, 4) and loaded["s"].shape == ()


def test_checkpoint_rejects_bad_base64_and_byte_counts_that_miss_the_shape(tmp_path):
    path = tmp_path / "bad.json"
    eight = base64.b64encode(np.arange(3.0).tobytes()).decode("ascii")
    for shape, values in (([3], "not base64!"), ([3], eight[:-4]), ([2], eight), ([4], eight),
                          ([-3], eight), ([3.0], eight), ([3], 17)):
        doc = {"format_version": 2, "config": {}, "parameters": {"w": {"shape": shape, "values": values}}}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_checkpoint(path)
    doc["parameters"]["w"] = {"shape": [3], "values": eight}
    path.write_text(json.dumps(doc))
    assert load_checkpoint(path)[1]["w"].values.tolist() == [0.0, 1.0, 2.0]


def test_format_1_checkpoints_still_load(tmp_path):
    """Format 1 held each parameter's values as a decimal JSON list, which
    repr-exact float printing reads back to the same doubles."""
    rng = derive_rng(0, "test-ckpt-v1")
    params = {"w": rng.normal(size=(3, 4)), "b": np.array([-0.0, 5e-324, 1.7e308])}
    doc = {"format_version": 1, "config": {"model": {"hidden_dim": 3}},
           "parameters": {name: {"shape": list(v.shape), "values": v.ravel().tolist()}
                          for name, v in params.items()}}
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(doc, indent=2))
    config, loaded = load_checkpoint(path)
    assert config == {"model": {"hidden_dim": 3}}
    for name, want in params.items():
        assert loaded[name].values.tobytes() == want.tobytes(), name
        assert loaded[name].values.flags.writeable and loaded[name].requires_grad


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
