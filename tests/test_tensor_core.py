import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rssigat.tensor_core as tc
from gradcheck import check_case, primitive_cases


def _loss_and_grad(build_loss, leaf: tc.Tensor):
    with tc.Tape() as tape:
        loss = build_loss()
        grads = tc.backward(loss, tape)
    return float(loss.data), grads[leaf]


# ---------------------------------------------------------------------------
# forward values

def test_matmul_identity():
    a = tc.constant(np.arange(6.0).reshape(2, 3))
    out = tc.matmul(a, tc.constant(np.eye(3)))
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    a = tc.constant([[1.0, 2.0], [3.0, 4.0]])
    b = tc.constant([[1.0], [1.0]])
    np.testing.assert_array_equal(tc.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(tc.ShapeError):
        tc.matmul(tc.constant(np.ones((2, 3))), tc.constant(np.ones((2, 3))))


def test_grad_of_sum_is_ones():
    x = tc.Tensor(np.array([1.0, 5.0, -2.0]), requires_grad=True)
    _, g = _loss_and_grad(lambda: tc.sum_all(x), x)
    np.testing.assert_array_equal(g, np.ones(3))


def test_grad_of_sum_of_squares():
    x = tc.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    _, g = _loss_and_grad(lambda: tc.sum_all(tc.mul(x, x)), x)
    np.testing.assert_array_equal(g, [2.0, 4.0])


def test_grad_sum_matmul_is_ones_bt():
    rng = np.random.default_rng(0)
    a = tc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b_data = rng.standard_normal((4, 2))
    _, g = _loss_and_grad(lambda: tc.sum_all(tc.matmul(a, tc.constant(b_data))), a)
    np.testing.assert_allclose(g, np.ones((3, 2)) @ b_data.T, atol=1e-12)


def test_backward_requires_scalar_loss():
    x = tc.Tensor(np.ones(3), requires_grad=True)
    with tc.Tape() as tape:
        y = tc.mul(x, x)
        with pytest.raises(tc.ShapeError):
            tc.backward(y, tape)


def test_non_finite_trips_error():
    with pytest.raises(tc.NonFiniteError):
        tc.Tensor([np.inf, 1.0])
    with pytest.raises(tc.NonFiniteError):
        tc.log(tc.constant([-1.0]))


def test_log_clamp_floor():
    x = tc.Tensor(np.array([1e-20, 0.5]), requires_grad=True)
    with tc.Tape() as tape:
        out = tc.log(x, floor=1e-12)
        loss = tc.sum_all(out)
        grads = tc.backward(loss, tape)
    np.testing.assert_allclose(out.data, [np.log(1e-12), np.log(0.5)])
    assert grads[x][0] == 0.0  # clamped region contributes no gradient
    np.testing.assert_allclose(grads[x][1], 2.0)


def test_batched_matmul_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 4, 3))
    b = rng.standard_normal((3, 5))
    out = tc.matmul(tc.constant(a), tc.constant(b))
    np.testing.assert_array_equal(out.data, a @ b)


def test_batched_matmul_grad_sums_broadcast_batch():
    rng = np.random.default_rng(4)
    a_data = rng.standard_normal((2, 4, 3))
    b = tc.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    _, g = _loss_and_grad(lambda: tc.sum_all(tc.matmul(tc.constant(a_data), b)), b)
    np.testing.assert_allclose(g, a_data.sum(axis=(0, 1))[:, None] * np.ones((1, 5)),
                               atol=1e-12)


def test_linear_matches_matmul_plus_bias():
    rng = np.random.default_rng(6)
    x, w, b = (rng.standard_normal(shape) for shape in ((4, 3), (3, 5), (5,)))
    out = tc.linear(tc.constant(x), tc.constant(w), tc.constant(b))
    np.testing.assert_array_equal(out.data, x @ w + b)
    with pytest.raises(tc.ShapeError):
        tc.linear(tc.constant(x), tc.constant(w), tc.constant(np.ones(3)))


def test_linear_gives_no_gradient_to_a_constant_input():
    rng = np.random.default_rng(7)
    x = tc.constant(rng.standard_normal((4, 3)))
    w = tc.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = tc.Tensor(np.zeros(2), requires_grad=True)
    with tc.Tape() as tape:
        out = tc.linear(x, w, b)
    (rec,) = tape.ops
    gx, gw, gb = rec.grad_fn(np.ones_like(out.data))
    assert gx is None
    np.testing.assert_allclose(gw, x.data.T @ np.ones((4, 2)), atol=1e-12)
    np.testing.assert_array_equal(gb, [4.0, 4.0])


def _attention_inputs(rng, n, heads, f):
    return (tc.constant(rng.standard_normal((n, heads * f))),
            tc.constant(rng.standard_normal((heads, f))),
            tc.constant(rng.standard_normal((heads, f))),
            tc.constant(rng.standard_normal(heads * f)),
            tc.constant(rng.standard_normal((n, n))))


def test_graph_attention_rejects_bad_inputs():
    rng = np.random.default_rng(8)
    hw, att_dst, att_src, bias, logit_bias = _attention_inputs(rng, 3, 2, 2)
    mask = np.ones((3, 3), dtype=bool)
    no_source = np.eye(3, dtype=bool)
    no_source[1, 1] = False
    for args in ((hw, att_dst, att_src, bias, logit_bias, np.ones((3, 2), dtype=bool)),
                 (hw, att_dst, att_src, bias, logit_bias, no_source),
                 (hw, att_dst, att_src, tc.constant(np.zeros(2)), logit_bias, mask),
                 (hw, tc.constant(np.zeros((2, 3))), att_src, bias, logit_bias, mask)):
        with pytest.raises(tc.ShapeError):
            tc.graph_attention(*args, 0.2, "concat")
    with pytest.raises(tc.TensorError, match="head_mode"):
        tc.graph_attention(hw, att_dst, att_src, bias, logit_bias, mask, 0.2, "sum")


def test_graph_attention_non_finite_logits_trip_error():
    rng = np.random.default_rng(10)
    _, _, _, bias, logit_bias = _attention_inputs(rng, 3, 2, 2)
    big = tc.constant(np.full((3, 4), 1e308))  # s_dst + s_src overflows
    ones = tc.constant(np.ones((2, 2)))
    with np.errstate(over="ignore"), \
            pytest.raises(tc.NonFiniteError, match="graph_attention"):
        tc.graph_attention(big, ones, ones, bias, logit_bias,
                           np.ones((3, 3), dtype=bool), 0.2, "concat")


# ---------------------------------------------------------------------------
# masked softmax

def test_masked_softmax_singleton():
    out = tc.masked_softmax(np.array([[3.7]]), np.array([[True]]))
    np.testing.assert_array_equal(out, [[1.0]])


def test_masked_softmax_symmetric_pair():
    out = tc.masked_softmax(np.array([[0.0, 0.0, 5.0]]),
                            np.array([[True, True, False]]))
    np.testing.assert_array_equal(out, [[0.5, 0.5, 0.0]])


def test_masked_softmax_matches_direct_softmax():
    logits = np.array([1.0, 2.0, 3.0])
    out = tc.masked_softmax(logits[None, :], np.ones((1, 3), dtype=bool))
    direct = np.exp(logits - logits.max())
    direct /= direct.sum()
    np.testing.assert_allclose(out[0], direct, rtol=1e-15)


def test_masked_softmax_rejects_empty_row():
    with pytest.raises(tc.ShapeError):
        tc.masked_softmax(np.zeros((2, 2)),
                          np.array([[True, False], [False, False]]))


def test_masked_softmax_rejects_mask_shape():
    with pytest.raises(tc.ShapeError):
        tc.masked_softmax(np.zeros((2, 3)), np.ones((3, 2), dtype=bool))


def test_masked_softmax_extreme_logits_stay_finite():
    logits = np.array([[1e4, -1e4, 1e4, 0.0], [1e300, 1e4, 0.0, -1e300]])
    mask = np.array([[True, True, False, True], [False, True, True, True]])
    out = tc.masked_softmax(logits, mask)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(axis=1), 1.0)
    np.testing.assert_array_equal(out[~mask], 0.0)


def test_masked_softmax_masked_entries_zero_with_zero_gradient():
    # Through the fused op: with z = I per head (F = C rows) and the logits'
    # s_dst, s_src given as attention vectors, each head's output is alpha.
    rng = np.random.default_rng(5)
    n, heads = 4, 3
    mask = rng.random((n, n)) < 0.5
    np.fill_diagonal(mask, True)
    mask[0, n - 1] = False
    hw = tc.constant(np.tile(np.eye(n), (1, heads)))
    att_dst, att_src = (tc.constant(rng.standard_normal((heads, n)))
                        for _ in range(2))
    logit_bias = tc.Tensor(rng.standard_normal((n, n)), requires_grad=True)
    weights = tc.constant(rng.standard_normal((n, heads * n)))
    with tc.Tape() as tape:
        out = tc.graph_attention(hw, att_dst, att_src, tc.constant(np.zeros(heads * n)),
                                 logit_bias, mask, 0.2, "concat")
        grads = tc.backward(tc.sum_all(tc.mul(out, weights)), tape)
    alpha = out.data.reshape(n, heads, n).transpose(1, 0, 2)
    full = np.broadcast_to(mask, alpha.shape)
    assert np.all(alpha[~full] == 0.0)
    assert np.all(alpha[full] > 0.0)
    np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(grads[logit_bias][~mask] == 0.0)
    assert np.any(grads[logit_bias][mask] != 0.0)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_masked_softmax_sums_and_shift_invariance(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    mask = rng.random((rows, cols)) < 0.5
    mask[np.arange(rows), rng.integers(0, cols, size=rows)] = True
    logits = rng.standard_normal((2, rows, cols))
    out = tc.masked_softmax(logits, mask)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    shifts = rng.standard_normal((2, rows, 1))
    shifted = tc.masked_softmax(logits + shifts, mask)
    np.testing.assert_allclose(shifted, out, atol=1e-12)


# ---------------------------------------------------------------------------
# finite-difference checks, >= 20 random instances per differentiable op

def test_every_primitive_matches_finite_differences():
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        for build_loss, leaf in primitive_cases(rng):
            check_case(build_loss, leaf)


def test_gradient_accumulates_over_reuse():
    x = tc.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    # x enters twice: through mul(x, x) and an extra add
    _, g = _loss_and_grad(lambda: tc.sum_all(tc.add(tc.mul(x, x), x)), x)
    np.testing.assert_allclose(g, 2 * x.data + 1)


def test_inference_without_tape_records_nothing():
    x = tc.Tensor(np.ones(3), requires_grad=True)
    out = tc.relu(x)
    assert out.data.sum() == 3.0  # no tape active, no error


def test_gather_rows_grad_sums_unsorted_repeats():
    x = tc.Tensor(np.zeros((4, 2)), requires_grad=True)
    _, g = _loss_and_grad(
        lambda: tc.sum_all(tc.gather_rows(x, np.array([3, 0, 3, 1, 0]))), x)
    np.testing.assert_array_equal(g, [[2, 2], [1, 1], [0, 0], [2, 2]])
