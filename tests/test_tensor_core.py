import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rssigat.tensor_core as tc
from gradcheck import check_case, primitive_cases


# ---------------------------------------------------------------------------
# forward values

# the 2-D matrix product lives in linear (and in graph_attention's
# projection); a zero bias leaves the bare product
def _matmul(a, b):
    return tc.linear(a, b, np.zeros(b.shape[1:]))[0]


def test_matmul_identity():
    a = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(_matmul(a, np.eye(3)), a)


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0], [1.0]])
    np.testing.assert_array_equal(_matmul(a, b), [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(tc.ShapeError):
        _matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_non_finite_trips_error():
    with np.errstate(over="ignore"), pytest.raises(tc.NonFiniteError,
                                                   match="linear"):
        tc.linear(np.array([[1e308]]), np.array([[10.0]]), np.zeros(1))


def test_binary_cross_entropy_clamp_floor():
    # p = 0 on a positive point and p = 1 on a negative one: both active
    # terms are clamped, the loss stays finite and those entries get no
    # gradient
    p = np.array([[0.0], [1.0], [0.5], [0.5]])
    pos = np.array([[1.5], [0.0], [1.5], [0.0]])
    neg = np.array([[0.0], [0.5], [0.0], [0.5]])
    loss, back = tc.binary_cross_entropy(p, pos, neg)
    g = back(1.0)
    np.testing.assert_allclose(
        loss, -(1.5 * np.log(1e-12) + 0.5 * np.log(1e-12)
                + 1.5 * np.log(0.5) + 0.5 * np.log(0.5)) / 4)
    np.testing.assert_array_equal(g[:2], 0.0)
    np.testing.assert_allclose(g[2:, 0], [-1.5 / 4 / 0.5, 0.5 / 4 / 0.5])
    with pytest.raises(tc.ShapeError):
        tc.binary_cross_entropy(p, pos[:3], neg)


def test_linear_matches_matmul_plus_bias():
    rng = np.random.default_rng(6)
    x, w, b = (rng.standard_normal(shape) for shape in ((4, 3), (3, 5), (5,)))
    out, _ = tc.linear(x, w, b)
    np.testing.assert_array_equal(out, x @ w + b)
    with pytest.raises(tc.ShapeError):
        tc.linear(x, w, np.ones(3))


def test_linear_gives_no_gradient_to_a_constant_input():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 2))
    out, back = tc.linear(x, w, np.zeros(2))
    gx, gw, gb = back(np.ones_like(out), input_grad=False)
    assert gx is None
    np.testing.assert_allclose(gw, x.T @ np.ones((4, 2)), atol=1e-12)
    np.testing.assert_array_equal(gb, [4.0, 4.0])
    np.testing.assert_array_equal(back(np.ones_like(out))[0],
                                  np.ones((4, 2)) @ w.T)


def _attention_inputs(rng, n, heads, f):
    return (rng.standard_normal((n, 2)),
            rng.standard_normal((2, heads * f)),
            rng.standard_normal((heads, f)),
            rng.standard_normal((heads, f)),
            rng.standard_normal(heads * f),
            rng.standard_normal((n, n)))


def test_graph_attention_rejects_bad_inputs():
    rng = np.random.default_rng(8)
    h, weight, att_dst, att_src, bias, logit_bias = _attention_inputs(rng, 3, 2, 2)
    mask = np.ones((3, 3), dtype=bool)
    no_source = np.eye(3, dtype=bool)
    no_source[1, 1] = False
    ones = np.ones((3, 4))
    for args in ((h, weight, att_dst, att_src, bias, logit_bias,
                  np.ones((3, 2), dtype=bool)),
                 (h, weight, att_dst, att_src, bias, logit_bias, no_source),
                 (h, weight, att_dst, att_src, np.zeros(2), logit_bias, mask),
                 (h, weight, np.zeros((2, 3)), att_src, bias, logit_bias, mask),
                 (h, ones, att_dst, att_src, bias, logit_bias, mask),
                 (ones, weight, att_dst, att_src, bias, logit_bias, mask)):
        with pytest.raises(tc.ShapeError):
            tc.graph_attention(*args, 0.2, "concat")
    with pytest.raises(tc.OpError, match="head_mode"):
        tc.graph_attention(h, weight, att_dst, att_src, bias, logit_bias, mask,
                           0.2, "sum")


def test_graph_attention_projects_rows():
    # identity rows with hw as the weight form the same hw, bit for bit
    rng = np.random.default_rng(9)
    h, weight, att_dst, att_src, bias, logit_bias = _attention_inputs(rng, 4, 2, 3)
    mask = rng.random((4, 4)) < 0.5
    np.fill_diagonal(mask, True)
    args = (att_dst, att_src, bias, logit_bias, mask, 0.2, "concat")
    out, _ = tc.graph_attention(h, weight, *args)
    probe, _ = tc.graph_attention(np.eye(4), h @ weight, *args)
    np.testing.assert_array_equal(out, probe)


def test_graph_attention_projection_gradients():
    # g_hw, the gradient at the projected rows, is the weight gradient of a
    # probe whose rows are the identity and whose weight is hw
    rng = np.random.default_rng(11)
    n = 4
    h, weight, att_dst, att_src, bias, logit_bias = _attention_inputs(rng, n, 2, 3)
    mask = np.ones((n, n), dtype=bool)
    r = rng.standard_normal((n, 6))

    def back_of(rows, w):
        return tc.graph_attention(rows, w, att_dst, att_src, bias, logit_bias,
                                  mask, 0.2, "concat")[1]

    g_hw = back_of(np.eye(n), h @ weight)(r)[1]
    back = back_of(h, weight)
    g_h, g_w = back(r)[:2]
    np.testing.assert_allclose(g_h, g_hw @ weight.T, atol=1e-12)
    np.testing.assert_allclose(g_w, h.T @ g_hw, atol=1e-12)
    g_h, g_w = back(r, input_grad=False)[:2]  # constant rows get no gradient
    assert g_h is None
    np.testing.assert_allclose(g_w, h.T @ g_hw, atol=1e-12)


def test_graph_attention_non_finite_logits_trip_error():
    rng = np.random.default_rng(10)
    _, _, _, _, bias, logit_bias = _attention_inputs(rng, 3, 2, 2)
    big = np.full((3, 1), 1e308)  # s_dst + s_src overflows
    ones = np.ones((2, 2))
    with np.errstate(over="ignore"), \
            pytest.raises(tc.NonFiniteError, match="graph_attention"):
        tc.graph_attention(big, np.ones((1, 4)), ones, ones, bias,
                           logit_bias, np.ones((3, 3), dtype=bool), 0.2, "concat")


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
    rows, weight = np.eye(n), np.tile(np.eye(n), (1, heads))
    att_dst, att_src = (rng.standard_normal((heads, n)) for _ in range(2))
    logit_bias = rng.standard_normal((n, n))
    weights = rng.standard_normal((n, heads * n))
    out, back = tc.graph_attention(rows, weight, att_dst, att_src,
                                   np.zeros(heads * n), logit_bias, mask, 0.2,
                                   "concat")
    g_logit_bias = back(weights)[5]
    alpha = out.reshape(n, heads, n).transpose(1, 0, 2)
    full = np.broadcast_to(mask, alpha.shape)
    assert np.all(alpha[~full] == 0.0)
    assert np.all(alpha[full] > 0.0)
    np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(g_logit_bias[~mask] == 0.0)
    assert np.any(g_logit_bias[mask] != 0.0)


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
    # rows that feed both the attention and the skip of a block get the sum
    # of the two input gradients, as in gat_model.model_backward
    rng = np.random.default_rng(12)
    h, weight, att_dst, att_src, bias, logit_bias = _attention_inputs(rng, 4, 2, 3)
    skip_w, skip_b = rng.standard_normal((2, 6)), rng.standard_normal(6)
    mask = np.ones((4, 4), dtype=bool)
    r = rng.standard_normal((4, 6))

    def loss_and_grad():
        gat, gat_back = tc.graph_attention(h, weight, att_dst, att_src, bias,
                                           logit_bias, mask, 0.2, "concat")
        skip, skip_back = tc.linear(h, skip_w, skip_b)
        return (float(np.sum((gat + skip) * r)),
                skip_back(r)[0] + gat_back(r)[0])

    check_case(loss_and_grad, h)


def test_gather_rows_grad_sums_unsorted_repeats():
    _, back = tc.gather_rows(np.zeros((4, 2)), np.array([3, 0, 3, 1, 0]))
    np.testing.assert_array_equal(back(np.ones((5, 2))),
                                  [[2, 2], [1, 1], [0, 0], [2, 2]])
