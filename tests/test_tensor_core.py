import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rssigat.tensor_core as tc
from gradcheck import check_case, primitive_cases
from oracles import graph_attention_reference, sigmoid_reference


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
    ones = np.ones((3, 4))
    for args in ((h, weight, att_dst, att_src, np.zeros(2), logit_bias),
                 (h, weight, np.zeros((2, 3)), att_src, bias, logit_bias),
                 (h, ones, att_dst, att_src, bias, logit_bias),
                 (ones, weight, att_dst, att_src, bias, logit_bias)):
        with pytest.raises(tc.ShapeError):
            tc.graph_attention(*args, 0.2, "concat")
    with pytest.raises(tc.OpError, match="head_mode"):
        tc.graph_attention(h, weight, att_dst, att_src, bias, logit_bias,
                           0.2, "sum")


def test_graph_attention_projects_rows():
    # identity rows with hw as the weight form the same hw, bit for bit
    rng = np.random.default_rng(9)
    h, weight, att_dst, att_src, bias, logit_bias = _attention_inputs(rng, 4, 2, 3)
    edges = rng.random((4, 4)) < 0.5
    np.fill_diagonal(edges, True)
    args = (att_dst, att_src, bias, np.where(edges, logit_bias, -np.inf), 0.2,
            "concat")
    out, _ = tc.graph_attention(h, weight, *args)
    probe, _ = tc.graph_attention(np.eye(4), h @ weight, *args)
    np.testing.assert_array_equal(out, probe)


def test_graph_attention_projection_gradients():
    # g_hw, the gradient at the projected rows, is the weight gradient of a
    # probe whose rows are the identity and whose weight is hw
    rng = np.random.default_rng(11)
    n = 4
    h, weight, att_dst, att_src, bias, logit_bias = _attention_inputs(rng, n, 2, 3)
    r = rng.standard_normal((n, 6))

    def back_of(rows, w):
        return tc.graph_attention(rows, w, att_dst, att_src, bias, logit_bias,
                                  0.2, "concat")[1]

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
                           logit_bias, 0.2, "concat")


# ---------------------------------------------------------------------------
# the attention softmax, read through the op: with identity rows and weight,
# z = I per head, and each head's output is its alpha (heads, dst, src)

def _alpha(logit_bias, att_dst=None, att_src=None):
    """Alpha of ``graph_attention`` on identity rows; zero attention vectors,
    the default, make the logits the bias itself."""
    n = len(logit_bias)
    att_dst = np.zeros((1, n)) if att_dst is None else att_dst
    att_src = np.zeros((1, n)) if att_src is None else att_src
    heads = len(att_dst)
    out, _ = tc.graph_attention(np.eye(n), np.tile(np.eye(n), (1, heads)),
                                att_dst, att_src, np.zeros(heads * n),
                                logit_bias, 0.2, "concat")
    return out.reshape(n, heads, n).transpose(1, 0, 2)


def test_attention_singleton():
    np.testing.assert_array_equal(_alpha(np.array([[3.7]])), [[[1.0]]])


def test_attention_symmetric_pair():
    bias = np.array([[0.0, 0.0, -np.inf], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(_alpha(bias)[0, 0], [0.5, 0.5, 0.0])


def test_attention_matches_direct_softmax():
    logits = np.array([1.0, 2.0, 3.0])
    direct = np.exp(logits - logits.max())
    direct /= direct.sum()
    out = _alpha(np.tile(logits, (3, 1)))
    np.testing.assert_allclose(out[0, 0], direct, rtol=1e-15)


def test_attention_rejects_a_row_without_finite_bias():
    bias = np.array([[0.0, -np.inf], [-np.inf, -np.inf]])
    with pytest.raises(tc.ShapeError, match="finite logit bias entry"):
        _alpha(bias)


def test_attention_rejects_bias_shape():
    rng = np.random.default_rng(8)
    h, weight, att_dst, att_src, bias, logit_bias = _attention_inputs(rng, 3, 2, 2)
    with pytest.raises(tc.ShapeError, match=r"logit bias \(3, 2\)"):
        tc.graph_attention(h, weight, att_dst, att_src, bias,
                           logit_bias[:, :2], 0.2, "concat")


def test_attention_extreme_logits_stay_finite():
    bias = np.array([[1e4, -1e4, -np.inf, 0.0], [-np.inf, 1e4, 0.0, -1e300],
                     [1e300, -np.inf, 0.0, -1e300], [0.0, 0.0, 0.0, 0.0]])
    out = _alpha(bias)[0]
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(axis=1), 1.0)
    np.testing.assert_array_equal(out[np.isinf(bias)], 0.0)


def test_attention_off_edges_zero_with_zero_gradient():
    # with the logits' s_dst, s_src given as attention vectors
    rng = np.random.default_rng(5)
    n, heads = 4, 3
    edges = rng.random((n, n)) < 0.5
    np.fill_diagonal(edges, True)
    edges[0, n - 1] = False
    rows, weight = np.eye(n), np.tile(np.eye(n), (1, heads))
    att_dst, att_src = (rng.standard_normal((heads, n)) for _ in range(2))
    logit_bias = np.where(edges, rng.standard_normal((n, n)), -np.inf)
    weights = rng.standard_normal((n, heads * n))
    out, back = tc.graph_attention(rows, weight, att_dst, att_src,
                                   np.zeros(heads * n), logit_bias, 0.2,
                                   "concat")
    g_logit_bias = back(weights)[5]
    alpha = out.reshape(n, heads, n).transpose(1, 0, 2)
    full = np.broadcast_to(edges, alpha.shape)
    assert np.all(alpha[~full] == 0.0)
    assert np.all(alpha[full] > 0.0)
    np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(g_logit_bias[~edges] == 0.0)
    assert np.any(g_logit_bias[edges] != 0.0)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_attention_sums_and_row_shift_invariance(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 6))
    edges = rng.random((n, n)) < 0.5
    edges[np.arange(n), rng.integers(0, n, size=n)] = True
    bias = np.where(edges, rng.standard_normal((n, n)), -np.inf)
    att_dst, att_src = rng.standard_normal((2, 2, n))
    out = _alpha(bias, att_dst, att_src)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    shifted = _alpha(bias + rng.standard_normal((n, 1)), att_dst, att_src)
    np.testing.assert_allclose(shifted, out, atol=1e-12)


# ---------------------------------------------------------------------------
# rewrites bit for bit equal to the earlier formulations in oracles

def test_sigmoid_is_bitwise_the_indexed_formula():
    edges = np.array([0.0, 1e-300, 36.7, 709.0, 745.0, 1e308])
    x = np.concatenate([edges, -edges,
                        np.random.default_rng(13).standard_normal(200) * 30])
    out, _ = tc.sigmoid(x[:, None])
    assert out.tobytes() == sigmoid_reference(x[:, None]).tobytes()
    assert out[0, 0] == out[6, 0] == 0.5


@pytest.mark.parametrize("head_mode", ["concat", "average"])
def test_graph_attention_is_bitwise_the_earlier_formulas(head_mode):
    # average-mode heads as agg.mean(axis=0) + bias, their backward through
    # np.broadcast_to, and separate LeakyReLU masks
    rng = np.random.default_rng(14)
    for n in (1, 4, 9):
        h, weight, att_dst, att_src = (rng.standard_normal(shape) for shape in
                                       ((n, 5), (5, 12), (3, 4), (3, 4)))
        width = 12 if head_mode == "concat" else 4
        bias, g = rng.standard_normal(width), rng.standard_normal((n, width))
        edges = rng.random((n, n)) < 0.5
        np.fill_diagonal(edges, True)
        logit_bias = np.where(edges, rng.standard_normal((n, n)), -np.inf)
        args = (h, weight, att_dst, att_src, bias, logit_bias, 0.2, head_mode)
        out, back = tc.graph_attention(*args)
        ref_out, ref_grads = graph_attention_reference(*args, g)
        assert out.tobytes() == ref_out.tobytes()
        for got, want in zip(back(g), ref_grads):
            assert got.tobytes() == want.tobytes()


def _check_out_views(back, g, shapes, input_grad):
    """``back`` with ``out=`` views of one NaN-filled vector fills them with
    the bits of its freshly returned gradients, and returns those views."""
    fresh = back(g, input_grad=input_grad)
    sizes = [int(np.prod(shape)) for shape in shapes]
    vector = np.full(sum(sizes), np.nan)
    views = tuple(v.reshape(shape) for v, shape in
                  zip(np.split(vector, np.cumsum(sizes)[:-1]), shapes))
    written = back(g, input_grad=input_grad, out=views)
    assert all(a is b for a, b in zip(written[1:], views))
    if input_grad:
        assert written[0].tobytes() == fresh[0].tobytes()
    else:
        assert written[0] is None
    assert vector.tobytes() == np.concatenate(
        [np.ravel(a) for a in fresh[1:len(shapes) + 1]]).tobytes()


@pytest.mark.parametrize("input_grad", [True, False])
def test_linear_back_writes_out_views(input_grad):
    rng = np.random.default_rng(15)
    x, w, b = (rng.standard_normal(shape) for shape in ((6, 3), (3, 5), (5,)))
    out, back = tc.linear(x, w, b)
    _check_out_views(back, rng.standard_normal(out.shape), (w.shape, b.shape),
                     input_grad)


@pytest.mark.parametrize("head_mode", ["concat", "average"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_graph_attention_back_writes_out_views(head_mode, input_grad):
    rng = np.random.default_rng(16)
    h, weight, att_dst, att_src, bias, logit_bias = _attention_inputs(rng, 5, 3, 2)
    if head_mode == "average":
        bias = bias[:2]
    out, back = tc.graph_attention(h, weight, att_dst, att_src, bias,
                                   logit_bias, 0.2, head_mode)
    _check_out_views(back, rng.standard_normal(out.shape),
                     (weight.shape, att_dst.shape, att_src.shape, bias.shape),
                     input_grad)


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
    r = rng.standard_normal((4, 6))

    def loss_and_grad():
        gat, gat_back = tc.graph_attention(h, weight, att_dst, att_src, bias,
                                           logit_bias, 0.2, "concat")
        skip, skip_back = tc.linear(h, skip_w, skip_b)
        return (float(np.sum((gat + skip) * r)),
                skip_back(r)[0] + gat_back(r)[0])

    check_case(loss_and_grad, h)


def test_gather_rows_grad_sums_unsorted_repeats():
    _, back = tc.gather_rows(np.zeros((4, 2)), np.array([3, 0, 3, 1, 0]))
    np.testing.assert_array_equal(back(np.ones((5, 2))),
                                  [[2, 2], [1, 1], [0, 0], [2, 2]])
