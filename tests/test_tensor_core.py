import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rssigat.tensor_core as tc
from gradcheck import block_cases, check_case, primitive_cases, sparse_graph
from oracles import (attention_block_reference, output_head_reference,
                     sigmoid_reference)


# ---------------------------------------------------------------------------
# the parts of attention_block, read through the op: a zero attention weight
# leaves the skip alone, a zero skip the attention alone, and ReLU(y) -
# ReLU(-y) is y, bit for bit

def _linear(x, w, b):
    """``x @ w + b``, the skip of ``attention_block`` alone: with a zero
    attention weight and bias the attention part is 0, and the block with
    (-w, -b) gives ReLU of the negated output."""
    n = len(x)
    zero = (np.zeros((x.shape[1], w.shape[1])), np.zeros((2, 1, w.shape[1])),
            np.zeros(w.shape[1]))

    def block(sign):
        return tc.attention_block(x, *zero, sign * w, sign * b,
                                  np.zeros((n, n)), 0.2, "concat")[0]

    return block(1.0) - block(-1.0)


def attention_output(h, weight, att, bias, logit_bias, slope=0.2,
                     head_mode="concat"):
    """The attention part of ``attention_block`` alone: with a zero skip the
    block gives ReLU(y), and with weight, attention vectors and bias negated
    ReLU(-y), since negation is exact and leaves the logits as they are."""
    width = len(bias)
    zero = (np.zeros((h.shape[1], width)), np.zeros(width))

    def block(sign):
        return tc.attention_block(h, sign * weight, sign * att, sign * bias,
                                  *zero, logit_bias, slope, head_mode)[0]

    return block(1.0) - block(-1.0)


def attention_back(h, weight, att, bias, logit_bias, slope=0.2,
                   head_mode="concat"):
    """The ``back`` of the attention part of ``attention_block``: a zero
    skip weight passes no gradient to the rows, and a skip bias far above
    the attention output keeps every ReLU open."""
    width = len(bias)
    return tc.attention_block(h, weight, att, bias,
                              np.zeros((h.shape[1], width)),
                              np.full(width, 1e3), logit_bias, slope,
                              head_mode)[1]


# ---------------------------------------------------------------------------
# forward values

def test_matmul_identity():
    a = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(_linear(a, np.eye(3), np.zeros(3)), a)


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0], [1.0]])
    np.testing.assert_array_equal(_linear(a, b, np.zeros(1)), [[3.0], [7.0]])


def test_non_finite_trips_error():
    # the skip and the head's logits overflow; the attention stays finite
    with np.errstate(over="ignore"), pytest.raises(tc.NonFiniteError,
                                                   match="linear"):
        _linear(np.array([[1e308]]), np.array([[10.0]]), np.zeros(1))
    with np.errstate(over="ignore"), pytest.raises(tc.NonFiniteError,
                                                   match="linear"):
        tc.output_head(np.array([[1e308]]), np.array([[10.0]]), np.zeros(1),
                       np.arange(1))


def test_block_sum_non_finite_names_the_block():
    # attention and skip each 1e308, their sum overflows
    h, big = np.zeros((2, 1)), np.full(2, 1e308)
    ones = np.ones((1, 2))
    with np.errstate(over="ignore"), pytest.raises(
            tc.NonFiniteError, match="^block 3 sum produced non-finite values$"):
        tc.attention_block(h, ones, np.ones((2, 1, 2)), big, ones, big,
                           np.zeros((2, 2)), 0.2, "concat", block=3)
    # the attention output alone overflows, 1e308 rows plus a 1e308 bias,
    # and is named, not the sum
    with np.errstate(over="ignore"), pytest.raises(
            tc.NonFiniteError, match="^graph_attention produced non-finite"):
        tc.attention_block(np.ones((2, 1)), 1e308 * ones, np.zeros((2, 1, 2)),
                           big, 0 * ones, np.zeros(2), np.zeros((2, 2)), 0.2,
                           "concat", block=3)


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
    assert _linear(x, w, b).tobytes() == (x @ w + b).tobytes()


def test_linear_gives_no_gradient_to_a_constant_input():
    # the block's skip on its own, with every ReLU input positive
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 2))
    zero = (np.zeros((3, 2)), np.zeros((2, 1, 2)), np.zeros(2))
    out, back = tc.attention_block(x, *zero, w, np.full(2, 1e3),
                                   np.zeros((4, 4)), 0.2, "concat")
    gx, *_, gw, gb = back(np.ones_like(out), input_grad=False)
    assert gx is None
    np.testing.assert_allclose(gw, x.T @ np.ones((4, 2)), atol=1e-12)
    np.testing.assert_array_equal(gb, [4.0, 4.0])
    np.testing.assert_array_equal(back(np.ones_like(out))[0],
                                  np.ones((4, 2)) @ w.T)


def _attention_inputs(rng, n, heads, f):
    return (rng.standard_normal((n, 2)),
            rng.standard_normal((2, heads * f)),
            rng.standard_normal((2, heads, f)),
            rng.standard_normal(heads * f),
            rng.standard_normal((n, n)))


def test_graph_attention_projects_rows():
    # identity rows with hw as the weight form the same hw, bit for bit
    rng = np.random.default_rng(9)
    h, weight, att, bias, logit_bias = _attention_inputs(rng, 4, 2, 3)
    edges = rng.random((4, 4)) < 0.5
    np.fill_diagonal(edges, True)
    args = (att, bias, np.where(edges, logit_bias, -np.inf))
    out = attention_output(h, weight, *args)
    probe = attention_output(np.eye(4), h @ weight, *args)
    assert out.tobytes() == probe.tobytes()


def test_graph_attention_projection_gradients():
    # g_hw, the gradient at the projected rows, is the weight gradient of a
    # probe whose rows are the identity and whose weight is hw
    rng = np.random.default_rng(11)
    n = 4
    h, weight, att, bias, logit_bias = _attention_inputs(rng, n, 2, 3)
    r = rng.standard_normal((n, 6))

    def back_of(rows, w):
        return attention_back(rows, w, att, bias, logit_bias)

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
    _, _, _, bias, logit_bias = _attention_inputs(rng, 3, 2, 2)
    big = np.full((3, 1), 1e308)  # s_dst + s_src overflows
    with np.errstate(over="ignore"), \
            pytest.raises(tc.NonFiniteError, match="graph_attention"):
        attention_output(big, np.ones((1, 4)), np.ones((2, 2, 2)), bias,
                         logit_bias)


# ---------------------------------------------------------------------------
# the attention softmax, read through the op: with identity rows and weight,
# z = I per head, and each head's output is its alpha (heads, dst, src); a
# zero skip adds nothing, and ReLU leaves alpha >= 0 as it is

def _alpha(logit_bias, att=None):
    """Alpha of ``attention_block`` on identity rows; zero attention
    vectors, the default, make the logits the bias itself."""
    n = len(logit_bias)
    att = np.zeros((2, 1, n)) if att is None else att
    heads = att.shape[1]
    out, _ = tc.attention_block(np.eye(n), np.tile(np.eye(n), (1, heads)),
                                att, np.zeros(heads * n),
                                np.zeros((n, heads * n)), np.zeros(heads * n),
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
    att = rng.standard_normal((2, heads, n))
    logit_bias = np.where(edges, rng.standard_normal((n, n)), -np.inf)
    alpha = _alpha(logit_bias, att)
    full = np.broadcast_to(edges, alpha.shape)
    assert np.all(alpha[~full] == 0.0)
    assert np.all(alpha[full] > 0.0)
    np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_attention_sums_and_row_shift_invariance(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 6))
    edges = rng.random((n, n)) < 0.5
    edges[np.arange(n), rng.integers(0, n, size=n)] = True
    bias = np.where(edges, rng.standard_normal((n, n)), -np.inf)
    att = rng.standard_normal((2, 2, n))
    out = _alpha(bias, att)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    shifted = _alpha(bias + rng.standard_normal((n, 1)), att)
    np.testing.assert_allclose(shifted, out, atol=1e-12)


# ---------------------------------------------------------------------------
# the ops bit for bit equal to their op-by-op compositions in oracles

def test_sigmoid_is_bitwise_the_indexed_formula():
    # the head with weight [[1.0]] and bias 0 is the sigmoid of its rows
    edges = np.array([0.0, 1e-300, 36.7, 709.0, 745.0, 1e308])
    x = np.concatenate([edges, -edges,
                        np.random.default_rng(13).standard_normal(200) * 30])
    out, _ = tc.output_head(x[:, None], np.array([[1.0]]), np.zeros(1),
                            np.arange(len(x)))
    assert out.tobytes() == sigmoid_reference(x[:, None]).tobytes()
    assert out[0, 0] == out[6, 0] == 0.5


ROWS = (1, 4, 9, 50)


def _block_args(rng, n, head_mode):
    h, weight, att = (rng.standard_normal(shape) for shape in
                      ((n, 5), (5, 12), (2, 3, 4)))
    width = 12 if head_mode == "concat" else 4
    bias, skip_bias = rng.standard_normal((2, width))
    edges = rng.random((n, n)) < 0.5
    np.fill_diagonal(edges, True)
    logit_bias = np.where(edges, rng.standard_normal((n, n)), -np.inf)
    return (h, weight, att, bias, rng.standard_normal((5, width)),
            skip_bias, logit_bias, 0.2, head_mode)


@pytest.mark.parametrize("head_mode", ["concat", "average"])
def test_graph_attention_is_bitwise_the_earlier_formulas(head_mode):
    # the attention as average-mode heads agg.mean(axis=0) + bias, their
    # backward through np.broadcast_to and separate LeakyReLU masks, then
    # the skip, the sum and ReLU as separate ops
    rng = np.random.default_rng(14)
    for n in ROWS:
        args = _block_args(rng, n, head_mode)
        out, back = tc.attention_block(*args)
        ref_out, ref_back = attention_block_reference(*args)
        g = rng.standard_normal(out.shape)
        assert out.tobytes() == ref_out.tobytes()
        for got, want in zip(back(g), ref_back(g), strict=True):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("head_mode", ["concat", "average"])
def test_attention_over_edges_matches_the_dense_bias(head_mode):
    """The op over a graph's edge list gives the output and the six
    gradients of the op over its dense logit bias, within rounding."""
    rng = np.random.default_rng(16)
    for n in ROWS:
        graph = sparse_graph(rng, n)
        args = _block_args(rng, n, head_mode)
        out, back = tc.attention_block(*args[:6], graph.logit_bias, *args[7:])
        edge_out, edge_back = tc.attention_block(*args[:6], graph.edges,
                                                 *args[7:])
        g = rng.standard_normal(out.shape)
        np.testing.assert_allclose(edge_out, out, rtol=0, atol=1e-12)
        for got, want in zip(edge_back(g), back(g), strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_attention_over_edges_non_finite_logits_trip_the_same_error():
    rng = np.random.default_rng(17)
    graph = sparse_graph(rng, 5)
    messages = []
    for logit_bias in (graph.logit_bias, graph.edges):
        with np.errstate(over="ignore"), \
                pytest.raises(tc.NonFiniteError) as err:
            attention_output(np.full((5, 1), 1e308), np.ones((1, 4)),
                             np.ones((2, 2, 2)), np.zeros(4), logit_bias)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == \
        "graph_attention produced non-finite values"


def _check_out_views(back, g, want, input_grad):
    """``back`` with ``out=`` views of one NaN-filled vector fills them with
    the bits of ``want[1:]``, the reference's parameter gradients, returns
    those views and, with ``input_grad``, the bits of ``want[0]``."""
    shapes = [w.shape for w in want[1:]]
    sizes = [int(np.prod(shape)) for shape in shapes]
    vector = np.full(sum(sizes), np.nan)
    views = tuple(v.reshape(shape) for v, shape in
                  zip(np.split(vector, np.cumsum(sizes)[:-1]), shapes))
    written = (back(g, input_grad=input_grad, out=views)
               if input_grad is not None else back(g, out=views))
    assert len(written) == len(want)
    assert all(a is b for a, b in zip(written[1:], views))
    if input_grad is False:
        assert written[0] is None
    else:
        assert written[0].tobytes() == want[0].tobytes()
    assert vector.tobytes() == np.concatenate(
        [np.ravel(a) for a in want[1:]]).tobytes()


@pytest.mark.parametrize("input_grad", [True, False])
def test_linear_back_writes_out_views(input_grad):
    # the skip's gradients, with the attention switched off by a zero weight
    rng = np.random.default_rng(15)
    x, w, b = (rng.standard_normal(shape) for shape in ((6, 3), (3, 5), (5,)))
    zero = (np.zeros((3, 5)), np.zeros((2, 1, 5)), np.zeros(5))
    args = (x, *zero, w, b, np.zeros((6, 6)), 0.2, "concat")
    out, back = tc.attention_block(*args)
    g = rng.standard_normal(out.shape)
    gm = g * (x @ w + b > 0)
    assert out.tobytes() == np.maximum(x @ w + b, 0.0).tobytes()
    _check_out_views(back, g, attention_block_reference(*args)[1](g),
                     input_grad)
    g_w, g_b = back(g)[4:]
    np.testing.assert_array_equal(g_w, x.T @ gm)
    np.testing.assert_array_equal(g_b, gm.sum(axis=0))


@pytest.mark.parametrize("head_mode", ["concat", "average"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_graph_attention_back_writes_out_views(head_mode, input_grad):
    rng = np.random.default_rng(16)
    for n in ROWS:
        args = _block_args(rng, n, head_mode)
        out, back = tc.attention_block(*args)
        g = rng.standard_normal(out.shape)
        _check_out_views(back, g, attention_block_reference(*args)[1](g),
                         input_grad)


def test_output_head_is_bitwise_the_op_by_op_head():
    rng = np.random.default_rng(17)
    for n in ROWS:
        args = (rng.standard_normal((n, 4)), rng.standard_normal((4, 1)),
                rng.standard_normal(1), rng.integers(0, n, size=3 * n))
        out, back = tc.output_head(*args)
        ref_out, ref_back = output_head_reference(*args)
        g = rng.standard_normal(out.shape)
        assert out.tobytes() == ref_out.tobytes()
        _check_out_views(back, g, ref_back(g), None)


# ---------------------------------------------------------------------------
# finite-difference checks, >= 20 random instances per differentiable op

def test_every_primitive_matches_finite_differences():
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        for build_loss, leaf in primitive_cases(rng):
            check_case(build_loss, leaf)


def test_gradient_accumulates_over_reuse():
    # a block's rows feed both its attention and its skip, and get the sum
    # of the two input gradients
    rng = np.random.default_rng(12)
    (build_loss, leaf), = block_cases(rng, 4, 2, 2, 3, "concat", ("h",))
    check_case(build_loss, leaf)


def test_gather_rows_grad_sums_unsorted_repeats():
    # zero rows give p = 0.5 and dp/dlogit = 0.25 on every row
    _, back = tc.output_head(np.zeros((4, 1)), np.array([[1.0]]), np.zeros(1),
                             np.array([3, 0, 3, 1, 0]))
    np.testing.assert_array_equal(back(np.ones((5, 1)))[0],
                                  [[0.5], [0.25], [0.0], [0.5]])
