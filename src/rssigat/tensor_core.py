"""Forward/backward pairs for the ops the model and its loss use.

Each op takes float64 ndarrays and returns ``(out, back)``: ``out`` is the
op's result, checked to be finite where it can be non-finite, and
``back(g)`` maps the gradient at ``out`` to the gradients of the op's
inputs, by a hand-derived formula; those of parameters go into the caller's
views when given as ``out=``. There is no tape and no graph of tensors:
``gat_model.model_backward`` calls the ``back`` closures of a forward pass
in reverse order. Only the loss checks shapes: ``GatModel`` checks its
layers once, and each ``mtf_graph.TsGraph`` checks its node map when it is
made and makes its own (C, 1) rows and attention bias.

There are three ops. ``attention_block`` is a whole block: a multi-head
attention, projection included, plus a linear skip, then ReLU. Its two
attention vectors per head are one (2, H, F) ``att``, so one product gives
the scores of both directions and one their gradients. Its bias is
the graph's dense (C, C) logit bias, whose -inf entries are the non-edges,
or, for a sparse graph, its finite entries as an E-edge list, over which
the logits and their per-row softmax run; the aggregation and the
backward's products are the same dense (H, C, C) ones either way.
``output_head`` is the output linear, a sigmoid and the gather from rows to
nodes, and ``binary_cross_entropy`` is the class-weighted loss. The class
graphs have ~10 rows, so a step costs numpy dispatch per op far more than
FLOPs: fewer, larger ops and fewer calls within each are what make it fast.
So the ops reduce with ``np.add.reduce`` and ``np.maximum.reduce``, gather
with ``ndarray.take`` and check with ``all_finite``: the ``.sum()``,
``.max()``, ``np.take`` and ``.all()`` wrappers cost a Python call each.
"""
from __future__ import annotations

import numpy as np


class OpError(Exception):
    pass


class ShapeError(OpError):
    pass


class NonFiniteError(OpError):
    pass


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite."""
    return np.logical_and.reduce(np.isfinite(arr), axis=None)


def ensure_finite(arr: np.ndarray, op: str) -> None:
    if not all_finite(arr):
        raise NonFiniteError(f"{op} produced non-finite values")


LOG_FLOOR = 1e-12


def binary_cross_entropy(p: np.ndarray, pos: np.ndarray, neg: np.ndarray):
    """-(1/n) * sum(pos * ln p + neg * ln(1 - p)) over the n entries of the
    probabilities ``p``; ``pos`` and ``neg`` are constant weights of p's
    shape. Both log arguments are clamped from below at LOG_FLOOR, and a
    term whose clamp is active passes no gradient. ``back(g)`` takes the
    gradient at the scalar loss, 1.0 to start a reverse pass."""
    if pos.shape != p.shape or neg.shape != p.shape:
        raise ShapeError(f"binary_cross_entropy probabilities {p.shape}, "
                         f"weights {pos.shape} and {neg.shape}")
    c = -1.0 / p.size
    q = 1.0 - p
    p_clamped = np.maximum(p, LOG_FLOOR)
    q_clamped = np.maximum(q, LOG_FLOOR)
    total = np.add.reduce(pos * np.log(p_clamped) + neg * np.log(q_clamped),
                          axis=None)
    out = total * c
    ensure_finite(out, "binary_cross_entropy")

    def back(g):
        k = float(g * c)
        return (np.where(p >= LOG_FLOOR, k * pos / p_clamped, 0.0)
                - np.where(q >= LOG_FLOOR, k * neg / q_clamped, 0.0))

    return out, back


# ---------------------------------------------------------------------------
# the model's two ops

def _dense_alpha(s, logit_bias, slope):
    """The attention coefficients (H, C, C) of per-head scores ``s`` (H, C,
    2), source scores in ``s[..., 0]`` and destination scores in
    ``s[..., 1]``, under a dense (C, C) logit bias, and ``back(g)``, which
    maps d/d alpha (H, C, C) to d/d s (H, C, 2)."""
    heads, n = s.shape[:2]
    # pre-activation logits, LeakyReLU, the bias and the row softmax in one
    # (H, C, C) buffer; exp(-inf) makes the non-edges' alpha exactly 0
    logits = s[:, :, 1:] + s[:, None, :, 0]
    negative = logits <= 0
    np.multiply(logits, slope, out=logits, where=negative)
    ensure_finite(logits, "graph_attention")
    logits += logit_bias
    top = np.maximum.reduce(logits, axis=-1, keepdims=True)
    if not all_finite(top):
        raise ShapeError("graph_attention needs a finite logit bias entry "
                         "in every row")
    logits -= top
    alpha = np.exp(logits, out=logits)
    alpha /= np.add.reduce(alpha, axis=-1, keepdims=True)

    def back(g_pre):
        # one (H, C, C) buffer turns from d/d alpha into d/d logits, then
        # d/d pre-activation, summed over destinations and over sources
        g_pre *= alpha
        g_pre -= alpha * np.add.reduce(g_pre, axis=-1, keepdims=True)
        np.multiply(g_pre, slope, out=g_pre, where=negative)
        g_s = np.empty((heads, n, 2))
        np.add.reduce(g_pre, axis=1, out=g_s[:, :, 0])
        np.add.reduce(g_pre, axis=2, out=g_s[:, :, 1])
        return g_s

    return alpha, back


def _edge_alpha(s, edges, slope):
    """``_dense_alpha`` over the E edges of an ``mtf_graph.EdgeList``: the
    logits, their softmax per destination row and its backward are (H, E),
    and only alpha and d/d alpha are (H, C, C), zero off the edges, so no
    -inf of the non-edges reaches ``np.exp``."""
    heads, n = s.shape[:2]
    logits = (s[:, :, 1].take(edges.dst, axis=1)
              + s[:, :, 0].take(edges.src, axis=1))
    negative = logits <= 0
    np.multiply(logits, slope, out=logits, where=negative)
    ensure_finite(logits, "graph_attention")
    logits += edges.bias
    logits -= np.maximum.reduceat(logits, edges.starts, axis=1).take(
        edges.dst, axis=1)
    a = np.exp(logits, out=logits)
    a /= np.add.reduceat(a, edges.starts, axis=1).take(edges.dst, axis=1)
    alpha = np.zeros((heads, n, n))
    alpha.reshape(heads, n * n)[:, edges.index] = a

    def back(g_alpha):
        g_pre = g_alpha.reshape(heads, n * n).take(edges.index, axis=1)
        g_pre *= a
        g_pre -= a * np.add.reduceat(g_pre, edges.starts, axis=1).take(
            edges.dst, axis=1)
        np.multiply(g_pre, slope, out=g_pre, where=negative)
        g_s = np.empty((heads, n, 2))
        np.add.reduceat(g_pre.take(edges.by_src, axis=1), edges.src_starts,
                        axis=1, out=g_s[:, :, 0])
        np.add.reduceat(g_pre, edges.starts, axis=1, out=g_s[:, :, 1])
        return g_s

    return alpha, back


def attention_block(h: np.ndarray, weight: np.ndarray, att: np.ndarray,
                    bias: np.ndarray, skip_weight: np.ndarray,
                    skip_bias: np.ndarray, logit_bias, slope: float,
                    head_mode: str, block: int = 1):
    """One block: ReLU(attention(h) + h @ skip_weight + skip_bias).

    The attention is multi-head graph attention over C rows. The rows
    ``h`` (C, D) are projected by ``weight`` (D, H*F) to hw = h @ weight,
    with head h in columns h*F..(h+1)*F; ``att`` (2, H, F) holds the
    source attention vectors in ``att[0]`` and the destination ones in
    ``att[1]``; ``logit_bias[dst, src]`` is (C, C), -inf where src is not a
    neighbour of dst, and each row needs a finite entry. Per head, with z
    the head's (C, F) slice of hw and the scores of both directions from
    one product, s = z @ att.transpose(1, 2, 0)::

        alpha = softmax(LeakyReLU(s_dst[:, None] + s_src[None, :])
                        + logit_bias)

    over each row, exactly 0 on the -inf entries, and the head's output is
    alpha @ z. ``logit_bias`` may instead be the graph's finite entries as
    an ``mtf_graph.EdgeList``: then the logits and the softmax, taken with
    ``np.maximum.reduceat`` and ``np.add.reduceat`` over each row's edges,
    and their backward are (H, E), and alpha is scattered into zeros. That
    is cheaper when most of the (C, C) entries are -inf, and equal within
    rounding, since the row sums run in another order. Heads are
    concatenated to (C, H*F) for ``head_mode="concat"`` or averaged to
    (C, F) for ``"average"``, then ``bias`` is added; the skip (D, width)
    and its bias give the same width. The attention
    logits and the sum are checked finite; a non-finite part makes the sum
    non-finite, and its error names the attention or the skip output, the
    first non-finite one, or else the sum and its ``block`` number.

    The backward is derived by hand; it keeps alpha, the sign of the
    pre-activation logits and the sum. ``back(g)`` returns the gradients of
    (h, weight, att, bias, skip_weight, skip_bias), that of h the skip's
    part plus the attention's; the logit bias is a constant of the graph
    and gets none. Both directions' score gradients come from one product,
    and so does their share of d/dz. With ``input_grad=False`` the first is
    None and not computed, for the first block's constant rows, and with
    ``out`` the other five are written there.
    """
    _, heads, f = att.shape
    n = h.shape[0]
    hw = h @ weight
    z = np.ascontiguousarray(hw.reshape(n, heads, f).transpose(1, 0, 2))
    s = z @ att.transpose(1, 2, 0)
    if isinstance(logit_bias, np.ndarray):
        alpha, alpha_back = _dense_alpha(s, logit_bias, slope)
    else:
        alpha, alpha_back = _edge_alpha(s, logit_bias, slope)
    agg = alpha @ z
    if head_mode == "concat":
        gat = agg.transpose(1, 0, 2).reshape(n, heads * f)
    else:
        gat = np.add.reduce(agg, axis=0) / heads  # mean's own arithmetic
    gat += bias
    skip = h @ skip_weight + skip_bias
    total = gat + skip
    if not all_finite(total):
        ensure_finite(gat, "graph_attention")
        ensure_finite(skip, "linear")
        raise NonFiniteError(f"block {block} sum produced non-finite values")

    def back(g, input_grad=True, out=None):
        g_weight, g_att, g_bias, g_skip_weight, g_skip_bias = out or map(
            np.empty_like, (weight, att, bias, skip_weight, skip_bias))
        g = g * (total > 0)
        g_skip = g @ skip_weight.T if input_grad else None
        np.matmul(h.T, g, out=g_skip_weight)
        np.add.reduce(g, axis=0, out=g_skip_bias)
        np.copyto(g_bias, g_skip_bias)  # both biases add to the same sum
        if head_mode == "concat":
            g_agg = g.reshape(n, heads, f).transpose(1, 0, 2)
        else:
            g_agg = (g / heads)[None]  # matmul broadcasts it over heads
        g_s = alpha_back(g_agg @ z.transpose(0, 2, 1))
        g_z = alpha.transpose(0, 2, 1) @ g_agg
        g_z += g_s @ att.transpose(1, 0, 2)
        g_hw = g_z.transpose(1, 0, 2).reshape(n, heads * f)
        np.matmul(g_s.transpose(0, 2, 1), z, out=g_att.transpose(1, 0, 2))
        return (g_skip + g_hw @ weight.T if input_grad else None,
                np.matmul(h.T, g_hw, out=g_weight), g_att, g_bias,
                g_skip_weight, g_skip_bias)

    return np.maximum(total, 0.0), back


def output_head(h: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                node_map: np.ndarray):
    """Per-node probabilities sigmoid(h @ weight + bias)[node_map] for rows
    h (C, W), weight (W, 1) and bias (1,); the logits are checked finite.
    ``node_map`` is not bounds-checked here: a ``TsGraph`` checks its map
    when it is made.
    ``back(g)`` returns the gradients of (h, weight, bias), the last two
    written into ``out``, if given; a row's gradient sums those of the
    nodes that map to it."""
    logits = h @ weight + bias
    ensure_finite(logits, "linear")
    # 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below; e^-|x| cannot overflow
    e = np.exp(-np.abs(logits))
    probs = np.where(logits >= 0, 1.0, e) / (1.0 + e)

    def back(g, out=None):
        g_weight, g_bias = out or map(np.empty_like, (weight, bias))
        # summed in node order, as np.add.at would
        g_probs = np.bincount(node_map, weights=g[:, 0], minlength=len(probs))
        g = g_probs[:, None] * probs * (1.0 - probs)
        return (g @ weight.T, np.matmul(h.T, g, out=g_weight),
                np.add.reduce(g, axis=0, out=g_bias))

    return probs[node_map], back
