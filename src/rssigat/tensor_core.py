"""Forward/backward pairs for the ops the model and its loss use.

Each op takes float64 ndarrays and returns ``(out, back)``: ``out`` is the
op's result, checked to be finite, and ``back(g)`` maps the gradient at
``out`` to the gradients of the op's inputs, by a hand-derived formula;
those of parameters go into the caller's views when given as ``out=``.
There is no tape and no graph of tensors: ``gat_model.model_backward``
calls the ``back`` closures of a forward pass in reverse order.

The ops are three fused ones, ReLU, sigmoid and a row gather. ``linear`` is
``x @ w + b``; ``graph_attention`` is a whole dense multi-head attention
block, projection included, whose -inf logit bias entries are the non-edges;
and ``binary_cross_entropy`` is the class-weighted loss. The class graphs
have ~10 rows, so a step costs numpy dispatch per op far more than FLOPs:
fewer, larger ops and fewer calls within each are what make it fast.
"""
from __future__ import annotations

import numpy as np


class OpError(Exception):
    pass


class ShapeError(OpError):
    pass


class NonFiniteError(OpError):
    pass


def ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Affine map ``x @ w + b`` for x (rows, in), w (in, out) and b (out,).
    ``back(g)`` returns the gradients of (x, w, b); with ``input_grad=False``
    it leaves out that of ``x``, for rows that are constant, and returns None
    in its place, and it writes those of (w, b) into ``out``, if given."""
    if (x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeError(f"linear shapes {x.shape} x {w.shape} + {b.shape}")
    out = x @ w + b
    ensure_finite(out, "linear")

    def back(g, input_grad=True, out=None):
        g_w, g_b = out or map(np.empty_like, (w, b))
        return (g @ w.T if input_grad else None, np.matmul(x.T, g, out=g_w),
                np.add.reduce(g, axis=0, out=g_b))

    return out, back


def relu(x: np.ndarray):
    out = np.maximum(x, 0.0)
    ensure_finite(out, "relu")

    def back(g):
        return g * (x > 0)

    return out, back


def sigmoid(x: np.ndarray):
    # 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below; e^-|x| cannot overflow
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    ensure_finite(out, "sigmoid")

    def back(g):
        return g * out * (1.0 - out)

    return out, back


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
    total = (pos * np.log(p_clamped) + neg * np.log(q_clamped)).sum()
    out = total * c
    ensure_finite(out, "binary_cross_entropy")

    def back(g):
        k = float(g * c)
        return (np.where(p >= LOG_FLOOR, k * pos / p_clamped, 0.0)
                - np.where(q >= LOG_FLOOR, k * neg / q_clamped, 0.0))

    return out, back


# ---------------------------------------------------------------------------
# graph attention and row indexing

def graph_attention(h: np.ndarray, weight: np.ndarray, att_dst: np.ndarray,
                    att_src: np.ndarray, bias: np.ndarray,
                    logit_bias: np.ndarray, slope: float, head_mode: str):
    """Dense multi-head graph attention over C rows, as one op.

    The rows ``h`` (C, D) are projected by ``weight`` (D, H*F) to hw = h @
    weight, with head h in columns h*F..(h+1)*F; ``att_dst`` and ``att_src``
    are (H, F); ``logit_bias[dst, src]`` is (C, C), -inf where src is not a
    neighbour of dst, and each row needs a finite entry. Per head, with z the
    head's (C, F) slice of hw and s = z @ att::

        alpha = softmax(LeakyReLU(s_dst[:, None] + s_src[None, :])
                        + logit_bias)

    over each row, exactly 0 on the -inf entries, and the head's output is
    alpha @ z. Heads are concatenated to (C, H*F) for ``head_mode="concat"``
    or averaged to (C, F) for ``"average"``, then ``bias`` is added. The
    backward is derived by hand; it keeps alpha and the sign of the
    pre-activation logits. ``back(g)`` returns the gradients of (h, weight,
    att_dst, att_src, bias, logit_bias); with ``input_grad=False`` the first
    is None and not computed, for the first block's constant rows, and with
    ``out`` those of (weight, att_dst, att_src, bias) are written there.
    """
    if head_mode not in ("concat", "average"):
        raise OpError(f"unknown head_mode {head_mode!r}")
    if (h.ndim != 2 or weight.ndim != 2 or h.shape[1] != weight.shape[0]
            or att_dst.ndim != 2 or att_src.shape != att_dst.shape):
        raise ShapeError(f"graph_attention rows {h.shape}, weight {weight.shape}, "
                         f"attention vectors {att_dst.shape} and {att_src.shape}")
    heads, f = att_dst.shape
    n = h.shape[0]
    width = heads * f if head_mode == "concat" else f
    if (weight.shape[1] != heads * f or bias.shape != (width,)
            or logit_bias.shape != (n, n)):
        raise ShapeError(
            f"graph_attention weight {weight.shape}, {heads} heads of {f}, bias "
            f"{bias.shape}, logit bias {logit_bias.shape}")
    hw = h @ weight
    z = np.ascontiguousarray(hw.reshape(n, heads, f).transpose(1, 0, 2))
    # pre-activation logits, LeakyReLU, the bias and the row softmax in one
    # (H, C, C) buffer; exp(-inf) makes the non-edges' alpha exactly 0
    logits = (z @ att_dst.reshape(heads, f, 1)
              + (z @ att_src.reshape(heads, f, 1)).reshape(heads, 1, n))
    negative = logits <= 0
    np.multiply(logits, slope, out=logits, where=negative)
    ensure_finite(logits, "graph_attention")
    logits += logit_bias
    top = logits.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ShapeError("graph_attention needs a finite logit bias entry "
                         "in every row")
    logits -= top
    alpha = np.exp(logits, out=logits)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    agg = alpha @ z
    if head_mode == "concat":
        out = agg.transpose(1, 0, 2).reshape(n, width)
    else:
        out = np.add.reduce(agg, axis=0) / heads  # mean's own arithmetic
    out += bias
    ensure_finite(out, "graph_attention")

    def back(g, input_grad=True, out=None):
        g_weight, g_att_dst, g_att_src, g_bias = out or map(
            np.empty_like, (weight, att_dst, att_src, bias))
        if head_mode == "concat":
            g_agg = g.reshape(n, heads, f).transpose(1, 0, 2)
        else:
            g_agg = (g / heads)[None]  # matmul broadcasts it over heads
        # one (H, C, C) buffer turns from d/d alpha into d/d logits, then
        # d/d pre-activation
        zt = z.transpose(0, 2, 1)
        g_pre = g_agg @ zt
        g_pre *= alpha
        g_pre -= alpha * g_pre.sum(axis=-1, keepdims=True)
        g_logit_bias = g_pre.sum(axis=0)
        np.multiply(g_pre, slope, out=g_pre, where=negative)
        g_dst = g_pre.sum(axis=2, keepdims=True)
        g_src = g_pre.sum(axis=1)[:, :, None]
        g_z = alpha.transpose(0, 2, 1) @ g_agg
        g_z += g_src * att_src[:, None, :]
        g_z += g_dst * att_dst[:, None, :]
        g_hw = g_z.transpose(1, 0, 2).reshape(n, heads * f)
        np.matmul(zt, g_dst, out=g_att_dst[:, :, None])
        np.matmul(zt, g_src, out=g_att_src[:, :, None])
        return (g_hw @ weight.T if input_grad else None,
                np.matmul(h.T, g_hw, out=g_weight), g_att_dst, g_att_src,
                np.add.reduce(g, axis=0, out=g_bias), g_logit_bias)

    return out, back


def gather_rows(x: np.ndarray, idx: np.ndarray):
    shape = x.shape
    if idx.size and (idx.min() < 0 or idx.max() >= shape[0]):
        raise ShapeError("gather_rows index out of range")
    out = x[idx]
    ensure_finite(out, "gather_rows")

    def back(g):
        grad = np.zeros(shape)
        np.add.at(grad, idx, g)
        return grad

    return out, back
