"""Minimal dense float64 tensors with tape-based reverse-mode differentiation.

Only the ops the model and its loss record: three fused ops with
hand-derived backward passes, ReLU, sigmoid and a row gather. ``linear`` is
``x @ w + b``; ``graph_attention`` is a whole dense masked multi-head
attention block, projection included, as one tape record; and
``binary_cross_entropy`` is the class-weighted loss. ``add`` and ``mul``
take same-shape inputs only; nothing broadcasts. The class graphs have ~10
rows, so a step costs numpy dispatch per op far more than FLOPs, and fewer,
larger ops are what make it fast. Everything is float64 and every op
validates that its output is finite.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class TensorError(Exception):
    pass


class ShapeError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


class Tensor:
    """A contiguous float64 array plus a differentiation flag.

    Tensors created directly are leaves; tensors produced by ops are
    intermediates whose ``requires_grad`` is inherited from their inputs.
    """

    __slots__ = ("data", "requires_grad", "is_leaf")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        _ensure_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class _OpRecord:
    __slots__ = ("name", "out", "inputs", "grad_fn")

    def __init__(self, name, out, inputs, grad_fn):
        self.name = name
        self.out = out
        self.inputs = inputs
        self.grad_fn = grad_fn


class Tape:
    """Ordered record of primitive ops; replayed in reverse by backward()."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[_OpRecord] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Tape] = []


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


def _make(name: str, data: np.ndarray,
          inputs: Sequence[Tensor],
          grad_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    _ensure_finite(data, name)
    arr = np.asarray(data, dtype=np.float64)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.is_leaf = False
    if out.requires_grad and _TAPE_STACK:
        _TAPE_STACK[-1].ops.append(_OpRecord(name, out, tuple(inputs), grad_fn))
    return out


def _same_shape(name: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name} shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)

    def grad_fn(g):
        return g, g

    return _make("add", a.data + b.data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g * bd, g * ad

    return _make("mul", ad * bd, (a, b), grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` for x (rows, in), w (in, out) and b (out,) as
    one op. An input that does not require a gradient gets none."""
    xd, wd, bd = x.data, w.data, b.data
    if (xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]
            or bd.shape != wd.shape[1:]):
        raise ShapeError(f"linear shapes {xd.shape} x {wd.shape} + {bd.shape}")

    def grad_fn(g):
        return (g @ wd.T if x.requires_grad else None,
                xd.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _make("linear", xd @ wd + bd, (x, w, b), grad_fn)


# ---------------------------------------------------------------------------
# reductions

def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def grad_fn(g):
        return (np.full(shape, float(g)),)

    return _make("sum_all", np.asarray(x.data.sum()), (x,), grad_fn)


# ---------------------------------------------------------------------------
# nonlinearities

def relu(x: Tensor) -> Tensor:
    xd = x.data

    def grad_fn(g):
        return (g * (xd > 0),)

    return _make("relu", np.maximum(xd, 0.0), (x,), grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _make("sigmoid", out, (x,), grad_fn)


LOG_FLOOR = 1e-12


def binary_cross_entropy(p: Tensor, pos: np.ndarray, neg: np.ndarray) -> Tensor:
    """-(1/n) * sum(pos * ln p + neg * ln(1 - p)) over the n entries of the
    probabilities ``p``, as one op; ``pos`` and ``neg`` are constant weights
    of p's shape. Both log arguments are clamped from below at LOG_FLOOR, and
    a term whose clamp is active passes no gradient."""
    pd = p.data
    if pos.shape != pd.shape or neg.shape != pd.shape:
        raise ShapeError(f"binary_cross_entropy probabilities {pd.shape}, "
                         f"weights {pos.shape} and {neg.shape}")
    c = -1.0 / pd.size
    q = 1.0 - pd
    p_clamped = np.maximum(pd, LOG_FLOOR)
    q_clamped = np.maximum(q, LOG_FLOOR)
    total = (pos * np.log(p_clamped) + neg * np.log(q_clamped)).sum()

    def grad_fn(g):
        k = float(g * c)
        g_p = np.where(pd >= LOG_FLOOR, k * pos / p_clamped, 0.0)
        g_q = np.where(q >= LOG_FLOOR, k * neg / q_clamped, 0.0)
        return (-g_q + g_p,)

    return _make("binary_cross_entropy", np.asarray(total) * c, (p,), grad_fn)


# ---------------------------------------------------------------------------
# graph attention and row indexing

def masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``x`` among the entries where the boolean
    ``mask`` (broadcast against ``x``) is set; every row needs one. A plain
    numpy helper, not a tape op. Masked-out entries are exactly 0. Rows are
    shifted by their largest unmasked value, so no -inf is ever formed; one
    buffer of ``x``'s shape holds shift, exp and sums."""
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    try:
        full = np.broadcast_to(mask, x.shape)
    except ValueError:
        raise ShapeError(f"masked_softmax mask {mask.shape} does not "
                         f"broadcast to {x.shape}") from None
    if x.ndim == 0 or not full.any(axis=-1).all():
        raise ShapeError("masked_softmax needs a set mask entry in every row")
    y = x - np.max(x, axis=-1, keepdims=True, where=full, initial=-np.inf)
    np.exp(y, out=y, where=full)
    np.copyto(y, 0.0, where=~mask)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def graph_attention(h: Tensor, weight: Tensor, att_dst: Tensor, att_src: Tensor,
                    bias: Tensor, logit_bias: Tensor, mask: np.ndarray,
                    slope: float, head_mode: str) -> Tensor:
    """Dense masked multi-head graph attention over C rows, as one op.

    The rows ``h`` (C, D) are projected by ``weight`` (D, H*F) to hw = h @
    weight, with head h in columns h*F..(h+1)*F; ``att_dst`` and ``att_src``
    are (H, F); ``logit_bias`` and the boolean ``mask[dst, src]`` are (C, C).
    Per head, with z the head's (C, F) slice of hw and s = z @ att::

        alpha = masked_softmax(LeakyReLU(s_dst[:, None] + s_src[None, :])
                               + logit_bias, mask)

    and the head's output is alpha @ z. Heads are concatenated to (C, H*F)
    for ``head_mode="concat"`` or averaged to (C, F) for ``"average"``, then
    ``bias`` is added. The backward is derived by hand; it keeps alpha and
    the sign of the pre-activation logits, and gives no gradient to an input
    that does not require one (the first block's constant rows get none).
    """
    if head_mode not in ("concat", "average"):
        raise TensorError(f"unknown head_mode {head_mode!r}")
    hd, wd, mask = h.data, weight.data, np.asarray(mask, dtype=bool)
    if (hd.ndim != 2 or wd.ndim != 2 or hd.shape[1] != wd.shape[0]
            or att_dst.data.ndim != 2 or att_src.shape != att_dst.shape):
        raise ShapeError(f"graph_attention rows {hd.shape}, weight {wd.shape}, "
                         f"attention vectors {att_dst.shape} and {att_src.shape}")
    heads, f = att_dst.shape
    n = hd.shape[0]
    width = heads * f if head_mode == "concat" else f
    if (wd.shape[1] != heads * f or bias.shape != (width,)
            or logit_bias.shape != (n, n) or mask.shape != (n, n)):
        raise ShapeError(
            f"graph_attention weight {wd.shape}, {heads} heads of {f}, bias "
            f"{bias.shape}, logit bias {logit_bias.shape}, mask {mask.shape}")
    hw = hd @ wd
    z = np.ascontiguousarray(hw.reshape(n, heads, f).transpose(1, 0, 2))
    # pre-activation logits, LeakyReLU and the bias in one (H, C, C) buffer
    logits = (z @ att_dst.data.reshape(heads, f, 1)
              + (z @ att_src.data.reshape(heads, f, 1)).reshape(heads, 1, n))
    positive = logits > 0
    np.multiply(logits, slope, out=logits, where=~positive)
    logits += logit_bias.data
    _ensure_finite(logits, "graph_attention")
    alpha = masked_softmax(logits, mask)
    del logits  # the backward keeps alpha; free the logits before the output
    agg = alpha @ z
    if head_mode == "concat":
        out = agg.transpose(1, 0, 2).reshape(n, width)
    else:
        out = agg.mean(axis=0)
    out += bias.data

    def grad_fn(g):
        if head_mode == "concat":
            g_agg = g.reshape(n, heads, f).transpose(1, 0, 2)
        else:
            g_agg = np.broadcast_to(g / heads, (heads, n, f))
        # one (H, C, C) buffer turns from d/d alpha into d/d logits, then
        # d/d pre-activation
        g_pre = g_agg @ z.transpose(0, 2, 1)
        g_pre *= alpha
        g_pre -= alpha * g_pre.sum(axis=-1, keepdims=True)
        g_logit_bias = g_pre.sum(axis=0) if logit_bias.requires_grad else None
        np.multiply(g_pre, slope, out=g_pre, where=~positive)
        g_dst = g_pre.sum(axis=2, keepdims=True)
        g_src = g_pre.sum(axis=1)[:, :, None]
        g_h = g_weight = None
        if h.requires_grad or weight.requires_grad:
            g_z = alpha.transpose(0, 2, 1) @ g_agg
            g_z += g_src * att_src.data[:, None, :]
            g_z += g_dst * att_dst.data[:, None, :]
            g_hw = g_z.transpose(1, 0, 2).reshape(n, heads * f)
            g_h = g_hw @ wd.T if h.requires_grad else None
            g_weight = hd.T @ g_hw if weight.requires_grad else None
        zt = z.transpose(0, 2, 1)
        return (g_h, g_weight,
                (zt @ g_dst)[:, :, 0] if att_dst.requires_grad else None,
                (zt @ g_src)[:, :, 0] if att_src.requires_grad else None,
                g.sum(axis=0) if bias.requires_grad else None,
                g_logit_bias)

    return _make("graph_attention", out,
                 (h, weight, att_dst, att_src, bias, logit_bias), grad_fn)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    shape = x.data.shape
    if idx.size and (idx.min() < 0 or idx.max() >= shape[0]):
        raise ShapeError("gather_rows index out of range")

    def grad_fn(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return _make("gather_rows", x.data[idx], (x,), grad_fn)


# ---------------------------------------------------------------------------
# reverse pass

def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Accumulate gradients of a scalar loss for every leaf on the tape.

    Returns a map from each requires_grad leaf tensor to its gradient array.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    if loss.is_leaf and loss.requires_grad:
        leaves[id(loss)] = loss
    for rec in reversed(tape.ops):
        g_out = grads.pop(id(rec.out), None)
        if g_out is None:
            continue
        for t, g in zip(rec.inputs, rec.grad_fn(g_out)):
            if g is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = np.asarray(g, dtype=np.float64)
            if t.is_leaf:
                leaves[key] = t
    return {t: grads[key] for key, t in leaves.items()}
