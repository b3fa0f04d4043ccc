"""Minimal dense float64 tensors with tape-based reverse-mode differentiation.

Just enough machinery for dense masked graph attention: batched matrix
products, broadcasting elementwise arithmetic, transposes, a softmax over the
last axis restricted to a boolean mask, and a row gather. Everything is
float64 and every op validates that its output is finite.
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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape))
                 if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with np.matmul semantics: leading dims broadcast."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul shapes {ad.shape} x {bd.shape}")
    try:
        out = ad @ bd
    except ValueError:
        raise ShapeError(f"matmul shapes {ad.shape} x {bd.shape}") from None

    def grad_fn(g):
        return (_unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape),
                _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    return _make("matmul", out, (a, b), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make("add", a.data + b.data, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make("sub", a.data - b.data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data

    def grad_fn(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _make("mul", ad * bd, (a, b), grad_fn)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _make("scale", x.data * c, (x,), grad_fn)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.data.shape

    def grad_fn(g):
        return (g.reshape(old),)

    return _make("reshape", x.data.reshape(shape), (x,), grad_fn)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def grad_fn(g):
        return (g.transpose(inverse),)

    return _make("transpose", x.data.transpose(axes), (x,), grad_fn)


# ---------------------------------------------------------------------------
# reductions

def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def grad_fn(g):
        return (np.full(shape, float(g)),)

    return _make("sum_all", np.asarray(x.data.sum()), (x,), grad_fn)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    shape = x.data.shape
    n = shape[axis]

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape) / n,)

    return _make("mean_axis", x.data.mean(axis=axis), (x,), grad_fn)


# ---------------------------------------------------------------------------
# nonlinearities

def relu(x: Tensor) -> Tensor:
    xd = x.data

    def grad_fn(g):
        return (g * (xd > 0),)

    return _make("relu", np.maximum(xd, 0.0), (x,), grad_fn)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    xd = x.data
    out = slope * xd
    np.copyto(out, xd, where=xd > 0)

    def grad_fn(g):
        return (g * np.where(xd > 0, 1.0, slope),)

    return _make("leaky_relu", out, (x,), grad_fn)


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


def log(x: Tensor, floor: float = 0.0) -> Tensor:
    """Natural log; with ``floor`` > 0 the argument is clamped from below.

    Gradient is zero wherever the clamp is active.
    """
    xd = x.data
    if floor > 0:
        clamped = np.maximum(xd, floor)

        def grad_fn(g):
            return (np.where(xd >= floor, g / clamped, 0.0),)

        return _make("log", np.log(clamped), (x,), grad_fn)

    def grad_fn(g):
        return (g / xd,)

    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(xd)
    return _make("log", out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# attention normalisation and row indexing

def masked_softmax(x: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis among the entries where the boolean
    ``mask`` (broadcast against ``x``) is set; every row needs one. Masked-out
    entries are exactly 0 with zero gradient. Rows are shifted by their largest
    unmasked value; one buffer of ``x``'s shape holds shift, exp and sums."""
    mask = np.asarray(mask, dtype=bool)
    xd = x.data
    try:
        full = np.broadcast_to(mask, xd.shape)
    except ValueError:
        raise ShapeError(f"masked_softmax mask {mask.shape} does not "
                         f"broadcast to {xd.shape}") from None
    if xd.ndim == 0 or not full.any(axis=-1).all():
        raise ShapeError("masked_softmax needs a set mask entry in every row")
    y = xd - np.max(xd, axis=-1, keepdims=True, where=full, initial=-np.inf)
    np.exp(y, out=y, where=full)
    np.copyto(y, 0.0, where=~mask)
    y /= y.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        t = g * y
        return (t - y * t.sum(axis=-1, keepdims=True),)

    return _make("masked_softmax", y, (x,), grad_fn)


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
