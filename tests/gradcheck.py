"""Finite-difference gradient checking shared by unit and acceptance tests."""
from __future__ import annotations

import numpy as np

import rssigat.tensor_core as tc
from rssigat.gat_model import build_model, model_forward, prepare_graph
from rssigat.mtf_graph import transform
from rssigat.trace import RssiTrace, TraceSchema
from rssigat.train import ClassWeights, weighted_bce
from oracles import finite_difference_grad, max_rel_err

REL_TOL = 1e-4
FD_STEP = 1e-3


def check_case(build_loss, leaf: tc.Tensor) -> None:
    with tc.Tape() as tape:
        loss = build_loss()
        grads = tc.backward(loss, tape)
    numeric = finite_difference_grad(lambda: float(build_loss().data),
                                     leaf.data, step=FD_STEP)
    err = max_rel_err(grads[leaf], numeric)
    assert err < REL_TOL, f"gradient mismatch: rel err {err:.2e}"


def primitive_cases(rng) -> list:
    """One randomized (loss builder, leaf) pair per differentiable primitive."""
    checks = []

    def rand(*shape):
        return rng.standard_normal(shape)

    x = tc.Tensor(rand(4, 3), requires_grad=True)
    r = tc.constant(rand(4, 3))

    def composed(op):
        return lambda: tc.sum_all(tc.mul(op(), r))

    y = tc.constant(rand(4, 3))
    checks.append((composed(lambda: tc.add(x, y)), x))
    checks.append((composed(lambda: tc.mul(x, y)), x))

    near = rand(4, 3)
    away = tc.Tensor(np.where(np.abs(near) < 0.1, 0.5, near), requires_grad=True)
    checks.append((lambda: tc.sum_all(tc.mul(tc.relu(away), r)), away))
    checks.append((composed(lambda: tc.sigmoid(x)), x))

    checks.append((lambda: tc.sum_all(x), x))

    idx = rng.integers(0, 4, size=7)
    rg = tc.constant(rand(7, 3))
    checks.append((lambda: tc.sum_all(tc.mul(tc.gather_rows(x, idx), rg)), x))

    r2 = tc.constant(rand(4, 5))
    w = tc.Tensor(rand(3, 5), requires_grad=True)
    wb = tc.Tensor(rand(5), requires_grad=True)
    checks.append((lambda: tc.sum_all(tc.mul(tc.linear(y, w, wb), r2)), w))
    checks.append((lambda: tc.sum_all(tc.mul(tc.linear(x, w, wb), r2)), x))
    checks.append((lambda: tc.sum_all(tc.mul(tc.linear(x, w, wb), r2)), wb))

    # central differences at FD_STEP are off by about FD_STEP**2 / (3 p**2)
    # relative to the gradient of ln p, within REL_TOL only from p = 0.1 on
    probs = tc.Tensor(rng.uniform(0.1, 0.9, size=(6, 1)), requires_grad=True)
    pos, neg = rng.uniform(0.5, 2.0, size=(2, 6, 1))
    rs = tc.constant(rand())
    checks.append((lambda: tc.sum_all(tc.mul(
        tc.binary_cross_entropy(probs, pos, neg), rs)), probs))

    checks += attention_cases(rng, 4, 3, 2, 3, "concat",
                              ("h", "weight", "att_dst", "att_src", "logit_bias"))
    checks += attention_cases(rng, 4, 1, 3, 2, "average", ("weight", "bias"))
    checks += attention_cases(rng, 1, 2, 2, 2, "concat", ("h", "weight"))
    return checks


def attention_preactivation(h, weight, att_dst, att_src) -> np.ndarray:
    """The LeakyReLU inputs s_dst[i] + s_src[j] of ``tc.graph_attention``,
    shape (heads, dst, src)."""
    heads, f = att_dst.shape
    z = (h @ weight).reshape(len(h), heads, f).transpose(1, 0, 2)
    return z @ att_dst[:, :, None] + (z @ att_src[:, :, None]).transpose(0, 2, 1)


def attention_cases(rng, n, d, heads, f, head_mode, leaves) -> list:
    """(loss builder, leaf) pairs for one ``graph_attention`` op on ``n``
    rows of width ``d``; inputs not in ``leaves`` are constants. The mask
    leaves out one entry when ``n`` > 1; inputs are redrawn until every
    LeakyReLU input is at least 0.05 from the kink."""
    mask = rng.random((n, n)) < 0.5
    np.fill_diagonal(mask, True)
    if n > 1:
        mask[0, n - 1] = False
    while True:
        h, weight, att_dst, att_src = (rng.standard_normal((n, d)),
                                       rng.standard_normal((d, heads * f)),
                                       rng.standard_normal((heads, f)),
                                       rng.standard_normal((heads, f)))
        if np.abs(attention_preactivation(h, weight, att_dst, att_src)).min() >= 0.05:
            break
    width = heads * f if head_mode == "concat" else f
    t = {"h": h, "weight": weight, "att_dst": att_dst, "att_src": att_src,
         "bias": rng.standard_normal(width),
         "logit_bias": rng.standard_normal((n, n))}
    t = {name: tc.Tensor(data, requires_grad=name in leaves)
         for name, data in t.items()}
    r = tc.constant(rng.standard_normal((n, width)))

    def loss():
        out = tc.graph_attention(t["h"], t["weight"], t["att_dst"], t["att_src"],
                                 t["bias"], t["logit_bias"], mask, 0.2, head_mode)
        return tc.sum_all(tc.mul(out, r))

    return [(loss, t[name]) for name in leaves]


def small_random_model(rng):
    """Three attention blocks at toy width, every parameter randomized so
    pre-activations spread away from the ReLU kinks."""
    model = build_model(seed=0, filters=2, heads=(2, 2, 2))
    for p in model.params.values():
        p.data[...] = rng.standard_normal(p.data.shape)
    return model


def sample_is_smooth(tape, probs, mask, margin: float = 0.01) -> bool:
    """Central differences need a kink-free neighborhood: no ReLU input near
    zero, no LeakyReLU input near zero on an entry the boolean ``mask[dst,
    src]`` lets through (masked-out logits cannot reach the loss), no sigmoid
    output near the log clamp."""
    if probs.data.min() < 1e-9 or probs.data.max() > 1 - 1e-9:
        return False
    for rec in tape.ops:
        if rec.name == "relu":
            near = np.abs(rec.inputs[0].data)
        elif rec.name == "graph_attention":
            pre = attention_preactivation(*(t.data for t in rec.inputs[:4]))
            near = np.abs(pre[:, mask])
        else:
            continue
        if near.min() < margin:
            return False
    return True


def run_model_fd_trials(n_trials: int = 20, max_attempts: int = 400) -> int:
    """FD-check the full three-block model on random graphs of <= 8 nodes.

    Kink-adjacent samples are skipped deterministically; returns the number
    of attempts consumed."""
    passed = 0
    attempt = 0
    while passed < n_trials:
        attempt += 1
        assert attempt < max_attempts, "too many kink-adjacent samples rejected"
        rng = np.random.default_rng(9000 + attempt)
        n = int(rng.integers(3, 9))
        trace = RssiTrace("t", rng.integers(0, 128, size=n).astype(float))
        graph = transform(trace, TraceSchema(expected_length=max(2, n)))
        prep = prepare_graph(graph, collapse=bool(attempt % 2))
        model = small_random_model(rng)
        labels = rng.integers(0, 2, size=n)
        weights = ClassWeights(1.3, 0.8)

        def loss_fn():
            return weighted_bce(model_forward(prep, model), labels, weights)

        with tc.Tape() as tape:
            probs = model_forward(prep, model)
            loss = weighted_bce(probs, labels, weights)
            grads = tc.backward(loss, tape)
        if not sample_is_smooth(tape, probs, prep.mask):
            continue
        for name, p in model.params.items():
            numeric = finite_difference_grad(lambda: float(loss_fn().data),
                                             p.data, step=FD_STEP)
            err = max_rel_err(grads[p], numeric)
            assert err < REL_TOL, f"{name}: rel err {err:.2e}"
        passed += 1
    return attempt
