"""Finite-difference gradient checking shared by unit and acceptance tests."""
from __future__ import annotations

import numpy as np

import rssigat.tensor_core as tc
from rssigat.gat_model import build_model, model_forward, prepare_graph
from rssigat.mtf_graph import transform
from rssigat.trace import RssiTrace, TraceSchema
from rssigat.train import ClassWeights, bce_targets, loss_and_grads
from oracles import finite_difference_grad, max_rel_err

REL_TOL = 1e-4
FD_STEP = 1e-3


def check_case(loss_and_grad, leaf: np.ndarray) -> None:
    """``loss_and_grad()`` gives a scalar loss and its gradient at ``leaf``
    by an op's ``back``; ``leaf`` is perturbed in place for the numeric one."""
    _, grad = loss_and_grad()
    numeric = finite_difference_grad(lambda: loss_and_grad()[0], leaf,
                                     step=FD_STEP)
    err = max_rel_err(grad, numeric)
    assert err < REL_TOL, f"gradient mismatch: rel err {err:.2e}"


def projected(op, args, leaf: int, r):
    """(loss_and_grad, leaf array) for the loss sum(r * op(*args)[0]), whose
    gradient at the op's output is ``r``. ``leaf`` indexes ``args`` and, for
    an op with several inputs, the tuple its ``back`` returns."""
    def loss_and_grad():
        out, back = op(*args)
        grads = back(r)
        return (float(np.sum(out * r)),
                grads[leaf] if isinstance(grads, tuple) else grads)

    return loss_and_grad, args[leaf]


def primitive_cases(rng) -> list:
    """One randomized (loss_and_grad, leaf) pair per differentiable input of
    each op."""
    checks = []

    def rand(*shape):
        return rng.standard_normal(shape)

    x = rand(4, 3)
    r = rand(4, 3)
    y = rand(4, 3)

    near = rand(4, 3)
    away = np.where(np.abs(near) < 0.1, 0.5, near)
    checks.append(projected(tc.relu, (away,), 0, r))
    checks.append(projected(tc.sigmoid, (x,), 0, r))

    idx = rng.integers(0, 4, size=7)
    rg = rand(7, 3)
    checks.append(projected(tc.gather_rows, (x, idx), 0, rg))

    r2 = rand(4, 5)
    w = rand(3, 5)
    wb = rand(5)
    checks.append(projected(tc.linear, (y, w, wb), 1, r2))
    checks.append(projected(tc.linear, (x, w, wb), 0, r2))
    checks.append(projected(tc.linear, (x, w, wb), 2, r2))

    # central differences at FD_STEP are off by about FD_STEP**2 / (3 p**2)
    # relative to the gradient of ln p, within REL_TOL only from p = 0.1 on
    probs = rng.uniform(0.1, 0.9, size=(6, 1))
    pos, neg = rng.uniform(0.5, 2.0, size=(2, 6, 1))
    rs = rand()
    checks.append(projected(tc.binary_cross_entropy, (probs, pos, neg), 0, rs))

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


ATTENTION_INPUTS = ("h", "weight", "att_dst", "att_src", "bias", "logit_bias")


def attention_cases(rng, n, d, heads, f, head_mode, leaves) -> list:
    """(loss_and_grad, leaf) pairs for one ``graph_attention`` op on ``n``
    rows of width ``d``, one per input named in ``leaves``. The logit bias is
    -inf off a random edge set that leaves out one entry when ``n`` > 1;
    inputs are redrawn until every LeakyReLU input is at least 0.05 from the
    kink."""
    edges = rng.random((n, n)) < 0.5
    np.fill_diagonal(edges, True)
    if n > 1:
        edges[0, n - 1] = False
    while True:
        h, weight, att_dst, att_src = (rng.standard_normal((n, d)),
                                       rng.standard_normal((d, heads * f)),
                                       rng.standard_normal((heads, f)),
                                       rng.standard_normal((heads, f)))
        if np.abs(attention_preactivation(h, weight, att_dst, att_src)).min() >= 0.05:
            break
    width = heads * f if head_mode == "concat" else f
    args = (h, weight, att_dst, att_src, rng.standard_normal(width),
            np.where(edges, rng.standard_normal((n, n)), -np.inf), 0.2,
            head_mode)
    r = rng.standard_normal((n, width))
    return [projected(tc.graph_attention, args, ATTENTION_INPUTS.index(name), r)
            for name in leaves]


def small_random_model(rng):
    """Three attention blocks at toy width, every parameter randomized so
    pre-activations spread away from the ReLU kinks."""
    model = build_model(seed=0, filters=2, heads=(2, 2, 2))
    for p in model.params.values():
        p[...] = rng.standard_normal(p.shape)
    return model


def sample_is_smooth(prep, model, probs, margin: float = 0.01) -> bool:
    """Central differences need a kink-free neighborhood: no ReLU input near
    zero, no LeakyReLU input near zero on an edge, where ``prep.logit_bias``
    is finite (the -inf entries cannot reach the loss), no sigmoid output
    near the log clamp. Each block's inputs come from re-running the ops."""
    if probs.min() < 1e-9 or probs.max() > 1 - 1e-9:
        return False
    h = prep.row_features
    edges = np.isfinite(prep.logit_bias)
    for k, cfg in enumerate(model.layer_configs, start=1):
        p = {name: model.params[f"gat{k}.{name}"]
             for name in ("weight", "att_dst", "att_src", "bias")}
        pre = attention_preactivation(h, p["weight"], p["att_dst"], p["att_src"])
        gat = tc.graph_attention(h, p["weight"], p["att_dst"], p["att_src"],
                                 p["bias"], prep.logit_bias,
                                 cfg.leaky_slope, cfg.head_mode)[0]
        skip = tc.linear(h, model.params[f"skip{k}.weight"],
                         model.params[f"skip{k}.bias"])[0]
        relu_input = gat + skip
        if min(np.abs(pre[:, edges]).min(), np.abs(relu_input).min()) < margin:
            return False
        h = np.maximum(relu_input, 0.0)
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
        targets = bce_targets(rng.integers(0, 2, size=n), ClassWeights(1.3, 0.8))

        def loss_fn():
            return loss_and_grads(prep, targets, model)[0]

        _, grads = loss_and_grads(prep, targets, model)
        if not sample_is_smooth(prep, model, model_forward(prep, model).data):
            continue
        for name, p in model.params.items():
            numeric = finite_difference_grad(loss_fn, p, step=FD_STEP)
            err = max_rel_err(grads[name], numeric)
            assert err < REL_TOL, f"{name}: rel err {err:.2e}"
        passed += 1
    return attempt
