"""Finite-difference gradient checking shared by unit and acceptance tests."""
from __future__ import annotations

import math

import numpy as np

import rssigat.tensor_core as tc
from rssigat.gat_model import (GatLayerConfig, GatModel, _param_table,
                               model_forward, prepare_graph)
from rssigat.mtf_graph import TsGraph, transform
from rssigat.trace import RssiTrace, TraceSchema
from rssigat.train import ClassWeights, bce_targets, loss_and_grads
from oracles import finite_difference_grad, graph_attention_reference, max_rel_err

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
    each op, every input of each op in at least one case."""
    checks = []

    def rand(*shape):
        return rng.standard_normal(shape)

    # the head's row gather repeats rows in random order
    head = (rand(4, 3), rand(3, 1), rand(1), rng.integers(0, 4, size=7))
    r = rand(7, 1)
    checks += [projected(tc.output_head, head, leaf, r) for leaf in range(3)]

    # central differences at FD_STEP are off by about FD_STEP**2 / (3 p**2)
    # relative to the gradient of ln p, within REL_TOL only from p = 0.1 on
    probs = rng.uniform(0.1, 0.9, size=(6, 1))
    pos, neg = rng.uniform(0.5, 2.0, size=(2, 6, 1))
    rs = rand()
    checks.append(projected(tc.binary_cross_entropy, (probs, pos, neg), 0, rs))

    checks += block_cases(rng, 4, 3, 2, 3, "concat", BLOCK_INPUTS)
    checks += block_cases(rng, 4, 1, 3, 2, "average",
                          ("h", "weight", "bias", "skip_weight"))
    checks += block_cases(rng, 1, 2, 2, 2, "concat", ("h", "weight", "skip_bias"))
    # the same op over the edge list of a sparse graph
    checks += block_cases(rng, 6, 3, 2, 3, "concat", BLOCK_INPUTS, True)
    checks += block_cases(rng, 6, 2, 3, 2, "average", BLOCK_INPUTS[:3], True)
    return checks


def attention_preactivation(h, weight, att) -> np.ndarray:
    """The LeakyReLU inputs s_dst[i] + s_src[j] of ``tc.attention_block``,
    shape (heads, dst, src), the scores of both directions from one
    product, as in the op."""
    _, heads, f = att.shape
    z = (h @ weight).reshape(len(h), heads, f).transpose(1, 0, 2)
    s = z @ att.transpose(1, 2, 0)
    return s[:, :, 1:] + s[:, None, :, 0]


def relu_input(h, weight, att, bias, skip_weight, skip_bias, logit_bias,
               slope, head_mode) -> np.ndarray:
    """The ReLU input of ``tc.attention_block``, attention plus skip, by the
    reference ops."""
    gat = graph_attention_reference(h, weight, att, bias, logit_bias, slope,
                                    head_mode)[0]
    return gat + (h @ skip_weight + skip_bias)


BLOCK_INPUTS = ("h", "weight", "att", "bias", "skip_weight", "skip_bias")


def block_cases(rng, n, d, heads, f, head_mode, leaves,
                edge_list=False) -> list:
    """(loss_and_grad, leaf) pairs for one ``attention_block`` op on ``n``
    rows of width ``d``, one per input named in ``leaves``. The logit bias is
    -inf off a random edge set that leaves out one entry when ``n`` > 1, or
    with ``edge_list`` the op takes the ``edges`` of ``sparse_graph``;
    inputs are redrawn until every LeakyReLU and ReLU input is at least 0.05
    from its kink."""
    if edge_list:
        graph = sparse_graph(rng, n)
        logit_bias, op_bias = graph.logit_bias, graph.edges
    else:
        edges = rng.random((n, n)) < 0.5
        np.fill_diagonal(edges, True)
        if n > 1:
            edges[0, n - 1] = False
        logit_bias = np.where(edges, rng.standard_normal((n, n)), -np.inf)
        op_bias = logit_bias
    width = heads * f if head_mode == "concat" else f
    while True:
        args = (rng.standard_normal((n, d)),
                rng.standard_normal((d, heads * f)),
                rng.standard_normal((2, heads, f)),
                rng.standard_normal(width),
                rng.standard_normal((d, width)),
                rng.standard_normal(width),
                logit_bias, 0.2, head_mode)
        if (np.abs(attention_preactivation(*args[:3])).min() >= 0.05
                and np.abs(relu_input(*args)).min() >= 0.05):
            break
    r = rng.standard_normal((n, width))
    args = (*args[:6], op_bias, *args[7:])
    return [projected(tc.attention_block, args, BLOCK_INPUTS.index(name), r)
            for name in leaves]


def sparse_graph(rng, n) -> TsGraph:
    """A graph of ``n`` rows of 1-3 nodes each, every row with one or two
    random out-edges, so most of its bias is -inf."""
    weights = np.zeros((n, n))
    for row in range(n):
        cols = rng.choice(n, size=min(n, rng.integers(1, 3)), replace=False)
        weights[row, cols] = rng.uniform(0.2, 1.0)
    node_map = np.repeat(np.arange(n), rng.integers(1, 4, size=n))
    return TsGraph(rng.uniform(size=n), node_map, weights)


def zero_model(configs, seed: int = 0) -> GatModel:
    """A model of the given layers with every parameter 0."""
    size = sum(math.prod(shape) for _, shape, _ in _param_table(configs))
    return GatModel(configs, np.zeros(size), seed)


# three blocks of two heads of two dims, as build_model's but at toy width
TOY_LAYERS = (GatLayerConfig(1, 2, 2), GatLayerConfig(4, 2, 2),
              GatLayerConfig(4, 2, 2, "average"))


def small_random_model(rng):
    """Three attention blocks at toy width, every parameter randomized so
    pre-activations spread away from the ReLU kinks."""
    model = zero_model(TOY_LAYERS)
    for p in model.params.values():
        p[...] = rng.standard_normal(p.shape)
    return model


def sample_is_smooth(prep, model, probs, margin: float = 0.01) -> bool:
    """Central differences need a kink-free neighborhood: no ReLU input near
    zero, no LeakyReLU input near zero on an edge, where ``prep.logit_bias``
    is finite (the -inf entries cannot reach the loss), no sigmoid output
    near the log clamp. Each block's inputs come from the reference ops."""
    if probs.min() < 1e-9 or probs.max() > 1 - 1e-9:
        return False
    h = prep.rows
    edges = np.isfinite(prep.logit_bias)
    for cfg, params in zip(model.layer_configs, model.params.blocks):
        pre = attention_preactivation(h, *params[:2])
        total = relu_input(h, *params, prep.logit_bias, cfg.leaky_slope,
                           cfg.head_mode)
        if min(np.abs(pre[:, edges]).min(), np.abs(total).min()) < margin:
            return False
        h = np.maximum(total, 0.0)
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
