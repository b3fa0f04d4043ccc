"""Independent reference implementations used as test oracles.

Everything here is deliberately written with explicit loops and dense
matrices, sharing no code with the package under test. ``mtf_oracle`` bins
by quantiles (linear interpolation between order statistics), as the
Markov transition field is defined; the package counts transitions between
value classes, which are those bins at one bin per sample.

The ``*_reference`` functions at the end are the opposite: earlier numpy
formulations of package ops, kept op for op, so a leaner rewrite can be
checked bit for bit against them. ``attention_block_two_products`` keeps
the block's earlier score products around the op's own softmax, so a test
can hold the one-product form to it within rounding.
"""
from __future__ import annotations

import math

import numpy as np

import rssigat.tensor_core as tc


def mtf_oracle(samples, rssi_min: float, rssi_max: float, n_bins: int):
    """Brute-force series-to-graph pipeline: normalize, quantile-bin, count
    transitions, expand to the N x N field, list positive entries as edges.

    Returns (bins, n_effective_bins, W, M, edges) with plain Python floats.
    """
    feats = [(float(s) - rssi_min) / (rssi_max - rssi_min) for s in samples]
    n = len(feats)
    srt = sorted(feats)
    candidates = []
    for k in range(1, n_bins):
        h = (k / n_bins) * (n - 1)
        lo = math.floor(h)
        hi = min(lo + 1, n - 1)
        candidates.append(srt[lo] + (h - lo) * (srt[hi] - srt[lo]))
    edges: list[float] = []
    for e in candidates:
        if e not in edges:
            edges.append(e)

    def bin_of(value, cuts):
        return sum(1 for c in cuts if c < value)

    raw = [bin_of(v, edges) for v in feats]
    occupied = sorted(set(raw))
    cuts = [edges[o - 1] for o in occupied[1:]]
    bins = [bin_of(v, cuts) for v in feats]
    q = len(occupied)
    counts = [[0] * q for _ in range(q)]
    for t in range(n - 1):
        counts[bins[t]][bins[t + 1]] += 1
    w = [[0.0] * q for _ in range(q)]
    for i in range(q):
        total = sum(counts[i])
        if total == 0:
            w[i][i] = 1.0
        else:
            for j in range(q):
                w[i][j] = counts[i][j] / total
    m = [[w[bins[a]][bins[b]] for b in range(n)] for a in range(n)]
    graph_edges = []
    for a in range(n):
        for b in range(n):
            if m[a][b] > 0:
                graph_edges.append((a, b, m[a][b]))
    return bins, q, w, m, graph_edges


def finite_difference_grad(loss_fn, data: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar function, perturbing ``data``
    (a live array the loss reads) one element at a time."""
    grad = np.zeros_like(data)
    flat = data.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        f_plus = loss_fn()
        flat[i] = original - step
        f_minus = loss_fn()
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2 * step)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise error relative to max(|a|, |b|, 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def dense_gat_oracle(features: np.ndarray, n_nodes: int, edges, cfg,
                     weight: np.ndarray, att_src: np.ndarray,
                     att_dst: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Attention layer materializing the full destination-by-source matrix.

    ``edges`` is an iterable of (src, dst, weight); nodes without a self edge
    attend to themselves with weight 1.
    """
    f = cfg.out_dim_per_head
    head_outputs = []
    edge_list = list(edges)
    has_self = {a for a, b, _ in edge_list if a == b}
    for h in range(cfg.n_heads):
        wh = weight[:, h * f:(h + 1) * f]
        z = features @ wh
        logits = np.full((n_nodes, n_nodes), -np.inf)
        for a, b, w in edge_list:
            raw = att_src[h] @ z[a] + att_dst[h] @ z[b]
            raw = raw if raw > 0 else cfg.leaky_slope * raw
            logits[b, a] = raw + math.log(w)
        for b in range(n_nodes):
            if b not in has_self:
                raw = att_src[h] @ z[b] + att_dst[h] @ z[b]
                raw = raw if raw > 0 else cfg.leaky_slope * raw
                logits[b, b] = raw
        alpha = np.zeros_like(logits)
        for b in range(n_nodes):
            row = logits[b]
            mask = np.isfinite(row)
            shifted = np.exp(row[mask] - row[mask].max())
            alpha[b, mask] = shifted / shifted.sum()
        head_outputs.append(alpha @ z)
    if cfg.head_mode == "concat":
        out = np.concatenate(head_outputs, axis=1)
    else:
        out = np.mean(head_outputs, axis=0)
    return out + bias


def attention_block_oracle(h: np.ndarray, mask: np.ndarray,
                           logit_bias: np.ndarray, cfg, weight: np.ndarray,
                           att_src: np.ndarray, att_dst: np.ndarray,
                           bias: np.ndarray) -> np.ndarray:
    """Dense masked attention over C rows, one destination row at a time.

    Row i attends to the sources j with ``mask[i, j]`` set; their logit is
    LeakyReLU(att_dst . z_i + att_src . z_j) + ``logit_bias[i, j]``.
    """
    f = cfg.out_dim_per_head
    head_outputs = []
    for k in range(cfg.n_heads):
        z = h @ weight[:, k * f:(k + 1) * f]
        out = np.zeros((len(h), f))
        for i in range(len(h)):
            src = np.flatnonzero(mask[i])
            raw = z[src] @ att_src[k] + z[i] @ att_dst[k]
            logits = np.where(raw > 0, raw, cfg.leaky_slope * raw) + logit_bias[i, src]
            e = np.exp(logits - logits.max())
            out[i] = (e / e.sum()) @ z[src]
        head_outputs.append(out)
    if cfg.head_mode == "concat":
        out = np.concatenate(head_outputs, axis=1)
    else:
        out = np.mean(head_outputs, axis=0)
    return out + bias


def model_forward_oracle(row_features: np.ndarray, node_map: np.ndarray,
                         mask: np.ndarray, logit_bias: np.ndarray, configs,
                         params: dict) -> np.ndarray:
    """Per-node probabilities of the three-block model from plain arrays:
    ``params`` maps the model's tensor names to numpy arrays."""
    h = row_features
    for k, cfg in enumerate(configs, start=1):
        gat = attention_block_oracle(h, mask, logit_bias, cfg,
                                     params[f"gat{k}.weight"],
                                     params[f"gat{k}.att_src"],
                                     params[f"gat{k}.att_dst"],
                                     params[f"gat{k}.bias"])
        skip = h @ params[f"skip{k}.weight"] + params[f"skip{k}.bias"]
        h = np.maximum(gat + skip, 0.0)
    logits = h @ params["out.weight"] + params["out.bias"]
    return np.exp(-np.logaddexp(0.0, -logits))[node_map]


def sample_text(value: float) -> str:
    """An RSSI sample as trace files and raw logs print it: an integral value
    as an integer, any other as its shortest round-tripping repr."""
    return str(int(value)) if value.is_integer() else repr(value)


def traces_csv_reference(traces) -> str:
    """The text ``trace.write_traces_csv`` writes, one row per sample."""
    rows = ["link_id,idx,rssi\n"]
    for trace in traces:
        for i, value in enumerate(trace.samples.tolist()):
            rows.append(f"{trace.link_id},{i},{sample_text(value)}\n")
    return "".join(rows)


def write_raw_logs(logs) -> str:
    """Raw link logs as text in the format ``trace.ingest_raw_log`` reads,
    from ``(link_id, noise, records)`` tuples of ``(seq, rssi)`` records."""
    out = []
    for link_id, noise, records in logs:
        out.append(f"# link {link_id} noise={noise}")
        for seq, rssi in records:
            out.append(f"{seq},{sample_text(float(rssi))}")
    return "\n".join(out) + "\n"


def complete_links_reference(logs, expected_length: int):
    """``(link_id, samples)`` of each ``(link_id, noise, records)`` link whose
    sequence numbers form a gap-free run of ``expected_length``, by a scan of
    every step."""
    kept = []
    for link_id, _, records in logs:
        if len(records) != expected_length:
            continue
        seqs = np.array([seq for seq, _ in records], dtype=np.int64)
        if np.any(np.diff(seqs) != 1):
            continue
        kept.append((link_id, np.array([rssi for _, rssi in records],
                                       dtype=np.float64)))
    return kept


# ---------------------------------------------------------------------------
# earlier formulations, for bitwise checks of their rewrites

def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, each
    side picked out by boolean indexing."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def graph_attention_reference(h, weight, att, bias, logit_bias, slope,
                              head_mode):
    """The attention part of ``tc.attention_block``, as ``(out, back)``, with
    ``back(g)`` the gradients of (h, weight, att, bias); with average-mode
    heads as ``agg.mean(axis=0)``, their gradient through
    ``np.broadcast_to`` and two LeakyReLU masks taken as ``logits > 0``.
    The scores of both directions come from one product, as in the op, and
    so do their gradients and their share of the gradient at z."""
    _, heads, f = att.shape
    n = h.shape[0]
    z = np.ascontiguousarray((h @ weight).reshape(n, heads, f).transpose(1, 0, 2))
    s = z @ att.transpose(1, 2, 0)
    logits = s[:, :, 1:] + s[:, :, 0].reshape(heads, 1, n)
    positive = logits > 0
    np.multiply(logits, slope, out=logits, where=~positive)
    logits += logit_bias
    logits -= logits.max(axis=-1, keepdims=True)
    alpha = np.exp(logits, out=logits)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    agg = alpha @ z
    if head_mode == "concat":
        out = agg.transpose(1, 0, 2).reshape(n, heads * f)
    else:
        out = agg.mean(axis=0)
    out += bias

    def back(g):
        if head_mode == "concat":
            g_agg = g.reshape(n, heads, f).transpose(1, 0, 2)
        else:
            g_agg = np.broadcast_to(g / heads, (heads, n, f))
        g_pre = g_agg @ z.transpose(0, 2, 1)
        g_pre *= alpha
        g_pre -= alpha * g_pre.sum(axis=-1, keepdims=True)
        np.multiply(g_pre, slope, out=g_pre, where=~positive)
        g_s = np.concatenate([g_pre.sum(axis=1)[:, :, None],
                              g_pre.sum(axis=2, keepdims=True)], axis=2)
        g_z = alpha.transpose(0, 2, 1) @ g_agg
        g_z += g_s @ att.transpose(1, 0, 2)
        g_hw = g_z.transpose(1, 0, 2).reshape(n, heads * f)
        return (g_hw @ weight.T, h.T @ g_hw,
                (g_s.transpose(0, 2, 1) @ z).transpose(1, 0, 2), g.sum(axis=0))

    return out, back


def attention_block_reference(h, weight, att, bias, skip_weight, skip_bias,
                              logit_bias, slope, head_mode):
    """``tc.attention_block`` composed op by op, as the model ran it before
    the block was one op: the attention of ``graph_attention_reference``, the
    skip as ``h @ w + b``, their sum and ReLU. ``back(g)`` returns the
    gradients of the block's six inputs, that of ``h`` the skip's part
    plus the attention's."""
    gat, gat_back = graph_attention_reference(h, weight, att, bias,
                                              logit_bias, slope, head_mode)
    total = gat + (h @ skip_weight + skip_bias)

    def back(g):
        g = g * (total > 0)
        g_skip = g @ skip_weight.T
        g_h, *g_attention = gat_back(g)
        return (g_skip + g_h, *g_attention, h.T @ g, g.sum(axis=0))

    return np.maximum(total, 0.0), back


def attention_block_two_products(h, weight, att, bias, skip_weight,
                                 skip_bias, logit_bias, slope, head_mode):
    """``tc.attention_block`` as it was before one product gave the scores
    of both directions: ``z @ att_dst`` and ``z @ att_src`` apart, their
    gradients by two products and their shares of the gradient at z by two
    broadcast products. The softmax and its backward are the op's own
    (``tc._dense_alpha`` or, for an edge list, ``tc._edge_alpha``). ``back(g)``
    returns the gradients of the block's six inputs."""
    _, heads, f = att.shape
    att_src, att_dst = att
    n = h.shape[0]
    z = np.ascontiguousarray((h @ weight).reshape(n, heads, f).transpose(1, 0, 2))
    s = np.concatenate([z @ att_src.reshape(heads, f, 1),
                        z @ att_dst.reshape(heads, f, 1)], axis=2)
    alpha_of = (tc._dense_alpha if isinstance(logit_bias, np.ndarray)
                else tc._edge_alpha)
    alpha, alpha_back = alpha_of(s, logit_bias, slope)
    agg = alpha @ z
    if head_mode == "concat":
        gat = agg.transpose(1, 0, 2).reshape(n, heads * f)
    else:
        gat = np.add.reduce(agg, axis=0) / heads
    total = gat + bias + (h @ skip_weight + skip_bias)

    def back(g):
        g = g * (total > 0)
        if head_mode == "concat":
            g_agg = g.reshape(n, heads, f).transpose(1, 0, 2)
        else:
            g_agg = (g / heads)[None]
        zt = z.transpose(0, 2, 1)
        g_s = alpha_back(g_agg @ zt)
        g_src, g_dst = g_s[:, :, :1], g_s[:, :, 1:]
        g_z = alpha.transpose(0, 2, 1) @ g_agg
        g_z += g_src * att_src[:, None, :]
        g_z += g_dst * att_dst[:, None, :]
        g_hw = g_z.transpose(1, 0, 2).reshape(n, heads * f)
        g_att = np.stack([(zt @ g_src)[:, :, 0], (zt @ g_dst)[:, :, 0]])
        return (g @ skip_weight.T + g_hw @ weight.T, h.T @ g_hw, g_att,
                g.sum(axis=0), h.T @ g, g.sum(axis=0))

    return np.maximum(total, 0.0), back


def output_head_reference(h, weight, bias, node_map):
    """``tc.output_head`` composed op by op: a linear map, the indexed
    sigmoid of ``sigmoid_reference`` and the row gather, whose gradient
    adds each node's into its row in a loop. ``back(g)`` returns the
    gradients of (h, weight, bias)."""
    probs = sigmoid_reference(h @ weight + bias)

    def back(g):
        g_probs = np.zeros(probs.shape)
        for node, row in enumerate(node_map):
            g_probs[row] += g[node]
        g = g_probs * probs * (1.0 - probs)
        return g @ weight.T, h.T @ g, g.sum(axis=0)

    return probs[node_map], back


def model_reference(prep, model, block=attention_block_reference,
                    logit_bias=None):
    """``gat_model.model_forward`` composed block by block from the
    references above, each parameter looked up by name and each block's
    ``att`` stacked from ``att_src`` and ``att_dst``: ``(probabilities,
    backward)``, where ``backward(g)`` returns the gradient of every
    parameter by name, as ``model_backward`` writes them. ``block`` is the
    block reference, and ``logit_bias`` the bias it takes, by default
    ``prep.logit_bias``."""
    logit_bias = prep.logit_bias if logit_bias is None else logit_bias
    h, backs = prep.rows, []
    for k, cfg in enumerate(model.layer_configs, start=1):
        att = np.stack([model.params[f"gat{k}.att_src"],
                        model.params[f"gat{k}.att_dst"]])
        h, back = block(h, model.params[f"gat{k}.weight"], att,
                        model.params[f"gat{k}.bias"],
                        model.params[f"skip{k}.weight"],
                        model.params[f"skip{k}.bias"], logit_bias,
                        cfg.leaky_slope, cfg.head_mode)
        backs.append((k, back))
    data, head_back = output_head_reference(
        h, model.params["out.weight"], model.params["out.bias"], prep.node_map)

    def backward(g):
        g, *grads = head_back(g)
        named = dict(zip(("out.weight", "out.bias"), grads))
        for k, back in reversed(backs):
            g, g_weight, g_att, g_bias, g_skip_weight, g_skip_bias = back(g)
            named.update({f"gat{k}.weight": g_weight,
                          f"gat{k}.att_src": g_att[0],
                          f"gat{k}.att_dst": g_att[1],
                          f"gat{k}.bias": g_bias,
                          f"skip{k}.weight": g_skip_weight,
                          f"skip{k}.bias": g_skip_bias})
        return named

    return data, backward


def no_outgoing_step_mask(counts: np.ndarray) -> np.ndarray:
    """The C x C mask of the diagonal entries of the rows of a transition
    count matrix that hold no step."""
    return np.diag(counts.sum(axis=1) == 0)


def bce_targets_reference(labels, shape, w_anomalous: float, w_normal: float):
    """Class-weighted BCE targets (pos, neg) of ``labels``, reshaped to the
    probabilities' ``shape`` as they were on every training step."""
    y = np.asarray(labels, dtype=np.float64).reshape(shape)
    return w_anomalous * y, w_normal * (1.0 - y)


def class_graph_reference(samples, rssi_min: float, rssi_max: float) -> dict:
    """The class graph as ``transform`` and ``TsGraph`` built it with
    ``np.unique(..., return_inverse=True)``: row features, node map, the
    bincount weights, the logit bias of ``np.log(weights.T)`` with its
    diagonal fixed by ``np.fill_diagonal``, and the seven fields of the
    edge list read off that bias, in ``EdgeList`` order."""
    x = (np.asarray(samples, dtype=np.float64) - rssi_min) / (rssi_max - rssi_min)
    values, node_map = np.unique(x, return_inverse=True)
    c = values.size
    counts = np.bincount(node_map[:-1] * c + node_map[1:],
                         minlength=c * c).reshape(c, c)
    last = node_map[-1]
    if not counts[last].any():
        counts[last, last] = 1
    weights = counts / counts.sum(axis=1, keepdims=True)
    row_sizes = np.bincount(node_map, minlength=c)
    with np.errstate(divide="ignore"):
        bias = np.log(weights.T) + np.log(row_sizes)
    loops = np.diagonal(bias)
    np.fill_diagonal(bias, np.where(loops == -np.inf, 0.0, loops))

    def run_starts(run_lengths):
        starts = np.zeros_like(run_lengths)
        np.cumsum(run_lengths[:-1], out=starts[1:])
        return starts

    dst, src = np.nonzero(bias > -np.inf)
    edges = (dst, src, bias[dst, src], dst * c + src,
             run_starts(np.bincount(dst, minlength=c)),
             np.argsort(src, kind="stable"),
             run_starts(np.bincount(src, minlength=c)))
    return {"row_features": values, "node_map": node_map, "weights": weights,
            "logit_bias": bias, "edges": edges}
