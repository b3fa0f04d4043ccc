"""Independent reference implementations used as test oracles.

Everything here is deliberately written with explicit loops and dense
matrices, sharing no code with the package under test. ``mtf_oracle`` bins
by quantiles (linear interpolation between order statistics), as the
Markov transition field is defined; the package counts transitions between
value classes, which are those bins at one bin per sample.
"""
from __future__ import annotations

import math

import numpy as np


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


def write_raw_logs(logs) -> str:
    """Raw link logs as text in the format ``trace.ingest_raw_log`` reads."""
    out = []
    for log in logs:
        out.append(f"# link {log.link_id} noise={log.noise_level}")
        for seq, rssi in log.records:
            value = float(rssi)
            out.append(f"{seq},{int(value) if value.is_integer() else repr(value)}")
    return "\n".join(out) + "\n"
