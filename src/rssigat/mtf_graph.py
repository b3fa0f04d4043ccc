"""Time-series to graph transformation via Markov transition fields.

Three steps: quantile-bin the series, estimate the bin-to-bin transition
matrix W from consecutive samples, then keep W's entries between the bins
the series' values fall in. Time steps with equal values have equal rows and
columns in the N x N field M[a, b] = W[bin(a), bin(b)], so ``transform``
builds its value-class graph directly: one row per distinct value, weighted
by the C x C block of W. ``TsGraph.expand`` gives M itself.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .trace import DEFAULT_SCHEMA, RssiTrace, TraceSchema, normalize

# Largest node count for which an N x N field or per-node graph is built.
DENSE_NODE_CAP = 1024
GRAPH_FORMAT = "rssigat-graph-v2"


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class Quantizer:
    """Value-to-bin assignment derived from empirical quantiles.

    ``bin_edges`` are strictly increasing; a value's bin is the number of
    edges strictly below it. Edges that would delimit empty bins on the
    fitted series are collapsed, so ``n_bins`` can be smaller than requested.
    """

    bin_edges: np.ndarray
    n_bins: int

    def assign(self, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.bin_edges, np.asarray(values, dtype=np.float64),
                               side="left").astype(np.int64)


def fit_quantizer(series: np.ndarray, n_bins: int) -> Quantizer:
    """Fit quantile bin edges at k/Q, k = 1..Q-1, on the given series.

    Quantiles use linear interpolation between order statistics:
    h = (k/Q) * (n-1), edge = sorted[floor(h)] + frac * (sorted[floor(h)+1]
    - sorted[floor(h)]). Duplicate edges and edges that separate no samples
    are dropped.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise GraphError("cannot fit a quantizer on an empty series")
    if n_bins < 1:
        raise GraphError("n_bins must be >= 1")
    srt = np.sort(series)
    n = srt.size
    ks = np.arange(1, n_bins)
    h = (ks / n_bins) * (n - 1)
    lo = np.floor(h).astype(np.intp)
    frac = h - lo
    hi = np.minimum(lo + 1, n - 1)
    edges = srt[lo] + frac * (srt[hi] - srt[lo])
    edges = np.unique(edges)
    # drop edges bounding bins no sample falls in
    raw = np.searchsorted(edges, series, side="left")
    occupied = np.unique(raw)
    edges = edges[occupied[1:] - 1] if occupied.size > 1 else edges[:0]
    return Quantizer(bin_edges=edges, n_bins=int(occupied.size))


def transition_matrix(bins: np.ndarray, n_bins: int) -> np.ndarray:
    """Row-stochastic matrix of consecutive-step bin transition frequencies.

    Rows without any observed outgoing transition get a self-transition of 1
    so every row still sums to one.
    """
    bins = np.asarray(bins, dtype=np.int64)
    if bins.size and bins.max() >= n_bins:
        raise GraphError("bin index out of range")
    counts = np.zeros((n_bins, n_bins), dtype=np.float64)
    if bins.size >= 2:
        np.add.at(counts, (bins[:-1], bins[1:]), 1.0)
    totals = counts.sum(axis=1)
    w = np.zeros_like(counts)
    nonzero = totals > 0
    w[nonzero] = counts[nonzero] / totals[nonzero, None]
    for i in np.flatnonzero(~nonzero):
        w[i, i] = 1.0
    return w


@dataclass
class TsGraph:
    """Directed weighted graph between rows; time step t is row node_map[t].

    ``weights`` is C x C for C rows, and ``weights[i, j] > 0`` is the edge
    i -> j: an edge from every node of row i to every node of row j. A
    per-node graph has ``node_map = arange(N)``.
    """

    row_features: np.ndarray
    node_map: np.ndarray
    weights: np.ndarray
    link_id: str | None = None

    @property
    def n_nodes(self) -> int:
        return int(self.node_map.size)

    @property
    def n_rows(self) -> int:
        return int(self.row_features.size)

    @property
    def node_features(self) -> np.ndarray:
        return self.row_features[self.node_map]

    @property
    def row_sizes(self) -> np.ndarray:
        return np.bincount(self.node_map, minlength=self.n_rows)

    # the edge list, in row-major order
    @property
    def edge_src(self) -> np.ndarray:
        return np.nonzero(self.weights)[0]

    @property
    def edge_dst(self) -> np.ndarray:
        return np.nonzero(self.weights)[1]

    @property
    def edge_weights(self) -> np.ndarray:
        return self.weights[np.nonzero(self.weights)]

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.weights))

    def expand(self) -> "TsGraph":
        """The per-node graph, whose weights are the N x N field."""
        if self.n_nodes > DENSE_NODE_CAP:
            raise GraphError(f"per-node graph capped at {DENSE_NODE_CAP} nodes")
        return TsGraph(self.node_features, np.arange(self.n_nodes),
                       self.weights[np.ix_(self.node_map, self.node_map)],
                       self.link_id)

    def validate(self) -> None:
        if self.row_features.ndim != 1 or self.node_map.ndim != 1:
            raise GraphError("row features and node map must be 1-D")
        if self.weights.shape != (self.n_rows, self.n_rows):
            raise GraphError(f"weights must be {self.n_rows} x {self.n_rows}")
        if not np.all(np.isfinite(self.row_features)):
            raise GraphError("row features must be finite")
        if not np.array_equal(np.unique(self.node_map), np.arange(self.n_rows)):
            raise GraphError(f"node map must cover rows 0..{self.n_rows - 1}")
        if not np.all((self.weights >= 0) & np.isfinite(self.weights)):
            raise GraphError("edge weights must be non-negative and finite")


def transform(trace: RssiTrace, schema: TraceSchema = DEFAULT_SCHEMA,
              n_bins: int | None = None) -> TsGraph:
    """Value-class graph of a trace; bin count defaults to the series length.

    Rows are the distinct normalized values in ascending order, and the
    weights are W restricted to the rows' bins. Cost is O(N log N + C^2) for
    C rows.
    """
    features = normalize(trace, schema)
    n = features.size
    q = fit_quantizer(features, n if n_bins is None else n_bins)
    w = transition_matrix(q.assign(features), q.n_bins)
    values, node_map = np.unique(features, return_inverse=True)
    row_bins = q.assign(values)
    return TsGraph(values, node_map, w[np.ix_(row_bins, row_bins)],
                   trace.link_id)


# ---------------------------------------------------------------------------
# serialization: one JSON record per line, weights at 9 significant digits

def graph_to_record(graph: TsGraph) -> dict:
    src, dst = np.nonzero(graph.weights)
    return {
        "format": GRAPH_FORMAT,
        "link_id": graph.link_id,
        "values": graph.row_features.tolist(),
        "node_map": graph.node_map.tolist(),
        "edges": [[s, d, float(f"{w:.9g}")]
                  for s, d, w in zip(src.tolist(), dst.tolist(),
                                     graph.weights[src, dst].tolist())],
    }


def _row_indices(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if np.any(arr % 1):
        raise ValueError("row indices must be integers")
    return arr.astype(np.int64)


def graph_from_record(rec: dict) -> TsGraph:
    """A record back as a ``TsGraph``; the edge triples are checked before
    they are scattered into the weights."""
    if not isinstance(rec, dict) or rec.get("format") != GRAPH_FORMAT:
        raise GraphError(f"not a {GRAPH_FORMAT} record")
    try:
        edges = np.array(rec["edges"], dtype=np.float64).reshape(-1, 3)
        if edges.shape[0] != len(rec["edges"]):
            raise ValueError("edges must be [src, dst, weight] triples")
        src, dst, w = _row_indices(edges[:, 0]), _row_indices(edges[:, 1]), edges[:, 2]
        values = np.array(rec["values"], dtype=np.float64)
        node_map = _row_indices(rec["node_map"])
        link_id = rec["link_id"]
    except KeyError as exc:
        raise GraphError(f"record lacks key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphError(f"malformed record: {exc}") from None
    n = values.size
    if not np.all((w > 0) & np.isfinite(w)):
        raise GraphError("edge weights must be positive and finite")
    if np.any((np.r_[src, dst] < 0) | (np.r_[src, dst] >= n)):
        raise GraphError("edge endpoint out of range")
    if np.unique(src * n + dst).size != src.size:
        raise GraphError("duplicate directed edge")
    weights = np.zeros((n, n))
    weights[src, dst] = w
    graph = TsGraph(values, node_map, weights, link_id)
    graph.validate()
    return graph


def write_graphs(path, graphs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in graphs:
            fh.write(json.dumps(graph_to_record(g)) + "\n")


def read_graphs(path) -> list[TsGraph]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(graph_from_record(json.loads(line)))
                except (GraphError, json.JSONDecodeError) as exc:
                    raise GraphError(f"{path}:{lineno}: {exc}") from None
    return out
