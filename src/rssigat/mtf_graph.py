"""Time-series to graph transformation via Markov transition fields.

``transform`` makes one row per distinct normalized value (a value class)
and weights the edge i -> j by the share of steps leaving class i that land
in class j. This is the paper's Markov transition field at one quantile bin
per time step (Q = N): each quantile edge at k/N lies between the order
statistics k-1 and k, so every distinct value has a bin of its own and the
bins are the value classes. Test c1 checks this against a brute-force
quantile binner. (Samples a few ulps apart are the one exception: a binner's
rounded edge can land on one and merge the two, while here each keeps its
row.) Time steps with equal values have equal rows and columns in the N x N
field, so ``TsGraph.expand`` gives the field itself.
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


def transform(trace: RssiTrace, schema: TraceSchema = DEFAULT_SCHEMA) -> TsGraph:
    """Value-class graph of a trace: rows are the distinct normalized values
    in ascending order, weighted by the row-normalized counts of consecutive
    steps between them. A row without an outgoing transition (the last
    sample's value, when it occurs nowhere else) gets a self-transition of 1.
    Cost is O(N log N + C^2) for C rows.
    """
    values, node_map = np.unique(normalize(trace, schema), return_inverse=True)
    c = values.size
    counts = np.bincount(node_map[:-1] * c + node_map[1:],
                         minlength=c * c).reshape(c, c)
    last = node_map[-1]  # every other class has a step after it
    if not counts[last].any():
        counts[last, last] = 1
    return TsGraph(values, node_map, counts / counts.sum(axis=1, keepdims=True),
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


def _row_indices(arr: np.ndarray) -> np.ndarray:
    # the range test first: inf % 1 would warn
    if not (np.all(np.abs(arr) < 2**53) and np.all(arr % 1 == 0)):
        raise ValueError("row indices must be integers")
    return arr.astype(np.int64)


def _numbers(seq) -> np.ndarray:
    """A JSON list of ints and floats, not strings or booleans, as float64."""
    if not (isinstance(seq, list) and {*map(type, seq)} <= {int, float}):
        raise ValueError("values, node_map and edges must be lists of numbers")
    return np.array(seq, dtype=np.float64)


def graph_from_record(rec: dict) -> TsGraph:
    """A record back as a ``TsGraph``; the edge triples are checked before
    they are scattered into the weights."""
    if not isinstance(rec, dict) or rec.get("format") != GRAPH_FORMAT:
        raise GraphError(f"not a {GRAPH_FORMAT} record")
    try:
        edges = rec["edges"]
        if not (isinstance(edges, list)
                and all(isinstance(e, list) and len(e) == 3 for e in edges)):
            raise ValueError("edges must be [src, dst, weight] triples")
        edges = _numbers([x for e in edges for x in e]).reshape(-1, 3)
        src, dst, w = _row_indices(edges[:, 0]), _row_indices(edges[:, 1]), edges[:, 2]
        values = _numbers(rec["values"])
        node_map = _row_indices(_numbers(rec["node_map"]))
        link_id = rec["link_id"]
        if not (link_id is None or isinstance(link_id, str)):
            raise ValueError("link_id must be a string or null")
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
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(graph_from_record(json.loads(line.decode("utf-8"))))
                except (GraphError, ValueError, RecursionError) as exc:
                    raise GraphError(f"{path}:{lineno}: {exc}") from None
    return out
