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

The model's attention reads a graph's bias as the dense C x C
``TsGraph.logit_bias`` or, when ``gat_model.uses_edge_list`` finds the
graph sparse (SlowD traces give 20-110 rows with under 15% of the entries
edges), as the destination-sorted ``TsGraph.edges``, over which it takes
the softmax per destination row. The edges are read off the dense bias, so
its formula is written once; each is built on first use. A graph checks
its node map when it is made.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .trace import (DEFAULT_SCHEMA, RssiTrace, TraceSchema, json_numbers,
                    normalize, read_json_lines, write_json_lines)

# Largest node count for which an N x N field or per-node graph is built.
DENSE_NODE_CAP = 1024
# Most distinct values a trace may have: its C x C class graph costs about
# 150 B x C^2 to build and run, ~200 MB at the cap.
ROW_CAP = 1024
GRAPH_FORMAT = "rssigat-graph-v2"


class GraphError(Exception):
    pass


class EdgeList(NamedTuple):
    """The finite entries of ``TsGraph.logit_bias`` as E edges, sorted by
    destination and, within one, by source: edge e runs ``src[e]`` ->
    ``dst[e]`` with bias ``bias[e]`` and sits at ``index[e]`` = dst * C +
    src of a flattened (C, C) block. Every row has a self loop, so each is
    non-empty as a destination and as a source: destination row i's edges
    start at ``starts[i]``, and ``by_src`` orders the edges by source, row
    i's starting at ``src_starts[i]``, as ``np.add.reduceat`` takes them."""

    dst: np.ndarray
    src: np.ndarray
    bias: np.ndarray
    index: np.ndarray
    starts: np.ndarray
    by_src: np.ndarray
    src_starts: np.ndarray


@dataclass
class TsGraph:
    """Directed weighted graph between rows; time step t is row node_map[t].

    ``weights`` is C x C for C rows, and ``weights[i, j] > 0`` is the edge
    i -> j: an edge from every node of row i to every node of row j. A
    per-node graph has ``node_map = arange(N)``. Making a graph whose
    ``node_map`` has an entry outside [0, C) raises GraphError, so nothing
    that indexes by the map checks it again. The model reads ``rows``,
    ``node_map`` and the attention bias, as the dense ``logit_bias`` or as
    its ``edges``, each built once, on first use.
    """

    row_features: np.ndarray
    node_map: np.ndarray
    weights: np.ndarray
    link_id: str | None = None

    def __post_init__(self) -> None:
        node_map = self.node_map
        if node_map.size and (np.minimum.reduce(node_map) < 0
                              or np.maximum.reduce(node_map) >= self.n_rows):
            raise GraphError(f"node map entries must lie in [0, {self.n_rows})")

    @property
    def n_nodes(self) -> int:
        return int(self.node_map.size)

    @property
    def n_rows(self) -> int:
        return int(self.row_features.size)

    @property
    def node_features(self) -> np.ndarray:
        return self.row_features[self.node_map]

    @cached_property
    def rows(self) -> np.ndarray:
        """The row features as the (C, 1) float64 column of the first block."""
        return np.asarray(self.row_features, dtype=np.float64)[:, None]

    @cached_property
    def logit_bias(self) -> np.ndarray:
        """``[dst, src]``: ln(edge weight) + ln(source row size) on the edges,
        0 on the added self loops and -inf elsewhere, as a C-ordered array.
        The transposed log is written into it and the row sizes' logs added
        in place; the diagonal's -inf entries are then set to 0 through a
        strided view of it."""
        c = self.n_rows
        bias = np.empty((c, c))
        with np.errstate(divide="ignore"):  # ln 0 = -inf off the edges
            np.log(self.weights.T, out=bias)
            bias += np.log(np.bincount(self.node_map, minlength=c))
        loops = bias.reshape(-1)[::c + 1]
        loops[loops == -np.inf] = 0.0
        return bias

    @cached_property
    def edges(self) -> EdgeList:
        """The finite entries of ``logit_bias``, read off it."""
        bias, c = self.logit_bias, self.n_rows
        dst, src = np.nonzero(bias > -np.inf)
        by_src = np.argsort(src, kind="stable")
        return EdgeList(dst, src, bias[dst, src], dst * c + src,
                        _run_starts(np.bincount(dst, minlength=c)), by_src,
                        _run_starts(np.bincount(src, minlength=c)))

    @property
    def src(self) -> np.ndarray:  # the source row of each finite bias entry
        return self.edges.src

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


def _run_starts(counts: np.ndarray) -> np.ndarray:
    """Where each of the runs of the given lengths starts, laid end to end."""
    starts = np.zeros_like(counts)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def transform(trace: RssiTrace, schema: TraceSchema = DEFAULT_SCHEMA) -> TsGraph:
    """Value-class graph of a trace: rows are the distinct normalized values
    in ascending order, weighted by the row-normalized counts of consecutive
    steps between them. A row without an outgoing transition (the last
    sample's value, when it occurs nowhere else) gets a self-transition of 1.
    Cost is O(N log N + C^2) for C rows; GraphError naming the trace if C is
    above ``ROW_CAP``.

    The classes come from one argsort, the one ``np.unique(x,
    return_inverse=True)`` takes, so the values and the ``intp`` node map
    are its own, down to which zero a trace holding -0.0 and 0.0 keeps.
    """
    x = normalize(trace, schema)
    order = x.argsort()
    ascending = x.take(order)
    # opens[i]: sorted sample i starts a class. Their running count from 0
    # is each sorted sample's class, so the first is marked only after it
    opens = np.empty(x.size, dtype=bool)
    opens[0] = False
    np.not_equal(ascending[1:], ascending[:-1], out=opens[1:])
    node_map = np.empty(x.size, dtype=np.intp)
    node_map[order] = np.add.accumulate(opens, dtype=np.intp)
    opens[0] = True
    values = ascending[opens]
    c = values.size
    if c > ROW_CAP:
        raise GraphError(f"trace {trace.link_id} has {c} distinct values, "
                         f"more than the {ROW_CAP} a graph may have")
    counts = np.bincount(node_map[:-1] * c + node_map[1:],
                         minlength=c * c).reshape(c, c)
    sums = np.add.reduce(counts, axis=1)
    last = node_map[-1]  # every other class has a step after it
    if sums[last] == 0:
        counts[last, last] = sums[last] = 1
    return TsGraph(values, node_map, counts / sums[:, None], trace.link_id)


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
        not_numbers = "values, node_map and edges must be lists of numbers"
        edges = json_numbers([x for e in edges for x in e],
                             not_numbers).reshape(-1, 3)
        src, dst, w = _row_indices(edges[:, 0]), _row_indices(edges[:, 1]), edges[:, 2]
        values = json_numbers(rec["values"], not_numbers)
        node_map = _row_indices(json_numbers(rec["node_map"], not_numbers))
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
    write_json_lines(path, graphs, graph_to_record)


def read_graphs(path) -> list[TsGraph]:
    return read_json_lines(path, graph_from_record, GraphError)
