import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rssigat.mtf_graph import (DENSE_NODE_CAP, GraphError, TsGraph,
                               graph_from_record, graph_to_record,
                               read_graphs, transform, write_graphs)
from rssigat.trace import RssiTrace, TraceError, TraceSchema
from oracles import mtf_oracle, no_outgoing_step_mask
from fuzzing import JSON_VALUES, changed_records


# ---------------------------------------------------------------------------
# quantile bins of the oracle: at one bin per sample they are the value classes

def _oracle_bins(samples, n_bins):
    bins, q, *_ = mtf_oracle(samples, 0.0, 128.0, n_bins)
    return bins, q


def test_quantizer_constant_series_single_bin():
    assert _oracle_bins(np.full(10, 3.3), 7) == ([0] * 10, 1)


def test_quantizer_median_split():
    assert _oracle_bins([1.0, 2.0, 3.0, 4.0], 2) == ([0, 0, 1, 1], 2)


def test_quantizer_full_resolution_on_increasing_series():
    series = np.arange(12, dtype=float)
    assert _oracle_bins(series, 12) == (list(range(12)), 12)
    graph = transform(RssiTrace("t", series), TraceSchema(expected_length=12))
    np.testing.assert_array_equal(graph.node_map, np.arange(12))


def test_quantizer_drops_empty_bins_between_ties():
    # two values, four requested bins: interpolated cuts delimit empty bins
    assert _oracle_bins([0.0, 0.0, 1.0, 1.0], 4) == ([0, 0, 1, 1], 2)


# ---------------------------------------------------------------------------
# transition matrix: the weights between value classes

def _weights(samples):
    samples = np.asarray(samples, dtype=float)
    return transform(RssiTrace("t", samples),
                     TraceSchema(expected_length=samples.size)).weights


def test_transition_matrix_hand_counted():
    np.testing.assert_array_equal(_weights([1, 1, 2, 2]), [[0.5, 0.5], [0.0, 1.0]])


def test_transition_matrix_single_bin():
    np.testing.assert_array_equal(_weights(np.full(5, 7.0)), [[1.0]])


def test_transition_matrix_alternating():
    np.testing.assert_array_equal(_weights([3, 9, 3, 9, 3]), [[0.0, 1.0], [1.0, 0.0]])


def test_transition_matrix_dead_row_gets_self_transition():
    # the top value only occurs at the last step: no outgoing transitions
    w = _weights([1, 2, 3])
    assert w[2, 2] == 1.0
    np.testing.assert_allclose(w.sum(axis=1), np.ones(3))


def test_ulp_close_values_keep_their_own_rows():
    # a quantile cut between 40 and the next double rounds onto a sample and
    # would merge the two into one bin; each value is a class of its own
    close = np.nextafter(40.0, np.inf)
    graph = transform(RssiTrace("t", np.array([40.0, close, 60.0, 60.0])),
                      TraceSchema(expected_length=4))
    np.testing.assert_array_equal(graph.row_features * 128, [40.0, close, 60.0])
    np.testing.assert_array_equal(graph.node_map, [0, 1, 2, 2])
    np.testing.assert_array_equal(graph.weights, [[0.0, 1.0, 0.0],
                                                  [0.0, 0.0, 1.0],
                                                  [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# field and graph

def test_mtf_worked_example():
    graph = transform(RssiTrace("t", np.array([1.0, 1.0, 2.0, 2.0])),
                      TraceSchema(expected_length=4))
    np.testing.assert_array_equal(graph.weights, [[0.5, 0.5], [0.0, 1.0]])
    expected_m = np.array([
        [0.5, 0.5, 0.5, 0.5],
        [0.5, 0.5, 0.5, 0.5],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
    ])
    nodes = graph.expand()
    np.testing.assert_array_equal(nodes.weights, expected_m)
    assert nodes.n_edges == 12
    nodes.validate()


def test_mtf_constant_series_all_ones():
    graph = transform(RssiTrace("t", np.full(6, 2.0)),
                      TraceSchema(expected_length=6))
    np.testing.assert_array_equal(graph.expand().weights, np.ones((6, 6)))


def test_constant_series_complete_graph_with_self_loops():
    trace = RssiTrace("t", np.full(5, 0.5))
    graph = transform(trace, TraceSchema(expected_length=5, rssi_min=0.0, rssi_max=1.0))
    assert (graph.n_rows, graph.n_edges) == (1, 1)
    nodes = graph.expand()
    assert nodes.n_edges == 25
    np.testing.assert_array_equal(nodes.edge_weights, np.ones(25))


def test_mtf_rejects_too_short_series():
    # a one-sample series is refused as a trace, so no field is built for it
    with pytest.raises(TraceError, match="length >= 2"):
        transform(RssiTrace("t", np.array([1.0])), TraceSchema())


def test_transform_node_count_and_determinism():
    rng = np.random.default_rng(5)
    trace = RssiTrace("t", rng.integers(10, 30, size=37).astype(float))
    schema = TraceSchema(expected_length=37)
    g1 = transform(trace, schema)
    g2 = transform(trace, schema)
    assert g1.n_nodes == 37
    np.testing.assert_array_equal(g1.edge_src, g2.edge_src)
    np.testing.assert_array_equal(g1.edge_weights, g2.edge_weights)


def test_fig2_sized_trace_builds_30_node_graph():
    rng = np.random.default_rng(11)
    trace = RssiTrace("t", rng.integers(0, 128, size=30).astype(float))
    graph = transform(trace, TraceSchema(expected_length=30)).expand()
    assert graph.n_nodes == 30
    assert 30 <= graph.n_edges <= 900
    graph.validate()


# ---------------------------------------------------------------------------
# oracle equivalence and properties

def _assert_matches_oracle(samples, schema):
    trace = RssiTrace("t", np.asarray(samples, dtype=float))
    graph = transform(trace, schema)
    bins, q, w, m, edges = mtf_oracle(samples, schema.rssi_min, schema.rssi_max,
                                      len(samples))
    assert graph.node_map.tolist() == bins
    assert graph.n_rows == q
    nodes = graph.expand()
    assert nodes.n_nodes == len(samples)
    assert [(s, d) for s, d, _ in edges] == list(zip(nodes.edge_src.tolist(),
                                                     nodes.edge_dst.tolist()))
    np.testing.assert_allclose(nodes.edge_weights,
                               np.array([wt for _, _, wt in edges]), atol=1e-12)


def test_transform_matches_bruteforce_oracle_sample():
    rng = np.random.default_rng(42)
    schema = TraceSchema(expected_length=50)
    for _ in range(25):
        n = int(rng.integers(3, 51))
        _assert_matches_oracle(rng.integers(0, 129, size=n).astype(float), schema)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 128), min_size=2, max_size=40))
def test_row_stochastic_for_any_series(values):
    w = _weights(values)
    np.testing.assert_allclose(w.sum(axis=1), np.ones(len(w)), atol=1e-9)
    assert w.min() >= 0 and w.max() <= 1


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(0, 12), min_size=2, max_size=30))
@example([5, 5])
@example([3, 3, 7])
@example([3, 7, 3])
def test_last_row_rule_is_the_diagonal_mask(values):
    # only the last sample's class can lack an outgoing step, so transform
    # checks its row alone; the weights are those of the mask over all rows
    graph = transform(RssiTrace("t", np.array(values, dtype=float)),
                      TraceSchema(expected_length=len(values)))
    c = graph.n_rows
    counts = np.bincount(graph.node_map[:-1] * c + graph.node_map[1:],
                         minlength=c * c).reshape(c, c)
    counts[no_outgoing_step_mask(counts)] = 1
    want = counts / counts.sum(axis=1, keepdims=True)
    assert graph.weights.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 120).map(lambda v: v / 2), min_size=2, max_size=25))
def test_edge_weights_are_the_nonzero_field_entries(values):
    schema = TraceSchema(expected_length=len(values), rssi_max=60.0)
    *_, m, _ = mtf_oracle(values, schema.rssi_min, schema.rssi_max, len(values))
    field = np.array(m)
    nodes = transform(RssiTrace("t", np.array(values)), schema).expand()
    np.testing.assert_array_equal(nodes.weights, field)
    np.testing.assert_array_equal(nodes.edge_weights, field[field > 0])


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 100), min_size=3, max_size=30),
       st.integers(1, 9), st.integers(1, 5))
def test_positive_affine_rescale_leaves_structure_unchanged(values, a, b):
    base = np.array(values, dtype=float)
    schema = TraceSchema(expected_length=base.size, rssi_max=1024.0)
    g1 = transform(RssiTrace("t", base), schema)
    g2 = transform(RssiTrace("t", a * base + b), schema)
    np.testing.assert_array_equal(g1.node_map, g2.node_map)
    np.testing.assert_array_equal(g1.weights, g2.weights)


def test_transform_is_stateless_across_order():
    rng = np.random.default_rng(3)
    schema = TraceSchema(expected_length=20)
    traces = [RssiTrace(f"t{i}", rng.integers(5, 40, size=20).astype(float))
              for i in range(4)]
    first = [transform(t, schema) for t in traces]
    second = [transform(t, schema) for t in reversed(traces)][::-1]
    for g1, g2 in zip(first, second):
        np.testing.assert_array_equal(g1.edge_weights, g2.edge_weights)
        np.testing.assert_array_equal(g1.node_features, g2.node_features)


def test_transform_beyond_dense_cap_streams():
    n = DENSE_NODE_CAP + 76
    trace = RssiTrace("long", np.linspace(0, 100, n))
    graph = transform(trace, TraceSchema(expected_length=n, rssi_min=0, rssi_max=128))
    assert graph.n_nodes == n
    # strictly increasing series: each step feeds the next value, so one edge
    # per node (the last value self-loops)
    assert graph.n_edges == n
    graph.validate()
    with pytest.raises(GraphError):
        graph.expand()


# ---------------------------------------------------------------------------
# serialization

def test_graph_round_trip_preserves_printed_precision(tmp_path):
    rng = np.random.default_rng(21)
    trace = RssiTrace("rt", rng.integers(0, 128, size=40).astype(float))
    graph = transform(trace, TraceSchema(expected_length=40))
    path = tmp_path / "graphs.jsonl"
    write_graphs(path, [graph])
    loaded = read_graphs(path)[0]
    assert loaded.link_id == "rt"
    assert loaded.n_nodes == graph.n_nodes
    np.testing.assert_array_equal(loaded.node_features, graph.node_features)
    np.testing.assert_array_equal(loaded.node_map, graph.node_map)
    np.testing.assert_array_equal(loaded.edge_src, graph.edge_src)
    printed = np.array([float(f"{w:.9g}") for w in graph.edge_weights])
    np.testing.assert_array_equal(loaded.edge_weights, printed)
    # writing the loaded graph again is byte-stable
    path2 = tmp_path / "again.jsonl"
    write_graphs(path2, loaded if isinstance(loaded, list) else [loaded])
    assert path2.read_text() == path.read_text()
    # a paper-length trace stores its class graph in a few KB
    long_trace = RssiTrace("long", rng.integers(30, 38, size=300).astype(float))
    path3 = tmp_path / "long.jsonl"
    write_graphs(path3, [transform(long_trace, TraceSchema(expected_length=300))])
    assert path3.stat().st_size < 8 * 1024


def test_graph_record_weight_precision():
    graph = TsGraph(row_features=np.array([0.1, 0.9]), node_map=np.arange(2),
                    weights=np.array([[0.0, 0.123456789123], [0.0, 0.0]]),
                    link_id="x")
    rec = graph_to_record(graph)
    assert rec["edges"][0][2] == float("0.123456789")  # 9 significant digits
    back = graph_from_record(rec)
    assert list(zip(back.edge_src, back.edge_dst)) == [(0, 1)]


def test_graph_record_duplicate_edge_rejected():
    rec = {"format": "rssigat-graph-v2", "link_id": "x", "values": [0.1, 0.9],
           "node_map": [0, 1], "edges": [[0, 1, 0.5], [0, 1, 0.25]]}
    with pytest.raises(GraphError, match="duplicate directed edge"):
        graph_from_record(rec)


_RECORD = graph_to_record(transform(
    RssiTrace("fuzz", np.array([40, 41, 40, 39, 12, 12, 40, 41], dtype=float)),
    TraceSchema(expected_length=8)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(JSON_VALUES | changed_records(_RECORD))
@example({**_RECORD, "node_map": [float("inf")] + _RECORD["node_map"][1:]})
def test_graph_from_record_raises_only_graph_error(rec):
    """Arbitrary JSON, or a valid record with some values replaced, deleted
    or added, either reads back or raises GraphError."""
    try:
        graph = graph_from_record(rec)
    except GraphError:
        return
    assert graph.weights.shape == (graph.n_rows, graph.n_rows)
    assert graph.node_map.max() < graph.n_rows


@pytest.mark.parametrize("line, message", [
    (b"\xff\n", "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000 + b"\n", "maximum recursion depth exceeded"),
], ids=["not-utf8", "too-deep"])
def test_read_graphs_names_the_bad_line(tmp_path, line, message):
    path = tmp_path / "graphs.jsonl"
    path.write_bytes(json.dumps(_RECORD).encode() + b"\n" + line)
    with pytest.raises(GraphError, match=re.escape(f"{path}:2: {message}")):
        read_graphs(path)
