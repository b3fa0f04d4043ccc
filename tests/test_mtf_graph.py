import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssigat.mtf_graph import (DENSE_NODE_CAP, GraphError, TsGraph,
                               fit_quantizer, graph_from_record,
                               graph_to_record, read_graphs,
                               transition_matrix, transform, write_graphs)
from rssigat.trace import RssiTrace, TraceError, TraceSchema, normalize
from oracles import mtf_oracle


# ---------------------------------------------------------------------------
# quantizer

def test_quantizer_constant_series_single_bin():
    q = fit_quantizer(np.full(10, 3.3), n_bins=7)
    assert q.n_bins == 1
    assert q.bin_edges.size == 0
    np.testing.assert_array_equal(q.assign(np.full(10, 3.3)), np.zeros(10))


def test_quantizer_median_split():
    q = fit_quantizer(np.array([1.0, 2.0, 3.0, 4.0]), n_bins=2)
    np.testing.assert_array_equal(q.bin_edges, [2.5])
    np.testing.assert_array_equal(q.assign([1, 2, 3, 4]), [0, 0, 1, 1])


def test_quantizer_full_resolution_on_increasing_series():
    series = np.arange(12, dtype=float)
    q = fit_quantizer(series, n_bins=12)
    assert q.n_bins == 12
    np.testing.assert_array_equal(q.assign(series), np.arange(12))


def test_quantizer_drops_empty_bins_between_ties():
    # two values, four requested bins: interpolated cuts delimit empty bins
    q = fit_quantizer(np.array([0.0, 0.0, 1.0, 1.0]), n_bins=4)
    assert q.n_bins == 2
    np.testing.assert_array_equal(q.assign([0.0, 0.0, 1.0, 1.0]), [0, 0, 1, 1])


# ---------------------------------------------------------------------------
# transition matrix

def test_transition_matrix_hand_counted():
    w = transition_matrix(np.array([0, 0, 1, 1]), 2)
    np.testing.assert_array_equal(w, [[0.5, 0.5], [0.0, 1.0]])


def test_transition_matrix_single_bin():
    np.testing.assert_array_equal(transition_matrix(np.zeros(5, dtype=int), 1), [[1.0]])


def test_transition_matrix_alternating():
    w = transition_matrix(np.array([0, 1, 0, 1, 0]), 2)
    np.testing.assert_array_equal(w, [[0.0, 1.0], [1.0, 0.0]])


def test_transition_matrix_dead_row_gets_self_transition():
    # bin 2 only occupied at the last step: no outgoing transitions
    w = transition_matrix(np.array([0, 1, 2]), 3)
    assert w[2, 2] == 1.0
    np.testing.assert_allclose(w.sum(axis=1), np.ones(3))


# ---------------------------------------------------------------------------
# field and graph

def test_mtf_worked_example():
    graph = transform(RssiTrace("t", np.array([1.0, 1.0, 2.0, 2.0])),
                      TraceSchema(expected_length=4), n_bins=2)
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
                      TraceSchema(expected_length=6), n_bins=6)
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

def _assert_matches_oracle(samples, schema, n_bins):
    trace = RssiTrace("t", np.asarray(samples, dtype=float))
    graph = transform(trace, schema, n_bins=n_bins).expand()
    bins, q, w, m, edges = mtf_oracle(samples, schema.rssi_min, schema.rssi_max,
                                      n_bins if n_bins else len(samples))
    assert graph.n_nodes == len(samples)
    assert [(s, d) for s, d, _ in edges] == list(zip(graph.edge_src.tolist(),
                                                     graph.edge_dst.tolist()))
    np.testing.assert_allclose(graph.edge_weights,
                               np.array([wt for _, _, wt in edges]), atol=1e-12)


def test_transform_matches_bruteforce_oracle_sample():
    rng = np.random.default_rng(42)
    schema = TraceSchema(expected_length=50)
    for _ in range(25):
        n = int(rng.integers(3, 51))
        samples = rng.integers(0, 129, size=n).astype(float)
        for n_bins in (2, 4, n):
            _assert_matches_oracle(samples, schema, n_bins)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 128), min_size=2, max_size=40),
       st.integers(1, 40))
def test_row_stochastic_for_any_series(values, n_bins):
    q = fit_quantizer(np.array(values, dtype=float), n_bins)
    w = transition_matrix(q.assign(np.array(values, dtype=float)), q.n_bins)
    np.testing.assert_allclose(w.sum(axis=1), np.ones(q.n_bins), atol=1e-9)
    assert w.min() >= 0 and w.max() <= 1


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 60), min_size=2, max_size=25))
def test_edge_weights_are_the_nonzero_field_entries(values):
    trace = RssiTrace("t", np.array(values, dtype=float))
    schema = TraceSchema(expected_length=len(values), rssi_max=60.0)
    series = normalize(trace, schema)
    q = fit_quantizer(series, len(values))
    bins = q.assign(series)
    field = transition_matrix(bins, q.n_bins)[np.ix_(bins, bins)]
    nodes = transform(trace, schema).expand()
    np.testing.assert_array_equal(nodes.weights, field)
    np.testing.assert_array_equal(nodes.edge_weights, field[field > 0])


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 100), min_size=3, max_size=30),
       st.integers(1, 9), st.integers(1, 5))
def test_positive_affine_rescale_leaves_structure_unchanged(values, a, b):
    base = np.array(values, dtype=float)
    scaled = a * base + b
    q1 = fit_quantizer(base, len(values))
    q2 = fit_quantizer(scaled, len(values))
    np.testing.assert_array_equal(q1.assign(base), q2.assign(scaled))
    w1 = transition_matrix(q1.assign(base), q1.n_bins)
    w2 = transition_matrix(q2.assign(scaled), q2.n_bins)
    np.testing.assert_array_equal(w1, w2)


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
    # strictly increasing series: each step feeds the next bin, so one edge
    # per node (last bin self-loops)
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
