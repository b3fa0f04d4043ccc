import copy
import dataclasses
import hashlib
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rssigat.tensor_core as tc
from rssigat import gat_model
from rssigat.gat_model import (GatLayerConfig, GatModel, ModelError,
                               _param_table, build_model, count_parameters,
                               load_checkpoint, model_backward, model_forward,
                               predict, prepare_graph, save_checkpoint,
                               uses_edge_list)
from rssigat.inject import AnomalyKind
from rssigat.mtf_graph import GraphError, TsGraph, transform
from rssigat.trace import RssiTrace, TraceSchema
from oracles import (attention_block_two_products, dense_gat_oracle,
                     model_forward_oracle, model_reference)
from gradcheck import TOY_LAYERS, run_model_fd_trials, zero_model
from test_tensor_core import attention_output
from fuzzing import JSON_VALUES, changed_records
from test_train import _desk_dataset


def _graph(n_nodes, edges, features, link_id=None):
    weights = np.zeros((n_nodes, n_nodes))
    for src, dst, wt in edges:
        weights[src, dst] = wt
    return TsGraph(row_features=np.asarray(features, dtype=float),
                   node_map=np.arange(n_nodes), weights=weights,
                   link_id=link_id)


def _layer_forward(features, graph, cfg, params, prefix="gat1"):
    """One attention layer over per-node features (the graph is expanded)."""
    prep = prepare_graph(graph, collapse=False)
    att = np.stack([params[f"{prefix}.att_src"], params[f"{prefix}.att_dst"]])
    return attention_output(
        features, params[f"{prefix}.weight"], att, params[f"{prefix}.bias"],
        prep.logit_bias, cfg.leaky_slope, cfg.head_mode)


def _layer_params(rng, cfg, prefix="gat1"):
    f = cfg.out_dim_per_head
    return {
        f"{prefix}.weight": rng.standard_normal((cfg.in_dim, cfg.n_heads * f)),
        f"{prefix}.att_src": rng.standard_normal((cfg.n_heads, f)),
        f"{prefix}.att_dst": rng.standard_normal((cfg.n_heads, f)),
        f"{prefix}.bias": rng.standard_normal(cfg.out_width),
    }


# ---------------------------------------------------------------------------
# single layer

def test_single_node_self_loop_gives_projection():
    cfg = GatLayerConfig(in_dim=1, out_dim_per_head=3, n_heads=1)
    rng = np.random.default_rng(0)
    params = _layer_params(rng, cfg)
    params["gat1.bias"] = np.zeros(3)
    graph = _graph(1, [(0, 0, 1.0)], [0.7])
    out = _layer_forward(np.array([[0.7]]), graph, cfg, params)
    expected = np.array([[0.7]]) @ params["gat1.weight"]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_two_symmetric_nodes_get_identical_outputs():
    cfg = GatLayerConfig(in_dim=2, out_dim_per_head=4, n_heads=2)
    rng = np.random.default_rng(1)
    params = _layer_params(rng, cfg)
    graph = _graph(2, [(0, 1, 0.5), (1, 0, 0.5)], [0.3, 0.3])
    feats = np.array([[0.3, 0.6], [0.3, 0.6]])
    out = _layer_forward(feats, graph, cfg, params)
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


@pytest.mark.parametrize("head_mode", ["concat", "average"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_layer_matches_dense_oracle(seed, head_mode):
    rng = np.random.default_rng(seed)
    n = 5
    cfg = GatLayerConfig(in_dim=2, out_dim_per_head=3, n_heads=2,
                         head_mode=head_mode)
    params = _layer_params(rng, cfg)
    edges = []
    for a in range(n):
        for b in range(n):
            if rng.random() < 0.4:
                edges.append((a, b, float(rng.uniform(0.05, 1.0))))
    features = rng.standard_normal((n, 2))
    graph = _graph(n, edges, features[:, 0])
    out = _layer_forward(features, graph, cfg, params)
    expected = dense_gat_oracle(features, n, edges, cfg,
                                params["gat1.weight"], params["gat1.att_src"],
                                params["gat1.att_dst"], params["gat1.bias"])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def _attention_coefficients(h, weight, att, prep, slope):
    """Alpha (heads, dst, src) of ``attention_block`` on the rows ``h``, read
    through the op itself: with z = I per head and the rows' s_src, s_dst as
    attention vectors, the logits are unchanged and each head outputs
    alpha @ I, which a zero skip and ReLU leave as it is."""
    _, heads, f = att.shape
    n = prep.n_rows
    z = (h @ weight).reshape(n, heads, f).transpose(1, 0, 2)
    s = z @ att.transpose(1, 2, 0)
    probe, _ = tc.attention_block(
        np.eye(n), np.tile(np.eye(n), (1, heads)), s.transpose(2, 0, 1),
        np.zeros(heads * n), np.zeros((n, heads * n)), np.zeros(heads * n),
        prep.logit_bias, slope, "concat")
    return probe.reshape(n, heads, n).transpose(1, 0, 2)


def test_attention_coefficients_sum_to_one_per_destination():
    trace = RssiTrace("t", np.random.default_rng(0).integers(20, 45, 60).astype(float))
    graph = transform(trace, TraceSchema(expected_length=60))
    prep = prepare_graph(graph)
    model = build_model(seed=3)
    assert len(model.layer_configs) == 3
    edges = np.isfinite(prep.logit_bias)
    h = prep.rows  # each block's input rows, by re-running the ops
    for cfg, params in zip(model.layer_configs, model.params.blocks):
        alpha = _attention_coefficients(h, *params[:2], prep, cfg.leaky_slope)
        assert alpha.shape == (cfg.n_heads, *edges.shape)
        np.testing.assert_allclose(np.where(edges, alpha, 0.0).sum(axis=-1),
                                   1.0, atol=1e-9)
        assert np.all(alpha[:, ~edges] == 0.0)
        h, _ = tc.attention_block(h, *params, prep.logit_bias, cfg.leaky_slope,
                                  cfg.head_mode)


def test_prepare_graph_bias_is_log_weight_and_row_size_on_edges():
    # rows of 2, 2 and 1 nodes; row 0 has a self-transition, rows 1 and 2
    # get added self loops
    graph = TsGraph(row_features=np.array([0.1, 0.2, 0.3]),
                    node_map=np.array([0, 1, 0, 2, 1]),
                    weights=np.array([[0.25, 0.75, 0.0],
                                      [0.0, 0.0, 1.0],
                                      [0.4, 0.6, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prep = prepare_graph(graph)
    ln = np.log
    expected = np.array([[ln(0.25) + ln(2), -np.inf, ln(0.4) + ln(1)],
                         [ln(0.75) + ln(2), 0.0, ln(0.6) + ln(1)],
                         [-np.inf, ln(1.0) + ln(2), 0.0]])
    np.testing.assert_array_equal(prep.logit_bias, expected)
    np.testing.assert_array_equal(prep.src, [0, 2, 0, 1, 2, 1, 2])
    assert graph.logit_bias is graph.logit_bias  # built once per graph


@pytest.mark.parametrize("collapse", [True, False])
@pytest.mark.parametrize("entry", [-1, 3])
def test_prepare_graph_rejects_node_map_outside_rows(entry, collapse):
    """The graph checks its map when it is made, so no form of it is ever
    prepared from a map that its bias, ``expand`` or the head's gather would
    index out of range."""
    with pytest.raises(GraphError, match=re.escape("[0, 3)")):
        prepare_graph(TsGraph(row_features=np.array([0.1, 0.2, 0.3]),
                              node_map=np.array([0, 1, entry, 2]),
                              weights=np.full((3, 3), 1 / 3)),
                      collapse=collapse)


# ---------------------------------------------------------------------------
# full model

def test_model_forward_lengths_and_range():
    rng = np.random.default_rng(2)
    trace = RssiTrace("t", rng.integers(10, 50, size=300).astype(float))
    graph = transform(trace, TraceSchema(expected_length=300))
    model = build_model(seed=0)
    probs = model_forward(prepare_graph(graph), model)
    assert probs.data.shape == (300, 1)
    assert probs.data.min() > 0.0 and probs.data.max() < 1.0


def test_all_zero_parameters_give_half():
    model = build_model(seed=0)
    for p in model.params.values():
        p[...] = 0.0
    trace = RssiTrace("t", np.arange(2, 22, dtype=float))
    graph = transform(trace, TraceSchema(expected_length=20))
    probs = model_forward(prepare_graph(graph), model)
    np.testing.assert_array_equal(probs.data, np.full((20, 1), 0.5))


def test_predict_thresholds():
    model = build_model(seed=1)
    trace = RssiTrace("t", np.arange(10, 40, dtype=float))
    graph = transform(trace, TraceSchema(expected_length=30))
    probs = model_forward(prepare_graph(graph), model).data[:, 0]
    labels = predict(graph, model)
    assert labels.dtype == np.int8
    np.testing.assert_array_equal(labels, (probs >= 0.5).astype(np.int8))


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(4)
    trace = RssiTrace("t", rng.integers(0, 128, size=80).astype(float))
    graph = transform(trace, TraceSchema(expected_length=80))
    model = build_model(seed=9)
    a = model_forward(prepare_graph(graph), model).data
    b = model_forward(prepare_graph(graph), model).data
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("values", ["repeated", "distinct"])
def test_value_collapse_matches_plain_edges(values):
    rng = np.random.default_rng(6)
    if values == "repeated":
        samples = rng.integers(30, 38, size=90).astype(float)
    else:
        samples = rng.permutation(np.linspace(10.0, 100.0, 90))
    graph = transform(RssiTrace("t", samples), TraceSchema(expected_length=90))
    assert graph.n_rows == np.unique(samples).size
    model = build_model(seed=5)
    fast = model_forward(prepare_graph(graph, collapse=True), model).data
    slow = model_forward(prepare_graph(graph, collapse=False), model).data
    np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_collapse_rejected_for_inconsistent_blocks():
    # a per-node graph is used as given: nodes sharing a value (0 and 2, with
    # different edges) are never merged into one row
    graph = _graph(3, [(0, 1, 0.5), (2, 1, 0.25), (1, 1, 1.0)], [0.2, 0.4, 0.2])
    prep = prepare_graph(graph, collapse=True)
    assert prep.n_rows == 3


def test_node_permutation_equivariance():
    rng = np.random.default_rng(8)
    trace = RssiTrace("t", rng.integers(10, 25, size=40).astype(float))
    classes = transform(trace, TraceSchema(expected_length=40))
    graph = classes.expand()
    model = build_model(seed=2)
    base = model_forward(prepare_graph(classes), model).data[:, 0]
    perm = rng.permutation(40)
    permuted = TsGraph(
        row_features=graph.node_features[perm],
        node_map=np.arange(40),
        weights=graph.weights[np.ix_(perm, perm)],
    )
    out = model_forward(prepare_graph(permuted), model).data[:, 0]
    np.testing.assert_allclose(out, base[perm], atol=1e-9)


@pytest.mark.parametrize("length", [100, 300], ids=["desk", "paper"])
def test_model_forward_matches_per_destination_oracle(length):
    dataset, schema = _desk_dataset(n_each=2, n_clean=2, seed=11, length=length)
    for i, item in enumerate(dataset):
        prep = prepare_graph(transform(item.trace, schema))
        model = build_model(seed=i)
        expected = model_forward_oracle(
            prep.rows, prep.node_map, np.isfinite(prep.logit_bias),
            prep.logit_bias,
            model.layer_configs, model.params)
        np.testing.assert_allclose(model_forward(prep, model).data, expected,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("collapse", [True, False], ids=["rows", "nodes"])
def test_model_is_bitwise_the_op_by_op_model(collapse, monkeypatch):
    """Probabilities and all 20 gradients, written into NaN-filled views, as
    the model composed its ops one by one, looking parameters up by name.
    The reference composes the dense-bias ops, so the model runs the dense
    bias on every graph here; the edge-list form is held to the dense one by
    ``test_edge_list_form_matches_the_dense_form``."""
    monkeypatch.setattr(gat_model, "uses_edge_list", lambda _: False)
    dataset, schema = _desk_dataset(n_each=1, n_clean=2, seed=12, length=100)
    rng = np.random.default_rng(3)
    for i, item in enumerate(dataset):
        prep = prepare_graph(transform(item.trace, schema), collapse=collapse)
        model = build_model(seed=i)
        fwd = model_forward(prep, model)
        want, backward = model_reference(prep, model)
        assert fwd.data.tobytes() == want.tobytes()
        g = rng.standard_normal(fwd.data.shape)
        grads = model.views(np.full_like(model.vector, np.nan))
        model_backward(fwd, g, grads)
        want = backward(g)
        assert grads.keys() == want.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == want[name].tobytes(), name


def _run_form(graph, model, g, monkeypatch, edge_list):
    """Probabilities and all gradients, for the gradient ``g`` at them, with
    the attention over the edge list or over the dense bias."""
    with monkeypatch.context() as patch:
        patch.setattr(gat_model, "uses_edge_list", lambda _: edge_list)
        fwd = model_forward(graph, model)
    grads = model.views(np.full_like(model.vector, np.nan))
    model_backward(fwd, g, grads)
    return fwd.data, grads


def _assert_forms_agree(graph, model, monkeypatch):
    """The edge-list form gives the dense form's probabilities and 20
    gradients within 1e-12."""
    g = np.random.default_rng(graph.n_rows).standard_normal((graph.n_nodes, 1))
    data, grads = _run_form(graph, model, g, monkeypatch, False)
    edge_data, edge_grads = _run_form(graph, model, g, monkeypatch, True)
    np.testing.assert_allclose(edge_data, data, rtol=0, atol=1e-12)
    assert len(grads) == 20
    for name, grad in grads.items():
        np.testing.assert_allclose(edge_grads[name], grad, rtol=0, atol=1e-12,
                                   err_msg=name)


def _mix(length):
    """The desk mix at length 100, 1:1:1:1:6 anomaly kinds to clean, or the
    paper mix at 300, 1:1:1:1:8."""
    return _desk_dataset(n_each=3, n_clean=18 if length == 100 else 24,
                         seed=21, length=length)


@pytest.mark.parametrize("length", [100, 300], ids=["desk", "paper"])
def test_edge_list_form_matches_the_dense_form(length, monkeypatch):
    dataset, schema = _mix(length)
    graphs = [transform(item.trace, schema) for item in dataset]
    sparse = [graph for graph in graphs if uses_edge_list(graph)]
    assert sparse
    for k, graph in enumerate(sparse):
        _assert_forms_agree(graph, build_model(seed=k), monkeypatch)


@pytest.mark.parametrize("length", [100, 300], ids=["desk", "paper"])
def test_small_graphs_run_dense_and_slowd_graphs_over_edges(length):
    dataset, schema = _mix(length)
    rows = {True: [], False: []}
    for item in dataset:
        graph = transform(item.trace, schema)
        if item.kind is AnomalyKind.SLOW_D or graph.n_rows in (5, 6):
            assert uses_edge_list(graph) == (item.kind is AnomalyKind.SLOW_D)
            rows[uses_edge_list(graph)].append(graph.n_rows)
    assert len(rows[True]) == 3 and len(rows[False]) > 20


@pytest.mark.parametrize("length", [100, 300], ids=["desk", "paper"])
def test_edges_are_the_finite_bias_entries_dst_major(length):
    """Every field of ``edges`` is byte for byte what a scan of
    ``logit_bias`` in destination, then source, order gives."""
    dataset, schema = _mix(length)
    assert AnomalyKind.SLOW_D in {item.kind for item in dataset}
    for item in dataset:
        graph = transform(item.trace, schema)
        bias, c = graph.logit_bias, graph.n_rows
        dst, src = np.array([(i, j) for i in range(c) for j in range(c)
                             if bias[i, j] > -np.inf]).T
        by_src = np.array(sorted(range(dst.size), key=lambda e: src[e]))
        expected = graph.edges._make((
            dst, src, bias[dst, src], dst * c + src,
            np.searchsorted(dst, np.arange(c)), by_src,
            np.searchsorted(src[by_src], np.arange(c))))
        for name, got, want in zip(expected._fields, graph.edges, expected):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name


def _union(graphs) -> TsGraph:
    """The disjoint union of ``graphs``: rows concatenated, node maps offset
    and weights block-diagonal."""
    sizes = [graph.n_rows for graph in graphs]
    offsets = np.cumsum([0, *sizes[:-1]])
    weights = np.zeros((sum(sizes), sum(sizes)))
    for graph, at in zip(graphs, offsets):
        weights[at:at + graph.n_rows, at:at + graph.n_rows] = graph.weights
    return TsGraph(np.concatenate([graph.row_features for graph in graphs]),
                   np.concatenate([graph.node_map + at for graph, at in
                                   zip(graphs, offsets)]), weights)


def test_union_over_edges_is_each_graph_alone(monkeypatch):
    dataset, schema = _mix(100)
    graphs = [transform(item.trace, schema) for item in dataset[::3]][:8]
    assert {uses_edge_list(graph) for graph in graphs} == {True, False}
    union = _union(graphs)
    assert uses_edge_list(union)
    model = build_model(seed=4)
    alone = np.concatenate([model_forward(graph, model).data
                            for graph in graphs])
    np.testing.assert_allclose(model_forward(union, model).data, alone,
                               rtol=0, atol=1e-12)
    _assert_forms_agree(union, model, monkeypatch)


def test_param_views_group_the_arrays_as_the_ops_take_them():
    model = build_model(seed=0)
    for params in (model.params, model.views(np.zeros_like(model.vector))):
        assert len(params.blocks) == 3
        for k, block in enumerate(params.blocks, start=1):
            weight, att, bias, skip_weight, skip_bias = block
            assert weight is params[f"gat{k}.weight"]
            assert att.shape == (2, *params[f"gat{k}.att_src"].shape)
            assert np.shares_memory(att, params.vector)
            assert bias is params[f"gat{k}.bias"]
            assert skip_weight is params[f"skip{k}.weight"]
            assert skip_bias is params[f"skip{k}.bias"]
        assert params.head[0] is params["out.weight"]
        assert params.head[1] is params["out.bias"]
        assert params.blocks is params.blocks  # looked up once


def test_att_view_aliases_att_src_and_att_dst(monkeypatch):
    """A block's ``att`` is its ``att_src`` then its ``att_dst``: a write
    through the view shows under both names and a write under either name
    shows in the view. The backward writes the gradient views whole, through
    the stacked views, over the dense bias and over the edge list."""
    model = build_model(seed=0)
    for k, (_, att, *_) in enumerate(model.params.blocks, start=1):
        src = model.params[f"gat{k}.att_src"]
        dst = model.params[f"gat{k}.att_dst"]
        att[0], att[1] = 1.5, -2.5
        assert (src == 1.5).all() and (dst == -2.5).all()
        src[...], dst[...] = 3.0, 4.0
        assert (att[0] == 3.0).all() and (att[1] == 4.0).all()
    dataset, schema = _mix(100)
    graph = next(graph for graph in (transform(item.trace, schema)
                                     for item in dataset)
                 if uses_edge_list(graph))
    g = np.random.default_rng(5).standard_normal((graph.n_nodes, 1))
    for edge_list in (False, True):
        _, grads = _run_form(graph, build_model(seed=1), g, monkeypatch,
                             edge_list)
        assert np.isfinite(grads.vector).all()
        for k, (_, g_att, *_) in enumerate(grads.blocks, start=1):
            assert g_att[0].tobytes() == grads[f"gat{k}.att_src"].tobytes()
            assert g_att[1].tobytes() == grads[f"gat{k}.att_dst"].tobytes()


@pytest.mark.parametrize("length", [100, 300], ids=["desk", "paper"])
def test_one_score_product_matches_two_products(length, monkeypatch):
    """Probabilities and all 20 gradients within 1e-14 of the blocks with
    the scores of each direction, their gradients and their shares of the
    gradient at z each from a product of their own, over the dense bias and
    over the edge list."""
    dataset, schema = _mix(length)
    for k, item in enumerate(dataset):
        graph = transform(item.trace, schema)
        model = build_model(seed=k)
        g = np.random.default_rng(k).standard_normal((graph.n_nodes, 1))
        for edge_list in (False, True):
            data, grads = _run_form(graph, model, g, monkeypatch, edge_list)
            want, backward = model_reference(
                graph, model, attention_block_two_products,
                graph.edges if edge_list else graph.logit_bias)
            np.testing.assert_allclose(data, want, rtol=0, atol=1e-14)
            want = backward(g)
            assert grads.keys() == want.keys()
            for name, grad in grads.items():
                np.testing.assert_allclose(grad, want[name], rtol=0,
                                           atol=1e-14, err_msg=name)


# ---------------------------------------------------------------------------
# parameter counting

def test_count_parameters_tiny_case():
    # one block of two heads of three dims on one feature: weight, two
    # attention vectors, bias, skip weight and bias of 6 each, then the
    # head's (6, 1) weight and its bias
    model = zero_model((GatLayerConfig(in_dim=1, out_dim_per_head=3, n_heads=2),))
    assert count_parameters(model) == 6 * 6 + 6 + 1


# ---------------------------------------------------------------------------
# a model is checked when it is built

@pytest.mark.parametrize("configs, message", [
    ((), "a model needs at least one layer"),
    ((GatLayerConfig(in_dim=2),), "layer 1 has in_dim 2, its input is 1 wide"),
    ((GatLayerConfig(in_dim=2**62),), "layer 1 has in_dim 4611686018427387904"),
    ((GatLayerConfig(in_dim=1), GatLayerConfig(in_dim=5)),
     "layer 2 has in_dim 5, its input is 128 wide"),
    ((GatLayerConfig(in_dim=1, head_mode="average"), GatLayerConfig(in_dim=128)),
     "layer 2 has in_dim 128, its input is 32 wide"),
], ids=["no layers", "layer 1 in_dim 2", "layer 1 in_dim 2**62",
        "layer 2 in_dim 5", "after an averaging layer"])
def test_model_layers_must_chain(configs, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        GatModel(configs, np.zeros(63201), seed=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"head_mode": "sum"}, "unknown head_mode 'sum'"),
], ids=["unknown head mode"])
def test_layer_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        GatLayerConfig(in_dim=1, **kwargs)


@pytest.mark.parametrize("extra", [1, -1], ids=["one long", "one short"])
def test_model_vector_must_fit_the_layers(extra):
    model = build_model(0)
    vector = np.resize(model.vector, model.vector.size + extra)
    with pytest.raises(ModelError, match=f"^the vector has {63201 + extra} "
                                         "entries, the layers need 63201$"):
        GatModel(model.layer_configs, vector, seed=0)


# ---------------------------------------------------------------------------
# parameter budget

def test_default_model_parameter_budget():
    model = build_model(seed=0)
    assert 20_000 <= count_parameters(model) <= 70_000


def test_doubling_last_layer_heads_adds_exact_delta():
    base = build_model(seed=0)
    cfg = base.layer_configs[2]
    wider = zero_model(base.layer_configs[:2] + (dataclasses.replace(cfg, n_heads=12),))
    per_head = cfg.in_dim * cfg.out_dim_per_head + 2 * cfg.out_dim_per_head
    assert count_parameters(wider) - count_parameters(base) == 6 * per_head


# ---------------------------------------------------------------------------
# gradients through the full model

def test_full_model_gradient_matches_finite_differences():
    run_model_fd_trials(n_trials=20)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = build_model(seed=31)
    rng = np.random.default_rng(1)
    trace = RssiTrace("t", rng.integers(5, 60, size=50).astype(float))
    graph = transform(trace, TraceSchema(expected_length=50))
    before = model_forward(prepare_graph(graph), model).data
    save_checkpoint(tmp_path / "ckpt", model)
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.seed == 31
    after = model_forward(prepare_graph(graph), loaded).data
    assert before.tobytes() == after.tobytes()
    for name in model.params:
        np.testing.assert_array_equal(model.params[name], loaded.params[name])


def test_checkpoint_write_is_deterministic(tmp_path):
    model = build_model(seed=7)
    save_checkpoint(tmp_path / "a", model)
    save_checkpoint(tmp_path / "b", model)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_checkpoint_blob_is_written_before_its_manifest(tmp_path, monkeypatch):
    """The blob is on disk before the manifest that digests it: a manifest
    whose write fails leaves the blob, and a blob whose write fails leaves no
    manifest."""
    import rssigat.gat_model
    real = rssigat.gat_model.open_output
    opened = []

    def failing_output(path, binary=False):
        opened.append(path.suffix)
        if path.suffix == failing:
            raise OSError(28, "No space left on device")
        return real(path, binary)

    monkeypatch.setattr(rssigat.gat_model, "open_output", failing_output)
    for failing, left in ((".json", ["ckpt.bin"]), (".bin", [])):
        opened.clear()
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
        assert opened == [".bin", ".json"][:len(left) + 1]
        assert [p.name for p in tmp_path.iterdir()] == left
        for path in tmp_path.iterdir():
            path.unlink()


def test_checkpoint_digest_catches_a_flipped_byte(tmp_path):
    """The manifest records the blob's sha256; one changed byte that leaves
    every value finite is caught, and a manifest without the digest is
    malformed, so no checkpoint loads unchecked."""
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    blob = tmp_path / "ckpt.bin"
    raw = bytearray(blob.read_bytes())
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    assert manifest["sha256"] == hashlib.sha256(raw).hexdigest()
    raw[0] ^= 1  # the lowest mantissa bit of the first weight
    blob.write_bytes(bytes(raw))
    with pytest.raises(ModelError, match=f"checkpoint blob {re.escape(str(blob))} "
                                         "does not match the sha256"):
        load_checkpoint(tmp_path / "ckpt")
    del manifest["sha256"]
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelError, match="malformed checkpoint manifest "
                                         ".*: KeyError: 'sha256'"):
        load_checkpoint(tmp_path / "ckpt")


def _assert_views_of_one_vector(model):
    assert model.vector.dtype == np.float64
    assert model.vector.size == count_parameters(model)
    for p in model.params.values():
        assert np.shares_memory(p, model.vector)


def test_parameters_are_views_of_one_vector(tmp_path):
    """Built, loaded and unpickled models hold every parameter in one
    vector, in ``_param_table`` order."""
    model = build_model(seed=3)
    _assert_views_of_one_vector(model)
    assert model.vector.tobytes() == b"".join(
        p.tobytes() for p in model.params.values())
    save_checkpoint(tmp_path / "ckpt", model)
    loaded = load_checkpoint(tmp_path / "ckpt")
    _assert_views_of_one_vector(loaded)
    assert loaded.vector.tobytes() == (tmp_path / "ckpt.bin").read_bytes()
    copied = pickle.loads(pickle.dumps(loaded))
    _assert_views_of_one_vector(copied)
    assert copied.vector.tobytes() == model.vector.tobytes()
    copied.vector[:] = 0.0
    assert not copied.params["out.weight"].any()


def test_checkpoint_truncated_blob_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    blob = tmp_path / "ckpt.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ModelError, match="blob has 505600 bytes, "
                                         "the manifest needs 505608"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_swapped_shapes_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    manifest_path = tmp_path / "ckpt.json"
    manifest = json.loads(manifest_path.read_text())
    out = next(t for t in manifest["tensors"] if t["name"] == "out.weight")
    out["shape"] = out["shape"][::-1]
    manifest_path.write_text(json.dumps(manifest))
    _refused_as_other_model(tmp_path / "ckpt")


def test_checkpoint_non_finite_value_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    blob = tmp_path / "ckpt.bin"
    values = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
    values[-2] = np.nan  # the last entry of out.weight
    blob.write_bytes(values.tobytes())
    with pytest.raises(ModelError, match="checkpoint tensor out.weight has "
                                         "non-finite values"):
        load_checkpoint(tmp_path / "ckpt")


def other_model_message(base) -> str:
    """The error for a checkpoint at ``base`` whose manifest describes
    another model than the paper's."""
    return (f"checkpoint {base} does not hold the paper's model: its layers "
            f"or tensors differ")


def _refused_as_other_model(base):
    with pytest.raises(ModelError,
                       match=f"^{re.escape(other_model_message(base))}$"):
        load_checkpoint(base)


def test_checkpoint_of_another_architecture_is_model_error(tmp_path):
    """A checkpoint saved from a model of other layers, here gradcheck's toy
    one, is consistent in itself but is not the paper's model: it is
    refused."""
    save_checkpoint(tmp_path / "toy", zero_model(TOY_LAYERS))
    _refused_as_other_model(tmp_path / "toy")


def save_unchained_checkpoint(base, layer, in_dim):
    """A checkpoint of ``build_model``'s layers, but with layer ``layer``
    taking ``in_dim`` features. Its tensor list, a zero blob and the digest
    are rebuilt to match, so only the chain between the layers is wrong."""
    save_checkpoint(base, build_model(seed=0))
    manifest_path = base.with_suffix(".json")
    manifest = json.loads(manifest_path.read_text())
    manifest["layers"][layer - 1]["in_dim"] = in_dim
    table = _param_table([GatLayerConfig(**cfg) for cfg in manifest["layers"]])
    manifest["tensors"] = [{"name": name, "shape": list(shape)}
                           for name, shape, _ in table]
    blob = np.zeros(sum(math.prod(shape) for _, shape, _ in table)).tobytes()
    manifest["sha256"] = hashlib.sha256(blob).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    base.with_suffix(".bin").write_bytes(blob)


@pytest.mark.parametrize("layer, in_dim", [(1, 2), (2, 5), (3, 127)],
                         ids=["layer 1", "layer 2", "layer 3"])
def test_checkpoint_whose_layers_do_not_chain_is_model_error(tmp_path, layer,
                                                            in_dim):
    save_unchained_checkpoint(tmp_path / "ckpt", layer, in_dim)
    _refused_as_other_model(tmp_path / "ckpt")


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A saved default model's path and its manifest."""
    base = tmp_path_factory.mktemp("ckpt") / "ckpt"
    save_checkpoint(base, build_model(seed=0))
    return base, json.loads(base.with_suffix(".json").read_text())


def _load_with_manifest(base, text):
    base.with_suffix(".json").write_text(text)
    return load_checkpoint(base)


def _edited(manifest, edit):
    manifest = copy.deepcopy(manifest)
    edit(manifest)
    return json.dumps(manifest)


def _with_in_dim(manifest, in_dim):
    """Layer 1 takes ``in_dim`` features, and the tensor list agrees."""
    def edit(m):
        m["layers"][0]["in_dim"] = in_dim
        for tensor in m["tensors"]:
            if tensor["name"] in ("gat1.weight", "skip1.weight"):
                tensor["shape"][0] = in_dim
    return _edited(manifest, edit)


# every edit of the layers or tensors describes another model
_OTHER = "does not hold the paper's model: its layers or tensors differ$"


@pytest.mark.parametrize("text, message", [
    (lambda m: _edited(m, lambda m: m.pop("layers")), "KeyError: 'layers'"),
    (lambda m: _edited(m, lambda m: m["layers"].__setitem__(0, 7)), _OTHER),
    (lambda m: _edited(m, lambda m: m["layers"][0].update(depth=2)), _OTHER),
    (lambda m: _edited(m, lambda m: m["layers"][0].update(in_dim="1")), _OTHER),
    (lambda m: _edited(m, lambda m: m["layers"][0].update(in_dim=True)), _OTHER),
    (lambda m: _edited(m, lambda m: m["layers"][0].update(in_dim=1.0)), _OTHER),
    (lambda m: _edited(m, lambda m: m["layers"][0].update(leaky_slope=True)),
     _OTHER),
    (lambda m: _edited(m, lambda m: m["layers"][0].update(leaky_slope=10**400)),
     _OTHER),
    (lambda m: _with_in_dim(m, 2**62), _OTHER),
    # (2**57 + 1) * 128 wraps to 128 in int64; the blob's length is the
    # paper's model's, never computed from the manifest
    (lambda m: _with_in_dim(m, 2**57 + 1), _OTHER),
    (lambda m: _edited(m, lambda m: m["tensors"][0].pop("shape")), _OTHER),
    (lambda m: json.dumps([m]), "AttributeError"),
    (lambda m: "{not json", "JSONDecodeError"),
    (lambda m: "[" * 100_000, "RecursionError"),
], ids=["no layers", "non-dict layer", "unknown layer key", "string in_dim",
        "boolean in_dim", "float in_dim", "boolean leaky_slope",
        "oversized leaky_slope", "in_dim 2**62", "in_dim wrapping int64",
        "tensor without shape", "list manifest", "not JSON", "too deep"])
def test_malformed_manifest_is_model_error(saved_checkpoint, text, message):
    base, manifest = saved_checkpoint
    with pytest.raises(ModelError, match=message):
        _load_with_manifest(base, text(manifest))


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_load_checkpoint_raises_only_model_error(saved_checkpoint, data):
    """Arbitrary text, arbitrary JSON, or a valid manifest with some fields
    replaced or deleted either loads or raises ModelError."""
    base, manifest = saved_checkpoint
    text = data.draw(st.text(max_size=20)
                     | JSON_VALUES.map(json.dumps)
                     | changed_records(manifest).map(json.dumps))
    try:
        model = _load_with_manifest(base, text)
    except ModelError:
        return
    assert count_parameters(model) == 505608 // 8
