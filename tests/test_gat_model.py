import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rssigat.tensor_core as tc
from rssigat.gat_model import (GatLayerConfig, GatModel, ModelError, build_model,
                               count_parameters, load_checkpoint, model_forward,
                               predict, prepare_graph, save_checkpoint)
from rssigat.mtf_graph import TsGraph, transform
from rssigat.trace import RssiTrace, TraceSchema
from oracles import dense_gat_oracle, model_forward_oracle
from gradcheck import run_model_fd_trials
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
    return tc.graph_attention(
        features, params[f"{prefix}.weight"], params[f"{prefix}.att_dst"],
        params[f"{prefix}.att_src"], params[f"{prefix}.bias"], prep.logit_bias,
        prep.mask, cfg.leaky_slope, cfg.head_mode)[0]


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


def _attention_coefficients(h, weight, att_dst, att_src, prep, slope):
    """Alpha (heads, dst, src) of ``graph_attention`` on the rows ``h``, read
    through the op itself: with z = I per head and the rows' s_dst, s_src as
    attention vectors, the logits are unchanged and each head outputs
    alpha @ I."""
    heads, f = att_dst.shape
    n = prep.n_rows
    z = (h @ weight).reshape(n, heads, f).transpose(1, 0, 2)
    s_dst, s_src = ((z @ att[:, :, None])[:, :, 0] for att in (att_dst, att_src))
    probe, _ = tc.graph_attention(
        np.eye(n), np.tile(np.eye(n), (1, heads)), s_dst, s_src,
        np.zeros(heads * n), prep.logit_bias, prep.mask, slope, "concat")
    return probe.reshape(n, heads, n).transpose(1, 0, 2)


def test_attention_coefficients_sum_to_one_per_destination():
    trace = RssiTrace("t", np.random.default_rng(0).integers(20, 45, 60).astype(float))
    graph = transform(trace, TraceSchema(expected_length=60))
    prep = prepare_graph(graph)
    model = build_model(seed=3)
    p = model.params
    assert len(model.layer_configs) == 3
    h = prep.row_features  # each block's input rows, by re-running the ops
    for k, cfg in enumerate(model.layer_configs, start=1):
        alpha = _attention_coefficients(h, p[f"gat{k}.weight"], p[f"gat{k}.att_dst"],
                                        p[f"gat{k}.att_src"], prep, cfg.leaky_slope)
        assert alpha.shape == (cfg.n_heads, *prep.mask.shape)
        np.testing.assert_allclose(np.where(prep.mask, alpha, 0.0).sum(axis=-1),
                                   1.0, atol=1e-9)
        assert np.all(alpha[:, ~prep.mask] == 0.0)
        gat, _ = tc.graph_attention(
            h, p[f"gat{k}.weight"], p[f"gat{k}.att_dst"], p[f"gat{k}.att_src"],
            p[f"gat{k}.bias"], prep.logit_bias, prep.mask, cfg.leaky_slope,
            cfg.head_mode)
        h = np.maximum(gat + h @ p[f"skip{k}.weight"] + p[f"skip{k}.bias"], 0.0)


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
    np.testing.assert_array_equal(predict(graph, model, threshold=0.0), np.ones(30))
    labels = predict(graph, model, threshold=0.5)
    np.testing.assert_array_equal(labels, (probs >= 0.5).astype(np.int8))
    assert set(np.unique(labels)) <= {0, 1}


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(4)
    trace = RssiTrace("t", rng.integers(0, 128, size=80).astype(float))
    graph = transform(trace, TraceSchema(expected_length=80))
    model = build_model(seed=9)
    a = model_forward(prepare_graph(graph), model).data
    b = model_forward(prepare_graph(graph), model).data
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("values", ["repeated", "distinct"])
@pytest.mark.parametrize("n_bins", [None, 4, 16])
def test_value_collapse_matches_plain_edges(n_bins, values):
    rng = np.random.default_rng(6)
    if values == "repeated":
        samples = rng.integers(30, 38, size=90).astype(float)
    else:
        samples = rng.permutation(np.linspace(10.0, 100.0, 90))
    graph = transform(RssiTrace("t", samples), TraceSchema(expected_length=90),
                      n_bins=n_bins)
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
            prep.row_features, prep.node_map, prep.mask, prep.logit_bias,
            model.layer_configs, model.params)
        np.testing.assert_allclose(model_forward(prep, model).data, expected,
                                   rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# parameter counting

def test_count_parameters_tiny_case():
    params = {"w": np.zeros((2, 3)), "b": np.zeros(3)}
    model = GatModel(layer_configs=(GatLayerConfig(in_dim=2),), params=params, seed=0)
    assert count_parameters(model) == 9


def test_default_model_parameter_budget():
    model = build_model(seed=0)
    assert 20_000 <= count_parameters(model) <= 70_000


def test_doubling_last_layer_heads_adds_exact_delta():
    base = build_model(seed=0)
    wider = build_model(seed=0, heads=(4, 4, 12))
    cfg = base.layer_configs[2]
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
    with pytest.raises(ModelError, match=r"\('out.weight', \(1, 32\)\) does not "
                                         r"match the layers' \('out.weight', \(32, 1\)\)"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_non_finite_value_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    blob = tmp_path / "ckpt.bin"
    values = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
    values[-2] = np.nan  # the last entry of out.weight
    blob.write_bytes(values.tobytes())
    with pytest.raises(ModelError, match="checkpoint tensor out.weight has "
                                         "non-finite values"):
        load_checkpoint(tmp_path / "ckpt")


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


@pytest.mark.parametrize("text, message", [
    (lambda m: _edited(m, lambda m: m.pop("layers")), "KeyError: 'layers'"),
    (lambda m: _edited(m, lambda m: m["layers"].__setitem__(0, 7)),
     "TypeError"),
    (lambda m: _edited(m, lambda m: m["layers"][0].update(depth=2)),
     "TypeError.*'depth'"),
    (lambda m: _edited(m, lambda m: m["layers"][0].update(in_dim="1")),
     "layer dimensions must be integers >= 1"),
    (lambda m: _edited(m, lambda m: m["layers"][0].update(in_dim=True)),
     "layer dimensions must be integers >= 1"),
    (lambda m: _edited(m, lambda m: m["tensors"][0].pop("shape")),
     "KeyError: 'shape'"),
    (lambda m: json.dumps([m]), "AttributeError"),
    (lambda m: "{not json", "JSONDecodeError"),
], ids=["no layers", "non-dict layer", "unknown layer key", "string in_dim",
        "boolean in_dim", "tensor without shape", "list manifest", "not JSON"])
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
