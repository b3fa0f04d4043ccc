"""Per-node classifier: three attention blocks with linear skip connections.

Each block computes multi-head attention over the incoming edges of every
node (edge weights enter the attention logits as an additive log bias), adds
a learnable linear projection of the block input, and applies ReLU. A final
linear head plus sigmoid yields one anomaly probability per time step.

The forward pass runs on the rows of a ``TsGraph``: in the value-class
graph from ``transform`` all nodes of a row share feature and in-edges, so a
class edge i -> j stands for ``row_sizes[i]`` equal node edges, folded into
the attention bias as ln(row size). This is exact, not an approximation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import tensor_core as tc
from .mtf_graph import TsGraph
from .tensor_core import Tensor


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class GatLayerConfig:
    in_dim: int
    out_dim_per_head: int = 32
    n_heads: int = 4
    head_mode: str = "concat"  # or "average"
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.head_mode not in ("concat", "average"):
            raise ModelError(f"unknown head_mode {self.head_mode!r}")
        if self.in_dim < 1 or self.out_dim_per_head < 1 or self.n_heads < 1:
            raise ModelError("layer dimensions must be >= 1")

    @property
    def out_width(self) -> int:
        if self.head_mode == "concat":
            return self.n_heads * self.out_dim_per_head
        return self.out_dim_per_head


@dataclass
class GatModel:
    layer_configs: tuple[GatLayerConfig, ...]
    params: dict[str, Tensor]
    seed: int

    @property
    def parameter_count(self) -> int:
        return count_parameters(self)

    @property
    def in_dim(self) -> int:
        return self.layer_configs[0].in_dim


def count_parameters(model: GatModel) -> int:
    return sum(t.size for t in model.params.values())


def _glorot(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def build_model(seed: int = 0, in_dim: int = 1, filters: int = 32,
                heads: tuple[int, ...] = (4, 4, 6),
                leaky_slope: float = 0.2) -> GatModel:
    """Default architecture: three blocks of `filters` output dims per head,
    heads concatenated except in the last block, which averages them."""
    configs = []
    prev = in_dim
    for i, h in enumerate(heads):
        cfg = GatLayerConfig(in_dim=prev, out_dim_per_head=filters, n_heads=h,
                             head_mode="average" if i == len(heads) - 1 else "concat",
                             leaky_slope=leaky_slope)
        configs.append(cfg)
        prev = cfg.out_width
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for k, cfg in enumerate(configs, start=1):
        f = cfg.out_dim_per_head
        params[f"gat{k}.weight"] = Tensor(
            _glorot(rng, (cfg.in_dim, cfg.n_heads * f), cfg.in_dim, f),
            requires_grad=True)
        params[f"gat{k}.att_src"] = Tensor(
            _glorot(rng, (cfg.n_heads, f), f, 1), requires_grad=True)
        params[f"gat{k}.att_dst"] = Tensor(
            _glorot(rng, (cfg.n_heads, f), f, 1), requires_grad=True)
        params[f"gat{k}.bias"] = Tensor(np.zeros(cfg.out_width), requires_grad=True)
        params[f"skip{k}.weight"] = Tensor(
            _glorot(rng, (cfg.in_dim, cfg.out_width), cfg.in_dim, cfg.out_width),
            requires_grad=True)
        params[f"skip{k}.bias"] = Tensor(np.zeros(cfg.out_width), requires_grad=True)
    last = configs[-1].out_width
    params["out.weight"] = Tensor(_glorot(rng, (last, 1), last, 1), requires_grad=True)
    params["out.bias"] = Tensor(np.zeros(1), requires_grad=True)
    return GatModel(layer_configs=tuple(configs), params=params, seed=seed)


# ---------------------------------------------------------------------------
# graph preparation

@dataclass
class PreparedGraph:
    """Attention-ready form of a TsGraph.

    ``node_map`` sends each original node to the row the layers operate on;
    edges are sorted by destination, each with an additive attention bias of
    ln(edge weight) + ln(source row size). Rows without a self edge get a
    weight-1 self loop of multiplicity 1.
    """

    n_rows: int
    row_features: Tensor
    node_map: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    logit_bias: Tensor


def prepare_graph(graph: TsGraph, collapse: bool = True) -> PreparedGraph:
    """Prepare the graph's rows; ``collapse=False`` first expands it to one
    row per node, the per-node reference the class rows must reproduce."""
    if not collapse:
        graph = graph.expand()
    n_rows = graph.n_rows
    src = graph.edge_src.astype(np.int64)
    dst = graph.edge_dst.astype(np.int64)
    weights = graph.edge_weights.astype(np.float64)
    mult = graph.row_sizes[src].astype(np.float64)
    has_self = np.zeros(n_rows, dtype=bool)
    has_self[src[src == dst]] = True
    missing = np.flatnonzero(~has_self)
    src = np.r_[src, missing]
    dst = np.r_[dst, missing]
    weights = np.r_[weights, np.ones(missing.size)]
    mult = np.r_[mult, np.ones(missing.size)]
    order = np.lexsort((src, dst))
    bias = (np.log(weights) + np.log(mult))[order][:, None]
    return PreparedGraph(
        n_rows=n_rows,
        row_features=tc.constant(graph.row_features[:, None]),
        node_map=graph.node_map,
        src=src[order],
        dst=dst[order],
        logit_bias=tc.constant(bias),
    )


# ---------------------------------------------------------------------------
# forward passes

def _attention_block(h: Tensor, prep: PreparedGraph, cfg: GatLayerConfig,
                     params: dict[str, Tensor], prefix: str) -> Tensor:
    n, f = prep.n_rows, cfg.out_dim_per_head
    z = tc.matmul(h, params[f"{prefix}.weight"])
    z3 = tc.reshape(z, (n, cfg.n_heads, f))
    s_src = tc.sum_last(tc.mul(z3, params[f"{prefix}.att_src"]))
    s_dst = tc.sum_last(tc.mul(z3, params[f"{prefix}.att_dst"]))
    logits = tc.add(tc.gather_rows(s_src, prep.src),
                    tc.gather_rows(s_dst, prep.dst))
    logits = tc.leaky_relu(logits, cfg.leaky_slope)
    logits = tc.add(logits, prep.logit_bias)
    alpha = tc.segment_softmax(logits, prep.dst)
    messages = tc.mul(tc.reshape(alpha, (prep.src.size, cfg.n_heads, 1)),
                      tc.gather_rows(z3, prep.src))
    agg = tc.scatter_add_rows(messages, prep.dst, n)
    if cfg.head_mode == "concat":
        out = tc.reshape(agg, (n, cfg.n_heads * f))
    else:
        out = tc.mean_axis(agg, 1)
    return tc.add(out, params[f"{prefix}.bias"])


def gat_layer_forward(features: Tensor, graph: TsGraph | PreparedGraph,
                      cfg: GatLayerConfig, params: dict[str, Tensor],
                      prefix: str = "gat1") -> Tensor:
    """One attention layer over per-node features (the graph is expanded)."""
    prep = graph if isinstance(graph, PreparedGraph) else prepare_graph(graph, collapse=False)
    if features.data.ndim != 2 or features.data.shape != (prep.n_rows, cfg.in_dim):
        raise ModelError(
            f"features {features.data.shape} do not match "
            f"({prep.n_rows}, {cfg.in_dim})")
    return _attention_block(features, prep, cfg, params, prefix)


def model_forward(graph: TsGraph | PreparedGraph, model: GatModel) -> Tensor:
    """Anomaly probability per original node, shape (N, 1)."""
    prep = graph if isinstance(graph, PreparedGraph) else prepare_graph(graph)
    h = prep.row_features
    if h.data.shape[1] != model.in_dim:
        raise ModelError("graph features do not match model input width")
    for k, cfg in enumerate(model.layer_configs, start=1):
        gat = _attention_block(h, prep, cfg, model.params, f"gat{k}")
        skip = tc.add(tc.matmul(h, model.params[f"skip{k}.weight"]),
                      model.params[f"skip{k}.bias"])
        h = tc.relu(tc.add(gat, skip))
    logits = tc.add(tc.matmul(h, model.params["out.weight"]),
                    model.params["out.bias"])
    probs = tc.sigmoid(logits)
    return tc.gather_rows(probs, prep.node_map)


def predict(graph: TsGraph | PreparedGraph, model: GatModel,
            threshold: float = 0.5) -> np.ndarray:
    probs = model_forward(graph, model).data[:, 0]
    return (probs >= threshold).astype(np.int8)


# ---------------------------------------------------------------------------
# checkpoints: a JSON manifest beside a raw little-endian float64 blob

def save_checkpoint(path, model: GatModel) -> tuple[Path, Path]:
    base = Path(path)
    manifest_path = base.with_suffix(".json")
    blob_path = base.with_suffix(".bin")
    manifest = {
        "format": "rssigat-checkpoint-v1",
        "seed": model.seed,
        "layers": [asdict(cfg) for cfg in model.layer_configs],
        "tensors": [{"name": name, "shape": list(t.shape)}
                    for name, t in model.params.items()],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    with open(blob_path, "wb") as fh:
        for t in model.params.values():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return manifest_path, blob_path


def load_checkpoint(path) -> GatModel:
    base = Path(path)
    manifest = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    if manifest.get("format") != "rssigat-checkpoint-v1":
        raise ModelError(f"unrecognized checkpoint format in {base}")
    configs = tuple(GatLayerConfig(**cfg) for cfg in manifest["layers"])
    raw = base.with_suffix(".bin").read_bytes()
    params: dict[str, Tensor] = {}
    offset = 0
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(shape)
        offset += n * 8
        params[entry["name"]] = Tensor(arr.astype(np.float64), requires_grad=True)
    if offset != len(raw):
        raise ModelError("checkpoint blob size does not match manifest")
    return GatModel(layer_configs=configs, params=params, seed=manifest["seed"])
