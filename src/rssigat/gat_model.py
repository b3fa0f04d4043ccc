"""Per-node classifier: three attention blocks with linear skip connections.

Each block is dense masked multi-head attention (Velickovic et al. 2018):
per head, a row softmax of C x C logits LeakyReLU(s_dst[i] + s_src[j]) +
ln(edge weight) under the 0/1 edge mask, times the projected rows. The
projection and the attention are one tape op, ``tc.graph_attention``. A
block adds a learnable linear projection of its input (``tc.linear``) and
applies ReLU. A final linear head plus sigmoid yields one anomaly
probability per time step.

The forward pass runs on the rows of a ``TsGraph``: in the value-class
graph from ``transform`` all nodes of a row share feature and in-edges, so a
class edge i -> j stands for ``row_sizes[i]`` equal node edges, folded into
the attention bias as ln(row size). This is exact, not an approximation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from itertools import zip_longest
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
    """Attention-ready form of a TsGraph as dense C x C matrices.

    ``node_map`` sends each original node to the row the layers operate on.
    ``mask[dst, src]`` marks the edges plus every self loop; ``logit_bias``
    holds ln(edge weight) + ln(source row size) on edges and 0 on the added
    self loops (weight 1, multiplicity 1).
    """

    n_rows: int
    row_features: Tensor
    node_map: np.ndarray
    mask: np.ndarray
    logit_bias: Tensor

    @property
    def src(self) -> np.ndarray:
        return np.nonzero(self.mask)[1]

    @property
    def dst(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]


def prepare_graph(graph: TsGraph, collapse: bool = True) -> PreparedGraph:
    """Prepare the graph's rows; ``collapse=False`` first expands it to one
    row per node, the per-node reference the class rows must reproduce."""
    if not collapse:
        graph = graph.expand()
    n_rows = graph.n_rows
    src, dst = graph.edge_src, graph.edge_dst
    mask = np.eye(n_rows, dtype=bool)
    mask[dst, src] = True
    bias = np.zeros((n_rows, n_rows))
    bias[dst, src] = np.log(graph.edge_weights) + np.log(graph.row_sizes[src])
    return PreparedGraph(
        n_rows=n_rows,
        row_features=tc.constant(graph.row_features[:, None]),
        node_map=graph.node_map,
        mask=mask,
        logit_bias=tc.constant(bias),
    )


# ---------------------------------------------------------------------------
# forward passes

def _attention_block(h: Tensor, prep: PreparedGraph, cfg: GatLayerConfig,
                     params: dict[str, Tensor], prefix: str) -> Tensor:
    return tc.graph_attention(
        h, params[f"{prefix}.weight"], params[f"{prefix}.att_dst"],
        params[f"{prefix}.att_src"], params[f"{prefix}.bias"], prep.logit_bias,
        prep.mask, cfg.leaky_slope, cfg.head_mode)


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
        skip = tc.linear(h, model.params[f"skip{k}.weight"],
                         model.params[f"skip{k}.bias"])
        h = tc.relu(tc.add(gat, skip))
    logits = tc.linear(h, model.params["out.weight"], model.params["out.bias"])
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


def _param_shapes(configs: tuple[GatLayerConfig, ...]) -> dict[str, tuple[int, ...]]:
    """Tensor names and shapes ``build_model`` creates, in creation order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for k, cfg in enumerate(configs, start=1):
        f = cfg.out_dim_per_head
        shapes[f"gat{k}.weight"] = (cfg.in_dim, cfg.n_heads * f)
        shapes[f"gat{k}.att_src"] = (cfg.n_heads, f)
        shapes[f"gat{k}.att_dst"] = (cfg.n_heads, f)
        shapes[f"gat{k}.bias"] = (cfg.out_width,)
        shapes[f"skip{k}.weight"] = (cfg.in_dim, cfg.out_width)
        shapes[f"skip{k}.bias"] = (cfg.out_width,)
    shapes["out.weight"] = (configs[-1].out_width, 1)
    shapes["out.bias"] = (1,)
    return shapes


def load_checkpoint(path) -> GatModel:
    base = Path(path)
    manifest = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    if manifest.get("format") != "rssigat-checkpoint-v1":
        raise ModelError(f"unrecognized checkpoint format in {base}")
    configs = tuple(GatLayerConfig(**cfg) for cfg in manifest["layers"])
    if not configs:
        raise ModelError(f"checkpoint {base} has no layers")
    expected = list(_param_shapes(configs).items())
    listed = [(entry["name"], tuple(entry["shape"])) for entry in manifest["tensors"]]
    for have, want in zip_longest(listed, expected):
        if have != want:
            raise ModelError(f"checkpoint tensor {have} does not match "
                             f"the layers' {want}")
    sizes = [int(np.prod(shape)) for _, shape in expected]
    raw = base.with_suffix(".bin").read_bytes()
    if len(raw) != 8 * sum(sizes):
        raise ModelError(f"checkpoint blob has {len(raw)} bytes, "
                         f"the manifest needs {8 * sum(sizes)}")
    chunks = np.split(np.frombuffer(raw, dtype="<f8").astype(np.float64),
                      np.cumsum(sizes)[:-1])
    params = {name: Tensor(chunk.reshape(shape), requires_grad=True)
              for (name, shape), chunk in zip(expected, chunks)}
    return GatModel(layer_configs=configs, params=params, seed=manifest["seed"])
