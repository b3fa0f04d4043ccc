"""Per-node classifier: three attention blocks with linear skip connections.

Each block is dense multi-head graph attention (Velickovic et al. 2018):
per head, a row softmax of C x C logits LeakyReLU(s_dst[i] + s_src[j]) +
``logit_bias[i, j]``, times the projected rows. The bias is ln(edge weight)
on the edges and -inf off them, so the softmax gives non-edges exactly 0.
The projection and the attention are one op, ``tc.graph_attention``. A block
adds a learnable linear projection of its input (``tc.linear``) and applies
ReLU. A final linear head plus sigmoid yields one anomaly probability per
time step.

``model_forward`` keeps the ``back`` closure of each op it calls, and
``model_backward`` calls them in reverse to get the gradient of every
parameter; there is no general autodiff engine behind them.

The forward pass runs on the rows of a ``TsGraph``, through its C x C
``weights``: in the value-class graph from ``transform`` all nodes of a row
share feature and in-edges, so a class edge i -> j stands for
``row_sizes[i]`` equal node edges, folded into the attention bias as
ln(row size). This is exact, not an approximation.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor_core as tc
from .mtf_graph import TsGraph


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
        dims = (self.in_dim, self.out_dim_per_head, self.n_heads)
        if not all(isinstance(d, (int, np.integer)) and type(d) is not bool
                   and d >= 1 for d in dims):
            raise ModelError("layer dimensions must be integers >= 1")
        if not (isinstance(self.leaky_slope, (int, float))
                and np.isfinite(self.leaky_slope)):
            raise ModelError("leaky_slope must be a finite number")

    @property
    def out_width(self) -> int:
        if self.head_mode == "concat":
            return self.n_heads * self.out_dim_per_head
        return self.out_dim_per_head


@dataclass
class GatModel:
    """The layers and their parameters. ``vector`` holds every parameter, in
    the order of ``params`` (``_param_table`` order for a built or loaded
    model), and each ``params[name]`` is a view into it: the vector is the
    checkpoint blob and what the optimizer updates."""

    layer_configs: tuple[GatLayerConfig, ...]
    params: dict[str, np.ndarray]
    seed: int
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vector = np.concatenate([np.ravel(p) for p in self.params.values()],
                                     dtype=np.float64)
        self.params = self.views(self.vector)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """``vector``, laid out as ``self.vector``, cut into views named and
        shaped as ``params``."""
        views, start = {}, 0
        for name, p in self.params.items():
            views[name] = vector[start:start + p.size].reshape(p.shape)
            start += p.size
        return views

    def __reduce__(self):
        # rebuilt by the constructor, so the copy's params view one vector
        return GatModel, (self.layer_configs, self.params, self.seed)

    @property
    def in_dim(self) -> int:
        return self.layer_configs[0].in_dim


def count_parameters(model: GatModel) -> int:
    return sum(t.size for t in model.params.values())


def _glorot(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _param_table(configs) -> list[tuple]:
    """(name, shape, fans) of every parameter, in creation order: a weight
    is drawn Glorot-uniform for its (fan_in, fan_out), and ``None`` marks a
    bias, which starts at zero."""
    table = []
    for k, cfg in enumerate(configs, start=1):
        f, width = cfg.out_dim_per_head, cfg.out_width
        table += [
            (f"gat{k}.weight", (cfg.in_dim, cfg.n_heads * f), (cfg.in_dim, f)),
            (f"gat{k}.att_src", (cfg.n_heads, f), (f, 1)),
            (f"gat{k}.att_dst", (cfg.n_heads, f), (f, 1)),
            (f"gat{k}.bias", (width,), None),
            (f"skip{k}.weight", (cfg.in_dim, width), (cfg.in_dim, width)),
            (f"skip{k}.bias", (width,), None),
        ]
    last = configs[-1].out_width
    return table + [("out.weight", (last, 1), (last, 1)),
                    ("out.bias", (1,), None)]


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
    params = {name: np.zeros(shape) if fans is None
              else _glorot(rng, shape, *fans)
              for name, shape, fans in _param_table(configs)}
    return GatModel(layer_configs=tuple(configs), params=params, seed=seed)


# ---------------------------------------------------------------------------
# graph preparation

@dataclass
class PreparedGraph:
    """Attention-ready form of a TsGraph as dense C x C matrices.

    ``node_map`` sends each original node to the row the layers operate on.
    ``logit_bias[dst, src]`` is ln(edge weight) + ln(source row size) on the
    edges, 0 on the added self loops (weight 1, multiplicity 1) and -inf
    elsewhere.
    """

    n_rows: int
    row_features: np.ndarray
    node_map: np.ndarray
    logit_bias: np.ndarray

    @property
    def src(self) -> np.ndarray:
        return np.nonzero(np.isfinite(self.logit_bias))[1]


def prepare_graph(graph: TsGraph, collapse: bool = True) -> PreparedGraph:
    """Prepare the graph's rows; ``collapse=False`` first expands it to one
    row per node, the per-node reference the class rows must reproduce."""
    if not collapse:
        graph = graph.expand()
    with np.errstate(divide="ignore"):  # ln 0 = -inf off the edges
        bias = np.log(graph.weights.T) + np.log(graph.row_sizes)
    loops = np.diagonal(bias)
    np.fill_diagonal(bias, np.where(loops == -np.inf, 0.0, loops))
    return PreparedGraph(
        n_rows=graph.n_rows,
        row_features=np.asarray(graph.row_features, dtype=np.float64)[:, None],
        node_map=graph.node_map,
        logit_bias=bias,
    )


# ---------------------------------------------------------------------------
# forward passes

@dataclass
class Forward:
    """One forward pass. ``data`` is the (N, 1) anomaly probability per
    node. ``blocks`` holds each block's (attention, skip, ReLU) ``back``
    closures and ``head`` those of the output linear, sigmoid and row
    gather, for ``model_backward``."""

    data: np.ndarray
    blocks: list[tuple[Callable, Callable, Callable]]
    head: tuple[Callable, Callable, Callable]


def model_forward(prep: PreparedGraph, model: GatModel) -> Forward:
    """Anomaly probability per original node, ``.data`` of shape (N, 1)."""
    h = prep.row_features
    if h.shape[1] != model.in_dim:
        raise ModelError("graph features do not match model input width")
    params = model.params
    blocks = []
    for k, cfg in enumerate(model.layer_configs, start=1):
        gat, gat_back = tc.graph_attention(
            h, params[f"gat{k}.weight"], params[f"gat{k}.att_dst"],
            params[f"gat{k}.att_src"], params[f"gat{k}.bias"],
            prep.logit_bias, cfg.leaky_slope, cfg.head_mode)
        skip, skip_back = tc.linear(h, params[f"skip{k}.weight"],
                                    params[f"skip{k}.bias"])
        total = gat + skip
        tc.ensure_finite(total, f"block {k} sum")
        h, relu_back = tc.relu(total)
        blocks.append((gat_back, skip_back, relu_back))
    logits, out_back = tc.linear(h, params["out.weight"], params["out.bias"])
    probs, sigmoid_back = tc.sigmoid(logits)
    data, gather_back = tc.gather_rows(probs, prep.node_map)
    return Forward(data, blocks, (out_back, sigmoid_back, gather_back))


def model_backward(fwd: Forward, g: np.ndarray,
                   grads: dict[str, np.ndarray]) -> None:
    """Write the gradient of every parameter into ``grads``, views named as
    the parameters (see ``GatModel.views``), given ``g``, the gradient at
    ``fwd.data``: the forward's ``back`` closures in reverse order, each
    writing its parameters' gradients into their views, with no copy. A
    block's input gradient is its skip part plus its attention part; the
    first block's rows are constant and get none."""
    out_back, sigmoid_back, gather_back = fwd.head
    g = out_back(sigmoid_back(gather_back(g)),
                 out=(grads["out.weight"], grads["out.bias"]))[0]
    for k in range(len(fwd.blocks), 0, -1):
        gat_back, skip_back, relu_back = fwd.blocks[k - 1]
        g = relu_back(g)
        g_skip = skip_back(g, input_grad=k > 1,
                           out=(grads[f"skip{k}.weight"], grads[f"skip{k}.bias"]))[0]
        g_gat = gat_back(g, input_grad=k > 1, out=(
            grads[f"gat{k}.weight"], grads[f"gat{k}.att_dst"],
            grads[f"gat{k}.att_src"], grads[f"gat{k}.bias"]))[0]
        if k > 1:
            g = g_skip + g_gat


def predict(graph: TsGraph, model: GatModel,
            threshold: float = 0.5) -> np.ndarray:
    probs = model_forward(prepare_graph(graph), model).data[:, 0]
    return (probs >= threshold).astype(np.int8)


# ---------------------------------------------------------------------------
# checkpoints: a JSON manifest beside a raw little-endian float64 blob, the
# model's vector, whose sha256 the manifest records

def save_checkpoint(path, model: GatModel) -> tuple[Path, Path]:
    base = Path(path)
    manifest_path = base.with_suffix(".json")
    blob_path = base.with_suffix(".bin")
    blob = model.vector.astype("<f8", copy=False).tobytes()
    manifest = {
        "format": "rssigat-checkpoint-v1",
        "seed": model.seed,
        "layers": [asdict(cfg) for cfg in model.layer_configs],
        "tensors": [{"name": name, "shape": list(t.shape)}
                    for name, t in model.params.items()],
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    blob_path.write_bytes(blob)
    return manifest_path, blob_path


def load_checkpoint(path) -> GatModel:
    """The model saved at ``path``; ModelError if its manifest is malformed
    or disagrees with its blob. A manifest without a sha256, as written
    before it was recorded, loads unchecked."""
    base = Path(path)
    try:
        manifest = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
        if manifest.get("format") != "rssigat-checkpoint-v1":
            raise ModelError(f"unrecognized checkpoint format in {base}")
        configs = tuple(GatLayerConfig(**cfg) for cfg in manifest["layers"])
        listed = [(entry["name"], tuple(entry["shape"]))
                  for entry in manifest["tensors"]]
        seed = manifest["seed"]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"malformed checkpoint manifest {base}: "
                         f"{type(exc).__name__}: {exc}") from None
    if not configs:
        raise ModelError(f"checkpoint {base} has no layers")
    expected = [(name, shape) for name, shape, _ in _param_table(configs)]
    for have, want in zip_longest(listed, expected):
        if have != want:
            raise ModelError(f"checkpoint tensor {have} does not match "
                             f"the layers' {want}")
    sizes = [int(np.prod(shape)) for _, shape in expected]
    blob_path = base.with_suffix(".bin")
    raw = blob_path.read_bytes()
    if len(raw) != 8 * sum(sizes):
        raise ModelError(f"checkpoint blob has {len(raw)} bytes, "
                         f"the manifest needs {8 * sum(sizes)}")
    chunks = np.split(np.frombuffer(raw, dtype="<f8"), np.cumsum(sizes)[:-1])
    params = {}
    for (name, shape), chunk in zip(expected, chunks):
        if not np.isfinite(chunk).all():
            raise ModelError(f"checkpoint tensor {name} has non-finite values")
        params[name] = chunk.reshape(shape)
    digest = hashlib.sha256(raw).hexdigest()
    if manifest.get("sha256", digest) != digest:
        raise ModelError(f"checkpoint blob {blob_path} does not match the "
                         f"sha256 its manifest records")
    return GatModel(layer_configs=configs, params=params, seed=seed)
