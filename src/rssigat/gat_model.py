"""Per-node classifier: three attention blocks with linear skip connections.

Each block is multi-head graph attention (Velickovic et al. 2018): per
head, a row softmax of C x C logits LeakyReLU(s_dst[i] + s_src[j]) +
``logit_bias[i, j]``, times the projected rows. The bias is finite on the
edges and self loops and -inf off them, so the softmax gives non-edges
exactly 0. On a sparse graph the logits and the softmax run over the E
edges alone, the finite entries of that bias, per destination row, as
PyTorch Geometric's GATConv does; the graph alone decides which
(``uses_edge_list``). A block adds a learnable linear
projection of its input and applies ReLU, all one op,
``tc.attention_block``. A final linear head plus sigmoid, one op with the
gather from rows to nodes (``tc.output_head``), yields one anomaly
probability per time step. ``model_backward`` calls the ops' ``back``
closures in reverse; there is no general autodiff engine behind them.

Each block's attention vectors are stored as ``att_src`` then
``att_dst``, side by side in the parameter vector, and reach the op as one
(2, H, F) view of both (``ParamViews.att``); the backward writes both
gradients through the same view of the gradient vector.

The sizes are the paper's (``FILTERS``, ``HEADS``, ``LEAKY_SLOPE``), laid
out as ``PAPER_LAYERS``, the one architecture ``build_model`` builds and
``load_checkpoint`` loads. A ``GatModel`` checks that its layers chain when
it is built, once, so the ops check no shapes.

The forward pass runs on the ``rows``, ``node_map`` and ``logit_bias`` or
``edges`` of a ``TsGraph`` from ``transform``. In that value-class graph
all nodes of a row share feature and in-edges, so a class edge i -> j
stands for as many equal node edges as row i has nodes, which the graph
folds into its bias as ln(row size). This is exact, not an approximation.
The graph checked its node map when it was made, so the head's gather by
it checks no index.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor_core as tc
from .mtf_graph import TsGraph
from .trace import open_output


class ModelError(Exception):
    pass


# the paper's architecture: FILTERS output dims per head, HEADS heads per
# block, concatenated except in the last block, which averages them
FILTERS = 32
HEADS = (4, 4, 6)
LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class GatLayerConfig:
    """One attention block. Only the head mode is checked here: a model's
    layers are built in this module (``PAPER_LAYERS``) or by tests, never
    from a file, and ``GatModel`` checks that they chain."""

    in_dim: int
    out_dim_per_head: int = FILTERS
    n_heads: int = 4
    head_mode: str = "concat"  # or "average"
    leaky_slope: float = LEAKY_SLOPE

    def __post_init__(self):
        if self.head_mode not in ("concat", "average"):
            raise ModelError(f"unknown head_mode {self.head_mode!r}")

    @property
    def out_width(self) -> int:
        if self.head_mode == "concat":
            return self.n_heads * self.out_dim_per_head
        return self.out_dim_per_head


class ParamViews(dict):
    """Views of one vector laid out as ``GatModel.vector``, by parameter
    name, and the same memory as the ops take it, looked up once, on first
    use: ``blocks``, each block's five arrays for ``tc.attention_block``,
    and ``head``, the output weight and bias for ``tc.output_head``. A
    block's ``att`` is one (2, H, F) view over its ``att_src`` and
    ``att_dst``, which lie next to each other in the vector."""

    def __init__(self, vector: np.ndarray, table: list[tuple]):
        super().__init__()
        self.vector, self.starts, start = vector, {}, 0
        for name, shape, _ in table:
            size = math.prod(shape)
            self[name] = vector[start:start + size].reshape(shape)
            self.starts[name] = start
            start += size

    def att(self, k: int) -> np.ndarray:
        """Block ``k``'s ``att_src`` and ``att_dst`` as one (2, H, F) view."""
        src = self[f"gat{k}.att_src"]
        start = self.starts[f"gat{k}.att_src"]
        return self.vector[start:start + 2 * src.size].reshape(2, *src.shape)

    @cached_property
    def blocks(self) -> list[tuple[np.ndarray, ...]]:
        n_blocks = sum(name.endswith(".att_dst") for name in self)
        return [(self[f"gat{k}.weight"], self.att(k), self[f"gat{k}.bias"],
                 self[f"skip{k}.weight"], self[f"skip{k}.bias"])
                for k in range(1, n_blocks + 1)]

    @cached_property
    def head(self) -> tuple[np.ndarray, np.ndarray]:
        return self["out.weight"], self["out.bias"]


@dataclass
class GatModel:
    """The layers and their parameters. ``vector`` holds every parameter, in
    ``_param_table`` order, and each ``params[name]`` is a view into it: the
    vector is the checkpoint blob and what the optimizer updates. ModelError
    unless the layers chain, layer 1 taking a row's one feature and each
    later layer the previous one's ``out_width``, and the vector holds
    exactly their parameters."""

    layer_configs: tuple[GatLayerConfig, ...]
    vector: np.ndarray = field(repr=False, compare=False)
    seed: int
    params: ParamViews = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layer_configs:
            raise ModelError("a model needs at least one layer")
        widths = [1] + [cfg.out_width for cfg in self.layer_configs]
        for k, cfg in enumerate(self.layer_configs, start=1):
            if cfg.in_dim != widths[k - 1]:
                raise ModelError(f"layer {k} has in_dim {cfg.in_dim}, "
                                 f"its input is {widths[k - 1]} wide")
        size = sum(math.prod(shape) for _, shape, _ in
                   _param_table(self.layer_configs))
        if self.vector.shape != (size,):
            raise ModelError(f"the vector has {self.vector.size} entries, "
                             f"the layers need {size}")
        self.params = self.views(self.vector)

    def views(self, vector: np.ndarray) -> ParamViews:
        """``vector``, laid out as ``self.vector``, cut into views named and
        shaped as ``params``."""
        return ParamViews(vector, _param_table(self.layer_configs))

    def __reduce__(self):
        # rebuilt by the constructor, so the copy's params view one vector
        return GatModel, (self.layer_configs, self.vector, self.seed)


def count_parameters(model: GatModel) -> int:
    return sum(t.size for t in model.params.values())


def _glorot(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _param_table(configs) -> list[tuple]:
    """(name, shape, fans) of every parameter, in creation order: a weight
    is drawn Glorot-uniform for its (fan_in, fan_out), and ``None`` marks a
    bias, which starts at zero. A block's ``att_src`` comes right before its
    ``att_dst``, so ``ParamViews.att`` can view the two as one array."""
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


PAPER_LAYERS = tuple(
    GatLayerConfig(FILTERS * HEADS[k - 1] if k else 1, n_heads=heads,
                   head_mode="average" if k == len(HEADS) - 1 else "concat")
    for k, heads in enumerate(HEADS))


def build_model(seed: int = 0) -> GatModel:
    """The paper's model, its weights drawn Glorot-uniform from ``seed``."""
    rng = np.random.default_rng(seed)
    vector = np.concatenate([
        np.zeros(math.prod(shape)) if fans is None
        else _glorot(rng, shape, *fans).ravel()
        for _, shape, fans in _param_table(PAPER_LAYERS)])
    return GatModel(PAPER_LAYERS, vector, seed)


# ---------------------------------------------------------------------------
# forward passes

def prepare_graph(graph: TsGraph, collapse: bool = True) -> TsGraph:
    """``graph``, or for ``collapse=False`` the per-node ``graph.expand()``."""
    return graph if collapse else graph.expand()


@dataclass
class Forward:
    """One forward pass. ``data`` is the (N, 1) anomaly probability per
    node. ``blocks`` holds each block's ``tc.attention_block`` ``back``
    closure and ``head`` that of ``tc.output_head``, for
    ``model_backward``."""

    data: np.ndarray
    blocks: list[Callable]
    head: Callable


# The attention runs over the edge list from EDGE_MIN_ROWS rows on, when at
# most EDGE_MAX_DENSITY of the C x C entries are edges, self loops included.
# A training step (forward and backward of the three blocks, one BLAS
# thread on a 2-vCPU VM) on random graphs of C rows broke even at C = 14-16
# for densities up to ~0.35 and at ~0.45 for C = 20; at C <= 12 the edge
# list cost 1.01-1.1x at any density, and at C = 64 0.66-0.79x up to 0.32.
EDGE_MIN_ROWS = 16
EDGE_MAX_DENSITY = 0.4


def uses_edge_list(graph: TsGraph) -> bool:
    """Whether ``model_forward`` runs ``graph``'s attention over its
    ``edges`` rather than its dense ``logit_bias``: for a sparse graph."""
    c = graph.n_rows
    return (c >= EDGE_MIN_ROWS
            and graph.edges.dst.size <= EDGE_MAX_DENSITY * c * c)


def model_forward(graph: TsGraph, model: GatModel) -> Forward:
    """Anomaly probability per original node, ``.data`` of shape (N, 1)."""
    h = graph.rows
    bias = graph.edges if uses_edge_list(graph) else graph.logit_bias
    blocks = []
    for k, (cfg, params) in enumerate(zip(model.layer_configs,
                                          model.params.blocks), start=1):
        h, back = tc.attention_block(h, *params, bias, cfg.leaky_slope,
                                     cfg.head_mode, k)
        blocks.append(back)
    data, head = tc.output_head(h, *model.params.head, graph.node_map)
    return Forward(data, blocks, head)


def model_backward(fwd: Forward, g: np.ndarray, grads: ParamViews) -> None:
    """Write the gradient of every parameter into ``grads``, views laid out
    as the parameters (see ``GatModel.views``), given ``g``, the gradient at
    ``fwd.data``: the forward's ``back`` closures in reverse order, each
    writing its parameters' gradients into their views, with no copy. The
    first block's rows are constant and get no gradient."""
    g = fwd.head(g, out=grads.head)[0]
    for k in range(len(fwd.blocks) - 1, -1, -1):
        g = fwd.blocks[k](g, input_grad=k > 0, out=grads.blocks[k])[0]


def predict(graph: TsGraph, model: GatModel) -> np.ndarray:
    """The int8 label of every original node: 1 where its anomaly
    probability is at least 0.5, the one cut-off that training, ``eval`` and
    ``predict`` share. Another operating point is read off
    ``model_forward(graph, model).data``."""
    probs = model_forward(graph, model).data[:, 0]
    return (probs >= 0.5).astype(np.int8)


# ---------------------------------------------------------------------------
# checkpoints: a JSON manifest beside a raw little-endian float64 blob, the
# model's vector, whose sha256 the manifest records. The blob is written
# first, so no manifest is on disk without the blob it digests.

def checkpoint_files(path) -> tuple[Path, Path]:
    """The manifest and the blob of the checkpoint saved at ``path``."""
    return Path(path).with_suffix(".json"), Path(path).with_suffix(".bin")


def _layout(configs) -> dict:
    """The ``layers`` and ``tensors`` entries of the manifest of a model of
    ``configs``."""
    return {"layers": [asdict(cfg) for cfg in configs],
            "tensors": [{"name": name, "shape": list(shape)}
                        for name, shape, _ in _param_table(configs)]}


# what a manifest's ``layers`` and ``tensors`` must be, as canonical JSON
_PAPER_LAYOUT = json.dumps(_layout(PAPER_LAYERS), sort_keys=True)


def save_checkpoint(path, model: GatModel) -> tuple[Path, Path]:
    manifest_path, blob_path = checkpoint_files(path)
    blob = model.vector.astype("<f8", copy=False).tobytes()
    manifest = {
        "format": "rssigat-checkpoint-v1",
        "seed": model.seed,
        **_layout(model.layer_configs),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    with open_output(blob_path, binary=True) as fh:
        fh.write(blob)
    with open_output(manifest_path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path, blob_path


def load_checkpoint(path) -> GatModel:
    """The paper's model saved at ``path``; ModelError if its manifest is
    malformed (a manifest without the blob's sha256 is), if its ``layers``
    and ``tensors`` are not ``_PAPER_LAYOUT``, those ``save_checkpoint``
    writes for ``PAPER_LAYERS``, compared as canonical JSON, or if it
    disagrees with its blob."""
    base = Path(path)
    manifest_path, blob_path = checkpoint_files(base)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("format") != "rssigat-checkpoint-v1":
            raise ModelError(f"unrecognized checkpoint format in {base}")
        layout = json.dumps({k: manifest[k] for k in ("layers", "tensors")},
                            sort_keys=True)
        seed = manifest["seed"]
        recorded = manifest["sha256"]
    except (KeyError, TypeError, ValueError, AttributeError,
            RecursionError) as exc:
        raise ModelError(f"malformed checkpoint manifest {base}: "
                         f"{type(exc).__name__}: {exc}") from None
    if layout != _PAPER_LAYOUT:
        raise ModelError(f"checkpoint {base} does not hold the paper's model: "
                         f"its layers or tensors differ")
    size = sum(math.prod(shape) for _, shape, _ in _param_table(PAPER_LAYERS))
    raw = blob_path.read_bytes()
    if len(raw) != 8 * size:
        raise ModelError(f"checkpoint blob has {len(raw)} bytes, "
                         f"the manifest needs {8 * size}")
    model = GatModel(PAPER_LAYERS, np.frombuffer(raw, dtype="<f8").copy(), seed)
    for name, p in model.params.items():
        if not np.isfinite(p).all():
            raise ModelError(f"checkpoint tensor {name} has non-finite values")
    if hashlib.sha256(raw).hexdigest() != recorded:
        raise ModelError(f"checkpoint blob {blob_path} does not match the "
                         f"sha256 its manifest records")
    return model
