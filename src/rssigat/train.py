"""Class-weighted training over repeated stratified shuffle splits.

Traces are split 80:20 with per-kind stratification, one fresh model is
trained per split (one graph per gradient step), and per-class metrics are
pooled over each split's held-out points, then averaged across splits. A
step is ``loss_and_grads`` (``model_forward``, ``weighted_bce`` against the
graph's targets, built once per split, and ``model_backward`` into the
optimizer's gradient vector) and an in-place Adam update of the model's
parameter vector.
"""
from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor_core as tc
from .gat_model import GatModel, PreparedGraph, build_model, count_parameters, \
    model_backward, model_forward, prepare_graph
from .inject import LabeledTrace
from .metrics import EvalReport, SplitMetrics, aggregate, split_metrics
from .mtf_graph import transform
from .seeds import derive_seed
from .trace import DEFAULT_SCHEMA, TraceSchema


TEST_FRACTION = 0.2  # share of each stratum held out per split


class SplitError(Exception):
    pass


class TrainingError(Exception):
    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    n_splits: int = 10
    epochs: int = 50
    learning_rate: float = 3e-3
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        if self.n_splits < 1:
            raise SplitError("n_splits must be >= 1")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainingError("learning_rate must be finite and > 0")
        if not 0.0 <= self.threshold <= 1.0:
            raise TrainingError("threshold must be in [0, 1]")


@dataclass(frozen=True)
class ClassWeights:
    w_anomalous: float
    w_normal: float


def stratified_shuffle_split(dataset: list[LabeledTrace],
                             cfg: TrainConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """n_splits independent shuffled 80:20 partitions, stratified by the
    trace-level anomaly kind. Deterministic for a fixed config seed."""
    strata: dict[str, list[int]] = {}
    for i, item in enumerate(dataset):
        strata.setdefault(item.kind.value, []).append(i)
    for kind, members in strata.items():
        if len(members) < 2:
            raise SplitError(f"stratum {kind!r} has fewer than 2 traces")
    splits = []
    for s in range(cfg.n_splits):
        rng = np.random.default_rng([cfg.seed, 2654435769, s])
        train: list[int] = []
        test: list[int] = []
        for kind in sorted(strata):
            members = np.asarray(strata[kind])
            perm = rng.permutation(members)
            n_test = int(round(len(members) * TEST_FRACTION))
            n_test = min(max(n_test, 1), len(members) - 1)
            test.extend(perm[:n_test])
            train.extend(perm[n_test:])
        splits.append((np.sort(np.asarray(train)), np.sort(np.asarray(test))))
    return splits


def class_weights(train_traces: list[LabeledTrace]) -> ClassWeights:
    """Inverse class proportions over training points:
    w_c = total / (2 * points_of_class_c)."""
    n_anom = sum(int(t.labels.sum()) for t in train_traces)
    total = sum(t.trace.length for t in train_traces)
    n_norm = total - n_anom
    if n_anom == 0 or n_norm == 0:
        raise SplitError("both classes must appear among training points")
    return ClassWeights(w_anomalous=total / (2.0 * n_anom),
                        w_normal=total / (2.0 * n_norm))


def bce_targets(labels: np.ndarray, weights: ClassWeights):
    """The class-weighted targets (pos, neg) of one graph's labels, as (N, 1)
    columns; they are fixed per split, so ``fit`` builds them once."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    return weights.w_anomalous * y, weights.w_normal * (1.0 - y)


def weighted_bce(probabilities: np.ndarray, targets: tuple):
    """Mean binary cross-entropy with per-class weights, as ``(loss, back)``
    from ``tc.binary_cross_entropy``, for ``bce_targets``; log arguments are
    clamped at 1e-12."""
    return tc.binary_cross_entropy(probabilities, *targets)


def loss_and_grads(prep: PreparedGraph, targets: tuple, model: GatModel,
                   grads: dict[str, np.ndarray] | None = None
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """One graph's loss for its ``bce_targets`` and the gradient of every
    parameter, written into ``grads``, views of a vector laid out as
    ``model.vector`` (see ``model_backward``), or into fresh ones when none
    are given. The forward's ``back`` closures, and the intermediate arrays
    they hold, are freed on return."""
    if grads is None:
        grads = model.views(np.empty_like(model.vector))
    fwd = model_forward(prep, model)
    loss, loss_back = weighted_bce(fwd.data, targets)
    model_backward(fwd, loss_back(1.0), grads)
    return float(loss), grads


class AdamOptimizer:
    """Adam (beta1 0.9, beta2 0.999, eps 1e-8) on ``model.vector``, updated
    in place. ``grads`` are views, named as the model's parameters, of the
    gradient vector that ``step`` applies. The moments, that vector and two
    scratch vectors are allocated here, once, so a step allocates none."""

    def __init__(self, model: GatModel, lr: float):
        self.vector = model.vector
        self.lr = lr
        self.t = 0
        self.m, self.v, self.grad, self._s1, self._s2 = (
            np.zeros_like(self.vector) for _ in range(5))
        self.grads = model.views(self.grad)

    def step(self) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        scale = self.lr * np.sqrt(1 - b2 ** self.t) / (1 - b1 ** self.t)
        p, g, m, v, s1, s2 = (self.vector, self.grad, self.m, self.v,
                              self._s1, self._s2)
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        # p -= scale m / (sqrt(v) + eps), rounded one operation at a time
        m *= b1
        np.multiply(1 - b1, g, out=s1)
        m += s1
        v *= b2
        np.multiply(1 - b2, g, out=s1)
        s1 *= g
        v += s1
        np.sqrt(v, out=s2)
        s2 += 1e-8
        np.multiply(scale, m, out=s1)
        s1 /= s2
        p -= s1


def prepare_dataset(dataset: list[LabeledTrace],
                    schema: TraceSchema = DEFAULT_SCHEMA) -> list[PreparedGraph]:
    """The prepared class graph of every trace, with ``transform``'s default
    bins, as ``predict`` builds them."""
    return [prepare_graph(transform(item.trace, schema)) for item in dataset]


@dataclass
class FitResult:
    model: GatModel
    loss_curve: list[float]
    steps: int = 0


def fit(dataset: list[LabeledTrace], model_seed: int, cfg: TrainConfig,
        prepared: list[PreparedGraph]) -> FitResult:
    """Train one model on the given traces, one graph per gradient step;
    ``prepared[i]`` is the class graph of ``dataset[i]``.

    Deterministic for fixed (dataset, model_seed, cfg). Raises TrainingError
    with the epoch index if the loss leaves the finite range.
    """
    if not dataset:
        raise TrainingError("dataset is empty")
    weights = class_weights(dataset)
    targets = [bce_targets(item.labels, weights) for item in dataset]
    model = build_model(seed=model_seed)
    optimizer = AdamOptimizer(model, lr=cfg.learning_rate)
    order_rng = np.random.default_rng([cfg.seed, 1162261467, model_seed])
    loss_curve: list[float] = []
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(len(dataset))
        epoch_loss = 0.0
        for i in order:
            try:
                loss, _ = loss_and_grads(prepared[i], targets[i], model,
                                         optimizer.grads)
            except tc.NonFiniteError as exc:
                raise TrainingError(f"training diverged: {exc}",
                                    epoch=epoch) from exc
            optimizer.step()
            epoch_loss += loss
        loss_curve.append(epoch_loss / len(dataset))
    return FitResult(model=model, loss_curve=loss_curve,
                     steps=cfg.epochs * len(dataset))


def evaluate_split(model: GatModel, items: list[LabeledTrace],
                   prepared: list[PreparedGraph],
                   threshold: float = 0.5) -> SplitMetrics:
    """Pool predictions over every point of the given traces;
    ``prepared[i]`` is the class graph of ``items[i]``."""
    preds = [model_forward(prep, model).data[:, 0] >= threshold
             for prep in prepared]
    truths = [item.labels.astype(bool) for item in items]
    return split_metrics(np.concatenate(preds), np.concatenate(truths))


@dataclass
class CrossValResult:
    report: EvalReport
    models: list[GatModel]
    loss_curves: list[list[float]]
    splits: list[tuple[np.ndarray, np.ndarray]]


def _run_single_split(args) -> tuple[int, SplitMetrics, GatModel, list[float]]:
    k, dataset, prepared, train_idx, test_idx, cfg = args
    result = fit([dataset[i] for i in train_idx],
                 model_seed=derive_seed(cfg.seed, "model", k), cfg=cfg,
                 prepared=[prepared[i] for i in train_idx])
    metrics = evaluate_split(result.model, [dataset[i] for i in test_idx],
                             [prepared[i] for i in test_idx],
                             threshold=cfg.threshold)
    return k, metrics, result.model, result.loss_curve


def run_cross_validation(dataset: list[LabeledTrace], cfg: TrainConfig,
                         schema: TraceSchema = DEFAULT_SCHEMA,
                         workers: int = 1) -> CrossValResult:
    """Train one model per stratified shuffle split and aggregate metrics,
    on up to ``workers`` processes (never more than there are splits)."""
    prepared = prepare_dataset(dataset, schema)
    splits = stratified_shuffle_split(dataset, cfg)
    payloads = [(k, dataset, prepared, train_idx, test_idx, cfg)
                for k, (train_idx, test_idx) in enumerate(splits)]
    workers = min(workers, len(splits))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_run_single_split, payloads)
    else:
        results = [_run_single_split(p) for p in payloads]
    results.sort(key=lambda r: r[0])
    per_split = [r[1] for r in results]
    models = [r[2] for r in results]
    curves = [r[3] for r in results]
    report = aggregate(per_split, parameter_count=count_parameters(models[0]),
                       config=asdict(cfg))
    return CrossValResult(report=report, models=models, loss_curves=curves,
                          splits=splits)


def loss_curves_to_csv(curves: list[list[float]]) -> str:
    lines = ["split,epoch,loss"]
    for split_idx, curve in enumerate(curves):
        for epoch, value in enumerate(curve):
            lines.append(f"{split_idx},{epoch},{value!r}")
    return "\n".join(lines) + "\n"
