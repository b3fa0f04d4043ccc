"""Class-weighted training over repeated stratified shuffle splits.

Traces are split 80:20 with per-kind stratification, one fresh model is
trained per split (one graph per gradient step), and per-class metrics are
pooled over each split's held-out points, labeled at ``predict``'s 0.5
cut-off, then averaged across splits. A step is ``loss_and_grads``
(``model_forward``, ``weighted_bce`` against the graph's targets, built once
per split, and ``model_backward`` into the optimizer's gradient vector) and
an in-place Adam update of the model's parameter vector, at the fixed
learning rate ``LEARNING_RATE``.
"""
from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .gat_model import GatModel, ParamViews, build_model, count_parameters, \
    model_backward, model_forward, predict
from .inject import LabeledTrace
from .metrics import EvalReport, SplitMetrics, aggregate, split_metrics
from .mtf_graph import TsGraph, transform
from .seeds import derive_seed
from .trace import DEFAULT_SCHEMA, TraceSchema


TEST_FRACTION = 0.2  # share of each stratum held out per split
LEARNING_RATE = 3e-3  # Adam's step size in every fit
# Adam sets its stored first moments below the smallest normal float64 to 0
# every FLUSH_PERIOD steps, since arithmetic on subnormal numbers is many
# times slower. One whose gradient stays 0 decays by 0.9 a step and would
# stay subnormal for ~342 steps (52 binades at log2(1/0.9) = 0.152 a step);
# flushed every 32 steps it stays so for at most 31, at three passes over
# the vector per flush, where a flush every step costs three passes a step.
FLUSH_PERIOD = 32
# the thread-count variables of OpenBLAS, OpenMP and MKL builds of numpy
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


class SplitError(Exception):
    pass


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    n_splits: int = 10
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.n_splits < 1:
            raise SplitError("n_splits must be >= 1")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")


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


def loss_and_grads(graph: TsGraph, targets: tuple, model: GatModel,
                   grads: ParamViews | None = None
                   ) -> tuple[float, ParamViews]:
    """One graph's loss for its ``bce_targets`` and the gradient of every
    parameter, written into ``grads``, views of a vector laid out as
    ``model.vector`` (see ``model_backward``), or into fresh ones when none
    are given. The forward's ``back`` closures, and the intermediate arrays
    they hold, are freed on return."""
    if grads is None:
        grads = model.views(np.empty_like(model.vector))
    fwd = model_forward(graph, model)
    loss, loss_back = weighted_bce(fwd.data, targets)
    model_backward(fwd, loss_back(1.0), grads)
    return float(loss), grads


class AdamOptimizer:
    """Adam (beta1 0.9, beta2 0.999, eps 1e-8) on ``model.vector``, updated
    in place. ``grads`` are views, a ``ParamViews`` of the gradient vector
    that ``step`` applies; ``step`` spends it as scratch, since the next
    backward overwrites it. The moments and that vector are allocated here,
    once, so a step allocates none.

    The moments are stored without their (1 - beta) factors: ``m`` holds
    m / (1 - beta1) and ``v`` holds v / (1 - beta2), so each takes one
    multiply and one add per step, and the factors move into the step's
    two scalars. This is Adam in exact arithmetic, in 10 passes over the
    vector where the textbook form takes 12. Every ``FLUSH_PERIOD`` steps,
    the entries of ``m`` below ``np.finfo(np.float64).tiny`` in magnitude
    are set to 0, with the gradient vector as scratch and a mask allocated
    here."""

    def __init__(self, model: GatModel, lr: float):
        self.vector = model.vector
        self.lr = lr
        self.t = 0
        self.m, self.v, self.grad = (np.zeros_like(self.vector)
                                     for _ in range(3))
        self.grads = model.views(self.grad)
        self.subnormal = np.empty(self.vector.shape, dtype=bool)

    def step(self) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        scale = (self.lr * np.sqrt(1 - b2 ** self.t) / (1 - b1 ** self.t)
                 * (1 - b1) / np.sqrt(1 - b2))
        eps_scaled = eps / np.sqrt(1 - b2)
        p, g, m, v = self.vector, self.grad, self.m, self.v
        # m = b1 m + g, v = b2 v + g g and p -= m / (sqrt(v) + eps') scale,
        # rounded one operation at a time; g is dead once v has it, and
        # holds the step
        m *= b1
        m += g
        v *= b2
        g *= g
        v += g
        np.sqrt(v, out=g)
        g += eps_scaled
        np.divide(m, g, out=g)
        g *= scale
        p -= g
        if self.t % FLUSH_PERIOD == 0:
            np.abs(m, out=g)
            np.less(g, np.finfo(np.float64).tiny, out=self.subnormal)
            np.copyto(m, 0.0, where=self.subnormal)


def prepare_dataset(dataset: list[LabeledTrace],
                    schema: TraceSchema = DEFAULT_SCHEMA) -> list[TsGraph]:
    """The class graph of every trace, from ``transform``, as ``predict``
    builds them."""
    return [transform(item.trace, schema) for item in dataset]


@dataclass
class FitResult:
    model: GatModel
    loss_curve: list[float]
    steps: int = 0


def fit(dataset: list[LabeledTrace], model_seed: int, cfg: TrainConfig,
        prepared: list[TsGraph]) -> FitResult:
    """Train one model on the given traces, one graph per gradient step;
    ``prepared[i]`` is the class graph of ``dataset[i]``.

    Deterministic for fixed (dataset, model_seed, cfg). Raises TrainingError
    naming the 0-based epoch, as ``loss_curves_to_csv`` numbers it, if a
    step leaves the finite range.
    """
    if not dataset:
        raise TrainingError("dataset is empty")
    weights = class_weights(dataset)
    targets = [bce_targets(item.labels, weights) for item in dataset]
    model = build_model(seed=model_seed)
    optimizer = AdamOptimizer(model, lr=LEARNING_RATE)
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
                raise TrainingError(
                    f"training diverged in epoch {epoch}: {exc}") from exc
            optimizer.step()
            epoch_loss += loss
        loss_curve.append(epoch_loss / len(dataset))
    return FitResult(model=model, loss_curve=loss_curve,
                     steps=cfg.epochs * len(dataset))


def evaluate_split(model: GatModel, items: list[LabeledTrace],
                   prepared: list[TsGraph]) -> SplitMetrics:
    """Pool ``predict``'s labels, at its 0.5 cut-off, over every point of the
    given traces; ``prepared[i]`` is the class graph of ``items[i]``."""
    preds = [predict(graph, model) for graph in prepared]
    truths = [item.labels.astype(bool) for item in items]
    return split_metrics(np.concatenate(preds), np.concatenate(truths))


@dataclass
class CrossValResult:
    report: EvalReport
    models: list[GatModel]
    loss_curves: list[list[float]]
    splits: list[tuple[np.ndarray, np.ndarray]]


def _run_single_split(args) -> tuple[SplitMetrics, GatModel, list[float]]:
    k, dataset, prepared, train_idx, test_idx, cfg = args
    result = fit([dataset[i] for i in train_idx],
                 model_seed=derive_seed(cfg.seed, "model", k), cfg=cfg,
                 prepared=[prepared[i] for i in train_idx])
    metrics = evaluate_split(result.model, [dataset[i] for i in test_idx],
                             [prepared[i] for i in test_idx])
    return metrics, result.model, result.loss_curve


def _set_warning_filters(filters: list) -> None:
    warnings.filters[:] = filters


def _worker_pool(workers: int):
    """A pool of ``workers`` fresh interpreters (the "spawn" start method),
    each with the caller's warning filters (so a warning the caller turns
    into an error fails a worker too) and one BLAS thread unless the
    environment sets the count: every variable of ``BLAS_THREAD_VARIABLES``
    that is unset is set to 1 while the pool starts, then unset again. The
    model's matmuls are small, and a BLAS thread pool in each worker makes
    the workers contend for the cores."""
    unset = [name for name in BLAS_THREAD_VARIABLES if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        return multiprocessing.get_context("spawn").Pool(
            workers, initializer=_set_warning_filters,
            initargs=(list(warnings.filters),))
    finally:
        for name in unset:
            del os.environ[name]


def run_cross_validation(dataset: list[LabeledTrace], cfg: TrainConfig,
                         schema: TraceSchema = DEFAULT_SCHEMA,
                         workers: int = 1) -> CrossValResult:
    """Train one model per stratified shuffle split and aggregate metrics,
    on up to ``workers`` processes (never more than there are splits or
    CPUs; each process gets its own copy of the dataset). Workers are
    spawned, so each imports the caller's main module afresh: a script that
    asks for more than one must call this under ``if __name__ ==
    "__main__":``."""
    prepared = prepare_dataset(dataset, schema)
    splits = stratified_shuffle_split(dataset, cfg)
    payloads = [(k, dataset, prepared, train_idx, test_idx, cfg)
                for k, (train_idx, test_idx) in enumerate(splits)]
    workers = min(workers, len(splits), os.cpu_count() or 1)
    if workers > 1:
        with _worker_pool(workers) as pool:
            results = pool.map(_run_single_split, payloads)
    else:
        results = [_run_single_split(p) for p in payloads]
    per_split, models, curves = (list(r) for r in zip(*results))
    report = aggregate(per_split, parameter_count=count_parameters(models[0]))
    return CrossValResult(report=report, models=models, loss_curves=curves,
                          splits=splits)


def loss_curves_to_csv(curves: list[list[float]]) -> str:
    lines = ["split,epoch,loss"]
    for split_idx, curve in enumerate(curves):
        for epoch, value in enumerate(curve):
            lines.append(f"{split_idx},{epoch},{value!r}")
    return "\n".join(lines) + "\n"
