import tracemalloc

import numpy as np
import pytest

import rssigat.tensor_core as tc
from rssigat.gat_model import build_model, model_backward, model_forward, \
    save_checkpoint
from rssigat.inject import AnomalyDescriptor, AnomalyKind, LabeledTrace, \
    build_dataset
from rssigat.train import (AdamOptimizer, ClassWeights, SplitError,
                           TrainConfig, TrainingError, bce_targets,
                           class_weights, fit, loss_and_grads,
                           loss_curves_to_csv, prepare_dataset,
                           run_cross_validation, stratified_shuffle_split,
                           weighted_bce)
from rssigat.trace import RssiTrace, TraceSchema, synthesize_clean
from oracles import bce_targets_reference

SCHEMA = TraceSchema(expected_length=40)


def _desk_dataset(n_each=4, n_clean=12, seed=0, length=40):
    schema = TraceSchema(expected_length=length)
    clean = synthesize_clean(4 * n_each + n_clean, schema,
                             np.random.default_rng(seed))
    from rssigat.inject import InjectionParams
    params = InjectionParams.scaled_to_length(length)
    comp = {kind: n_each for kind in (AnomalyKind.SUDDEN_D, AnomalyKind.SUDDEN_R,
                                      AnomalyKind.INSTA_D, AnomalyKind.SLOW_D)}
    comp[AnomalyKind.NONE] = n_clean
    return build_dataset(clean, comp, params, np.random.default_rng(seed + 1),
                         schema), schema


def test_training_step_gives_every_parameter_a_gradient():
    dataset, schema = _desk_dataset(n_each=1, n_clean=0, length=100)
    item = dataset[0]
    prep = prepare_dataset([item], schema)[0]
    model = build_model(seed=0)
    _, grads = loss_and_grads(
        prep, bce_targets(item.labels, ClassWeights(1.3, 0.8)), model)
    assert set(grads) == set(model.params)
    for name, p in model.params.items():
        assert grads[name].shape == p.shape and np.isfinite(grads[name]).all()


def test_gradients_fill_every_entry_of_the_vector():
    """``loss_and_grads`` writes every entry of the gradient vector whose
    views it is given, and returns those views; into fresh views it gives
    the same bits."""
    dataset, schema = _desk_dataset(n_each=1, n_clean=0, length=100)
    prepared = prepare_dataset(dataset, schema)
    model = build_model(seed=0)
    optimizer = AdamOptimizer(model, lr=1e-3)
    for item, prep in zip(dataset, prepared):
        targets = bce_targets(item.labels, ClassWeights(1.3, 0.8))
        optimizer.grad[:] = np.nan
        loss, grads = loss_and_grads(prep, targets, model, optimizer.grads)
        assert grads is optimizer.grads
        assert np.isfinite(optimizer.grad).all()
        loss_fresh, fresh = loss_and_grads(prep, targets, model)
        assert loss_fresh == loss
        for name in model.params:
            assert grads[name].tobytes() == fresh[name].tobytes()


def test_adam_step_matches_the_per_parameter_update():
    """One whole-vector update rounds as Adam over each parameter array."""
    model = build_model(seed=1)
    optimizer = AdamOptimizer(model, lr=3e-3)
    rng = np.random.default_rng(0)
    ref = {name: p.copy() for name, p in model.params.items()}
    m = {name: np.zeros_like(p) for name, p in ref.items()}
    v = {name: np.zeros_like(p) for name, p in ref.items()}
    for t in range(1, 4):
        scale = 3e-3 * np.sqrt(1 - 0.999 ** t) / (1 - 0.9 ** t)
        for name, p in ref.items():
            g = rng.standard_normal(p.shape)
            optimizer.grads[name][...] = g
            m[name] = m[name] * 0.9 + (1 - 0.9) * g
            v[name] = v[name] * 0.999 + (1 - 0.999) * g * g
            p -= scale * m[name] / (np.sqrt(v[name]) + 1e-8)
        optimizer.step()
        for name, p in ref.items():
            assert model.params[name].tobytes() == p.tobytes()


def test_fit_step_allocates_nothing_parameter_sized(monkeypatch):
    """A steady-state step of ``fit`` (forward, backward and Adam) on a
    5-row class graph: its traced allocation peak stays below 256 KiB,
    which one ``gat3.weight`` gradient (192 KiB) and the step's own
    small arrays would pass."""
    values = np.tile([20.0, 21.0, 22.0, 23.0, 24.0], 8)
    item = LabeledTrace(RssiTrace("t", values),
                        AnomalyDescriptor("InstaD", indices=(3, 17)))
    prepared = prepare_dataset([item], TraceSchema(expected_length=40))
    assert prepared[0].n_rows == 5
    step = AdamOptimizer.step
    peaks, start = [], [0]

    def measured(self):
        step(self)
        peaks.append(tracemalloc.get_traced_memory()[1] - start[0])
        start[0] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    monkeypatch.setattr(AdamOptimizer, "step", measured)
    tracemalloc.start()
    try:
        fit([item], model_seed=0, cfg=TrainConfig(epochs=5), prepared=prepared)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 5
    assert max(peaks[2:]) < 256 * 1024, peaks


# ---------------------------------------------------------------------------
# splits

def test_split_exact_proportions():
    dataset, _ = _desk_dataset(n_each=20, n_clean=20)
    cfg = TrainConfig(n_splits=3, seed=1, epochs=1)
    for train_idx, test_idx in stratified_shuffle_split(dataset, cfg):
        assert len(train_idx) == 80 and len(test_idx) == 20
        kinds_test = [dataset[i].kind for i in test_idx]
        for kind in AnomalyKind:
            assert kinds_test.count(kind) == 4  # 20% of each stratum of 20


def test_split_deterministic_and_partitioning():
    dataset, _ = _desk_dataset()
    cfg = TrainConfig(n_splits=5, seed=3, epochs=1)
    a = stratified_shuffle_split(dataset, cfg)
    b = stratified_shuffle_split(dataset, cfg)
    for (tr1, te1), (tr2, te2) in zip(a, b):
        np.testing.assert_array_equal(tr1, tr2)
        np.testing.assert_array_equal(te1, te2)
        assert set(tr1) & set(te1) == set()
        assert sorted(np.r_[tr1, te1].tolist()) == list(range(len(dataset)))


def test_split_rejects_tiny_stratum():
    dataset, _ = _desk_dataset(n_each=4, n_clean=12)
    dataset = [d for d in dataset if d.kind is not AnomalyKind.SLOW_D][:13] + \
              [d for d in dataset if d.kind is AnomalyKind.SLOW_D][:1]
    with pytest.raises(SplitError):
        stratified_shuffle_split(dataset, TrainConfig(n_splits=1, epochs=1))


def test_splits_differ_between_repetitions():
    dataset, _ = _desk_dataset(n_each=8, n_clean=24)
    cfg = TrainConfig(n_splits=2, seed=0, epochs=1)
    (tr1, _), (tr2, _) = stratified_shuffle_split(dataset, cfg)
    assert not np.array_equal(tr1, tr2)


# ---------------------------------------------------------------------------
# class weights

def _weights_for(fractions):
    n_anom, n_norm = fractions

    class Stub:
        def __init__(self, n1, n0):
            self.labels = np.r_[np.ones(n1, dtype=np.int8),
                                np.zeros(n0, dtype=np.int8)]
            self.trace = type("T", (), {"length": n1 + n0})()

    return class_weights([Stub(n_anom, n_norm)])


def test_class_weights_75_25():
    w = _weights_for((25, 75))
    np.testing.assert_allclose(w.w_normal, 2 / 3, atol=1e-9)
    np.testing.assert_allclose(w.w_anomalous, 2.0, atol=1e-9)


def test_class_weights_balanced():
    w = _weights_for((50, 50))
    assert w.w_anomalous == w.w_normal == 1.0


def test_class_weights_90_10():
    w = _weights_for((10, 90))
    np.testing.assert_allclose(w.w_normal, 100 / 180, atol=1e-9)
    np.testing.assert_allclose(w.w_anomalous, 5.0, atol=1e-9)


def test_class_weights_inverse_proportionality_property():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n1, n0 = int(rng.integers(1, 500)), int(rng.integers(1, 500))
        w = _weights_for((n1, n0))
        np.testing.assert_allclose(w.w_anomalous * n1, w.w_normal * n0, atol=1e-9)


def test_class_weights_degenerate_class():
    with pytest.raises(SplitError):
        _weights_for((0, 100))


# ---------------------------------------------------------------------------
# weighted BCE

def test_bce_zero_when_confident_and_correct():
    probs = np.array([1 - 1e-13, 1e-13])[:, None]
    loss, _ = weighted_bce(probs, bce_targets(np.array([1, 0]),
                                              ClassWeights(1, 1)))
    assert float(loss) < 1e-10


def test_bce_half_probability_is_ln2():
    probs = np.full((7, 1), 0.5)
    loss, _ = weighted_bce(probs, bce_targets(np.r_[np.ones(3), np.zeros(4)],
                                              ClassWeights(1, 1)))
    np.testing.assert_allclose(float(loss), np.log(2), atol=1e-12)


def test_bce_two_point_hand_case():
    probs = np.array([[0.9], [0.2]])
    loss, _ = weighted_bce(probs, bce_targets(np.array([1, 0]),
                                              ClassWeights(1, 1)))
    np.testing.assert_allclose(float(loss),
                               -0.5 * (np.log(0.9) + np.log(0.8)), atol=1e-12)


def test_bce_nonnegative_and_weighting():
    rng = np.random.default_rng(1)
    p = rng.uniform(0.05, 0.95, size=(20, 1))
    y = rng.integers(0, 2, size=20)
    plain = float(weighted_bce(p, bce_targets(y, ClassWeights(1, 1)))[0])
    manual = -np.mean(y * np.log(p[:, 0]) + (1 - y) * np.log(1 - p[:, 0]))
    np.testing.assert_allclose(plain, manual, atol=1e-12)
    assert plain >= 0


def test_bce_length_mismatch():
    with pytest.raises(tc.ShapeError):
        weighted_bce(np.full((3, 1), 0.5),
                     bce_targets(np.zeros(4), ClassWeights(1, 1)))


# ---------------------------------------------------------------------------
# fit / cross validation

def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)
    with pytest.raises(SplitError, match="n_splits"):
        TrainConfig(n_splits=0)
    for lr in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(TrainingError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    for threshold in (-0.1, 1.5, float("nan"), float("inf")):
        with pytest.raises(TrainingError, match="threshold"):
            TrainConfig(threshold=threshold)
    assert TrainConfig(threshold=0.0).threshold == 0.0
    assert TrainConfig(threshold=1.0).threshold == 1.0


def test_fit_update_count_and_determinism():
    dataset, schema = _desk_dataset(n_each=1, n_clean=2)
    dataset = dataset[:2]
    cfg = TrainConfig(n_splits=2, epochs=1, seed=5)
    prepared = prepare_dataset(dataset, schema)
    r1 = fit(dataset, model_seed=3, cfg=cfg, prepared=prepared)
    r2 = fit(dataset, model_seed=3, cfg=cfg, prepared=prepared)
    assert len(r1.loss_curve) == 1
    assert r1.steps == 2  # one epoch over two traces, one graph per step
    for name in r1.model.params:
        assert r1.model.params[name].tobytes() == \
               r2.model.params[name].tobytes()


def test_fit_with_targets_built_once_matches_per_step_targets():
    # the parameter vector and loss curve of two epochs, against a loop that
    # builds each graph's class-weighted targets on every step
    dataset, schema = _desk_dataset(n_each=1, n_clean=3, seed=4)
    prepared = prepare_dataset(dataset, schema)
    cfg = TrainConfig(n_splits=1, epochs=2, seed=6)
    result = fit(dataset, model_seed=2, cfg=cfg, prepared=prepared)
    weights = class_weights(dataset)
    model = build_model(seed=2)
    optimizer = AdamOptimizer(model, lr=cfg.learning_rate)
    order_rng = np.random.default_rng([cfg.seed, 1162261467, 2])
    curve = []
    for _ in range(cfg.epochs):
        total = 0.0
        for i in order_rng.permutation(len(dataset)):
            fwd = model_forward(prepared[i], model)
            loss, back = tc.binary_cross_entropy(fwd.data, *bce_targets_reference(
                dataset[i].labels, fwd.data.shape, weights.w_anomalous,
                weights.w_normal))
            model_backward(fwd, back(1.0), optimizer.grads)
            optimizer.step()
            total += float(loss)
        curve.append(total / len(dataset))
    assert result.model.vector.tobytes() == model.vector.tobytes()
    assert result.loss_curve == curve


def test_fit_loss_decreases_on_smoke_set():
    dataset, schema = _desk_dataset(n_each=5, n_clean=30, seed=2)
    cfg = TrainConfig(n_splits=2, epochs=5, seed=0)
    result = fit(dataset, model_seed=0, cfg=cfg,
                 prepared=prepare_dataset(dataset, schema))
    assert result.loss_curve[4] <= result.loss_curve[0]
    assert all(np.isfinite(v) for v in result.loss_curve)


def test_fit_empty_dataset_rejected():
    with pytest.raises(TrainingError):
        fit([], model_seed=0, cfg=TrainConfig(epochs=1), prepared=[])


def test_cross_validate_shapes_and_averages():
    dataset, schema = _desk_dataset(n_each=3, n_clean=10, seed=7)
    cfg = TrainConfig(n_splits=3, epochs=2, seed=2)
    result = run_cross_validation(dataset, cfg, schema)
    report = result.report
    assert len(report.per_split) == 3
    assert len(result.models) == 3
    assert len(result.loss_curves) == 3
    for cls_name in ("anomalous", "non_anomalous"):
        for field in ("precision", "recall", "f1"):
            values = [getattr(getattr(s, cls_name), field) for s in report.per_split]
            np.testing.assert_allclose(getattr(report.averages[cls_name], field),
                                       np.mean(values), atol=1e-12)
    assert report.parameter_count == 63201
    assert report.config["n_splits"] == 3


def test_cross_validate_deterministic_reports():
    dataset, schema = _desk_dataset(n_each=2, n_clean=8, seed=9)
    cfg = TrainConfig(n_splits=2, epochs=1, seed=4)
    a = run_cross_validation(dataset, cfg, schema).report
    b = run_cross_validation(dataset, cfg, schema).report
    assert a.to_json() == b.to_json()


def test_cross_validate_workers_match_sequential(tmp_path):
    """Models trained in worker processes come back pickled, as views of one
    vector, and save the same checkpoint blobs."""
    dataset, schema = _desk_dataset(n_each=2, n_clean=8, seed=11)
    cfg = TrainConfig(n_splits=2, epochs=1, seed=4)
    seq = run_cross_validation(dataset, cfg, schema, workers=1)
    par = run_cross_validation(dataset, cfg, schema, workers=2)
    assert seq.report.to_json() == par.report.to_json()
    for k, (m1, m2) in enumerate(zip(seq.models, par.models)):
        for name in m1.params:
            assert m1.params[name].tobytes() == m2.params[name].tobytes()
            assert np.shares_memory(m2.params[name], m2.vector)
        _, blob1 = save_checkpoint(tmp_path / f"seq_{k}", m1)
        _, blob2 = save_checkpoint(tmp_path / f"par_{k}", m2)
        assert blob1.read_bytes() == blob2.read_bytes()


@pytest.mark.parametrize("workers, processes", [(8, 2), (2, 2), (1, None)])
def test_cross_validate_starts_no_more_processes_than_splits(
        monkeypatch, workers, processes):
    import rssigat.train
    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(rssigat.train.multiprocessing, "Pool", InProcessPool)
    dataset, schema = _desk_dataset(n_each=2, n_clean=8, seed=11)
    cfg = TrainConfig(n_splits=2, epochs=1, seed=4)
    run_cross_validation(dataset, cfg, schema, workers=workers)
    assert started == ([] if processes is None else [processes])


def test_loss_curves_csv_layout():
    text = loss_curves_to_csv([[0.5, 0.25], [0.75]])
    lines = text.strip().splitlines()
    assert lines[0] == "split,epoch,loss"
    assert lines[1] == "0,0,0.5"
    assert lines[3] == "1,0,0.75"
