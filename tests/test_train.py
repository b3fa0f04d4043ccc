import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import rssigat.tensor_core as tc
from rssigat.gat_model import build_model, model_backward, model_forward, \
    save_checkpoint
from rssigat.inject import AnomalyDescriptor, AnomalyKind, LabeledTrace, \
    build_dataset
from rssigat.train import (FLUSH_PERIOD, LEARNING_RATE, AdamOptimizer,
                           ClassWeights, SplitError, TrainConfig,
                           TrainingError, bce_targets, class_weights, fit,
                           loss_and_grads, loss_curves_to_csv,
                           prepare_dataset, run_cross_validation,
                           stratified_shuffle_split, weighted_bce)
from rssigat.trace import RssiTrace, TraceSchema, synthesize_clean
from oracles import bce_targets_reference, max_rel_err

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
    """One whole-vector update rounds as Adam over each parameter array, in
    the form with the moments stored without their (1 - beta) factors."""
    model = build_model(seed=1)
    optimizer = AdamOptimizer(model, lr=3e-3)
    rng = np.random.default_rng(0)
    ref = {name: p.copy() for name, p in model.params.items()}
    m = {name: np.zeros_like(p) for name, p in ref.items()}
    v = {name: np.zeros_like(p) for name, p in ref.items()}
    for t in range(1, 4):
        scale = (3e-3 * np.sqrt(1 - 0.999 ** t) / (1 - 0.9 ** t)
                 * (1 - 0.9) / np.sqrt(1 - 0.999))
        eps = 1e-8 / np.sqrt(1 - 0.999)
        for name, p in ref.items():
            g = rng.standard_normal(p.shape)
            optimizer.grads[name][...] = g
            m[name] = m[name] * 0.9 + g
            v[name] = v[name] * 0.999 + g * g
            p -= m[name] / (np.sqrt(v[name]) + eps) * scale
        optimizer.step()
        for name, p in ref.items():
            assert model.params[name].tobytes() == p.tobytes()


def test_adam_matches_the_textbook_update():
    """240 steps of random gradients, some entries 0 throughout as a dead
    unit's are, give the parameters of Kingma & Ba's update with the moments
    m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, within a relative
    1e-13 of max(|p|, 1): the two forms are equal in exact arithmetic, and
    each step's update, at most ~lr in size, differs by a few roundings."""
    model = build_model(seed=2)
    optimizer = AdamOptimizer(model, lr=3e-3)
    rng = np.random.default_rng(1)
    p = model.vector.copy()
    m, v = np.zeros_like(p), np.zeros_like(p)
    dead = rng.random(p.size) < 0.1
    for t in range(1, 241):
        g = rng.standard_normal(p.size) * rng.choice([1e-3, 1.0, 30.0])
        g[dead] = 0.0
        optimizer.grad[:] = g
        optimizer.step()
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        p -= (3e-3 * np.sqrt(1 - 0.999 ** t) / (1 - 0.9 ** t)
              * m / (np.sqrt(v) + 1e-8))
    assert max_rel_err(model.vector, p) < 1e-13
    assert not np.array_equal(model.vector, p)  # the rounding does differ


def test_adam_flushes_subnormal_first_moments():
    """Entries whose gradient is 0 decay their stored first moment by 0.9 a
    step. Every FLUSH_PERIOD steps those below the smallest normal float64
    are set to 0, without a parameter-sized allocation; the rest, and the
    parameters, are left as the unflushed update gives them."""
    tiny = np.finfo(np.float64).tiny
    model = build_model(seed=3)
    optimizer = AdamOptimizer(model, lr=3e-3)
    m0 = np.zeros_like(optimizer.m)
    m0[:4] = [4 * tiny, -4 * tiny, 1e-300, -1.0]  # 4 tiny 0.9^32 < tiny
    optimizer.m[:] = m0
    optimizer.v[:] = 1.0
    p, m, v = model.vector.copy(), m0.copy(), optimizer.v.copy()
    for t in range(1, FLUSH_PERIOD + 1):
        optimizer.grad[:] = 0.0
        tracemalloc.start()
        optimizer.step()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * 1024, (t, peak)
        m *= 0.9
        v *= 0.999
        scale = (3e-3 * np.sqrt(1 - 0.999 ** t) / (1 - 0.9 ** t)
                 * (1 - 0.9) / np.sqrt(1 - 0.999))
        p -= m / (np.sqrt(v) + 1e-8 / np.sqrt(1 - 0.999)) * scale
    assert 0 < abs(m[0]) < tiny and 0 < abs(m[1]) < tiny  # unflushed
    subnormal = (optimizer.m != 0) & (np.abs(optimizer.m) < tiny)
    assert not subnormal.any()
    assert optimizer.m[0] == optimizer.m[1] == 0.0
    np.testing.assert_array_equal(optimizer.m[2:], m[2:])
    assert optimizer.m[2] > tiny
    assert model.vector.tobytes() == p.tobytes()


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
    optimizer = AdamOptimizer(model, lr=LEARNING_RATE)
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


def test_fit_divergence_names_the_epoch(monkeypatch):
    dataset, schema = _desk_dataset(n_each=1, n_clean=2)
    monkeypatch.setattr("rssigat.train.LEARNING_RATE", 1e300)
    cfg = TrainConfig(epochs=2)
    with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"^training diverged in epoch 0: "):
        fit(dataset, model_seed=0, cfg=cfg,
            prepared=prepare_dataset(dataset, schema))


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


def _in_process_pool(monkeypatch, cpus):
    """Replace the spawn context's ``Pool`` with one that maps in this
    process and ``os.cpu_count`` with ``cpus``; returns the list of pool
    sizes asked for. No process is started."""
    import rssigat.train
    started = []

    class InProcessPool:
        def __init__(self, processes, **_):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    def get_context(method):
        assert method == "spawn"
        return SimpleNamespace(Pool=InProcessPool)

    monkeypatch.setattr(rssigat.train.multiprocessing, "get_context", get_context)
    monkeypatch.setattr(rssigat.train.os, "cpu_count", lambda: cpus)
    return started


@pytest.mark.parametrize("workers, processes", [(8, 2), (2, 2), (1, None)])
def test_cross_validate_starts_no_more_processes_than_splits(
        monkeypatch, workers, processes):
    started = _in_process_pool(monkeypatch, cpus=8)
    dataset, schema = _desk_dataset(n_each=2, n_clean=8, seed=11)
    cfg = TrainConfig(n_splits=2, epochs=1, seed=4)
    run_cross_validation(dataset, cfg, schema, workers=workers)
    assert started == ([] if processes is None else [processes])


@pytest.mark.parametrize("workers, cpus, processes", [
    (10, 2, 2), (10, 1, None), (10, None, None), (2, 8, 2), (10, 8, 3)])
def test_cross_validate_starts_no_more_processes_than_cpus(
        monkeypatch, workers, cpus, processes):
    """Each worker holds its own copy of the dataset, so there are never
    more workers than CPUs, and one when the count is unknown."""
    started = _in_process_pool(monkeypatch, cpus)
    dataset, schema = _desk_dataset(n_each=2, n_clean=8, seed=11)
    cfg = TrainConfig(n_splits=3, epochs=1, seed=4)
    run_cross_validation(dataset, cfg, schema, workers=workers)
    assert started == ([] if processes is None else [processes])


@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "2"}],
                         ids=["all-unset", "omp-set"])
def test_worker_pool_pins_unset_blas_variables(monkeypatch, preset):
    """Workers start with 1 in each BLAS thread variable the caller left
    unset and the caller's value in the others; the caller's environment is
    as it was once the pool has started."""
    from rssigat.train import BLAS_THREAD_VARIABLES, _worker_pool
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in preset.items():
        monkeypatch.setenv(name, value)
    before = dict(os.environ)
    with _worker_pool(2) as pool:
        assert dict(os.environ) == before
        seen = pool.map(os.getenv, BLAS_THREAD_VARIABLES * 2, chunksize=1)
    assert seen == [preset.get(name, "1") for name in BLAS_THREAD_VARIABLES] * 2


def test_worker_pool_keeps_the_callers_warning_filters():
    """The suite turns a RuntimeWarning into an error (pyproject.toml); a
    spawned worker starts with the default filters unless the pool hands it
    the caller's, and would then only print the warning."""
    from rssigat.train import _worker_pool
    with _worker_pool(2) as pool:
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            pool.map(np.log, [np.zeros(1)] * 2, chunksize=1)


def test_loss_curves_csv_layout():
    text = loss_curves_to_csv([[0.5, 0.25], [0.75]])
    lines = text.strip().splitlines()
    assert lines[0] == "split,epoch,loss"
    assert lines[1] == "0,0,0.5"
    assert lines[3] == "1,0,0.75"


def test_perfbench_wrapped_names_resolve():
    """Every name that perfbench wraps is still there, but for the two its
    list has kept since they were deleted: its tracer skips a missing name
    without a word, and the spans of that name then read 0. Names come from
    ``WRAPPED`` in its source."""
    import ast
    import importlib
    from pathlib import Path

    source = Path(__file__).parent.parent / "perfbench" / "spans.py"
    wrapped = next(
        ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"])
    missing = set()
    for layer, names in wrapped.items():
        module = importlib.import_module(f"rssigat.{layer}")
        for qualname in names:
            owner = module
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.add(f"{layer}.{qualname}")
    assert missing == {"mtf_graph.transform_many", "tensor_core.backward"}
