"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The learning criteria (6, 7)
share one desk-scale cross-validation run via a module-scoped fixture; it
runs on two worker processes and takes a minute or two.
"""
import hashlib
import json
import time

import numpy as np
import pytest

from rssigat.cli import main as cli_main
from rssigat.gat_model import build_model, count_parameters, predict, \
    prepare_graph
from rssigat.inject import (ANOMALOUS_KINDS, AnomalyKind, InjectionParams,
                            build_dataset, read_dataset)
from rssigat.mtf_graph import transform
from rssigat.trace import RssiTrace, TraceSchema, synthesize_clean
from rssigat.train import TrainConfig, prepare_dataset, run_cross_validation
from gradcheck import primitive_cases, check_case, run_model_fd_trials
from oracles import mtf_oracle

DESK_SCHEMA = TraceSchema(expected_length=100)


def _ok(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: transform equals a brute-force oracle on 200 random series

def test_c1_mtf_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240)
    schema = TraceSchema(expected_length=50)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 51))
        samples = rng.integers(0, 129, size=n).astype(float)
        graph = transform(RssiTrace("t", samples), schema)
        bins, q, w, m, edges = mtf_oracle(samples, schema.rssi_min,
                                          schema.rssi_max, n)
        # at one quantile bin per sample the bins are the value classes
        assert graph.node_map.tolist() == bins
        assert graph.n_rows == q
        nodes = graph.expand()
        assert nodes.n_nodes == n
        assert list(zip(nodes.edge_src.tolist(), nodes.edge_dst.tolist())) \
            == [(s, d) for s, d, _ in edges]
        np.testing.assert_allclose(
            nodes.edge_weights, [wt for _, _, wt in edges], atol=1e-12)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    _ok(f"1 mtf-oracle-equivalence ({checked} series at Q = N, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: hand-worked field for [1, 1, 2, 2]

def test_c2_hand_worked_mtf_case():
    graph = transform(RssiTrace("t", np.array([1.0, 1.0, 2.0, 2.0])),
                      TraceSchema(expected_length=4))
    np.testing.assert_array_equal(graph.weights, [[0.5, 0.5], [0.0, 1.0]])
    nodes = graph.expand()
    np.testing.assert_array_equal(nodes.weights, [
        [0.5, 0.5, 0.5, 0.5],
        [0.5, 0.5, 0.5, 0.5],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
    ])
    assert nodes.n_edges == 12
    _ok("2 hand-worked-mtf-case (W, M exact; 12 directed edges)")


# ---------------------------------------------------------------------------
# criterion 3: finite-difference gradient checks

def test_c3_gradient_correctness():
    started = time.perf_counter()
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        for build_loss, leaf in primitive_cases(rng):
            check_case(build_loss, leaf)
    attempts = run_model_fd_trials(n_trials=20)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _ok(f"3 gradient-correctness ({len(primitive_cases(rng))} primitive cases "
        f"x 20 trials + 20 model trials in {attempts} attempts, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: parameter budget

def test_c4_parameter_budget():
    count = count_parameters(build_model(seed=0))
    assert 20_000 <= count <= 70_000
    _ok(f"4 parameter-budget (count {count}, reference ~0.035M)")


# ---------------------------------------------------------------------------
# criterion 5: full-composition injection through the CLI

def test_c5_dataset_composition_and_injection_statistics(tmp_path):
    traces = tmp_path / "clean.csv"
    dataset_path = tmp_path / "dataset.jsonl"
    assert cli_main(["synth", "--count", "8492", "--length", "300",
                     "--seed", "1", "-o", str(traces)]) == 0
    assert cli_main(["inject", "-i", str(traces), "--each", "700",
                     "--clean", "5692", "--seed", "2",
                     "-o", str(dataset_path)]) == 0
    dataset = read_dataset(dataset_path)
    assert len(dataset) == 8492
    kinds = [item.kind for item in dataset]
    for kind in ANOMALOUS_KINDS:
        assert kinds.count(kind) == 700
    assert kinds.count(AnomalyKind.NONE) == 5692

    # injection statistics against the configured ordinal ranges (0-based)
    sd_onsets = [d.descriptor.onset for d in dataset if d.kind is AnomalyKind.SUDDEN_D]
    sr = [d.descriptor for d in dataset if d.kind is AnomalyKind.SUDDEN_R]
    sl = [d.descriptor for d in dataset if d.kind is AnomalyKind.SLOW_D]
    assert min(sd_onsets) >= 199 and max(sd_onsets) <= 279
    assert all(199 <= o <= 279 for o in sd_onsets)
    assert all(24 <= d.onset <= 274 for d in sr)
    assert all(5 <= d.duration <= 20 for d in sr)
    assert all(0 <= d.onset <= 19 for d in sl)
    assert all(150 <= d.duration <= 180 for d in sl)
    # onset histogram covers the whole SuddenD range
    hist = np.bincount(np.array(sd_onsets) - 199, minlength=81)
    assert np.all(hist > 0)
    _ok("5 dataset-composition (8492 = 4x700 + 5692; onsets/durations in range)")


# ---------------------------------------------------------------------------
# criteria 6 and 7 share one desk-scale training run

@pytest.fixture(scope="module")
def desk_run():
    started = time.perf_counter()
    clean = synthesize_clean(600, DESK_SCHEMA, np.random.default_rng(101))
    params = InjectionParams.scaled_to_length(100)
    composition = {kind: 60 for kind in ANOMALOUS_KINDS}
    composition[AnomalyKind.NONE] = 360
    dataset = build_dataset(clean, composition, params,
                            np.random.default_rng(202), DESK_SCHEMA)
    cfg = TrainConfig(n_splits=5, seed=11)
    result = run_cross_validation(dataset, cfg, DESK_SCHEMA, workers=2)
    elapsed = time.perf_counter() - started
    return (dataset, prepare_dataset(dataset, DESK_SCHEMA), cfg, result,
            elapsed)


def test_c6_desk_scale_learning(desk_run):
    dataset, _, cfg, result, elapsed = desk_run
    assert len(dataset) == 600
    assert cfg.n_splits == 5 and cfg.epochs == 50
    averages = result.report.averages
    assert elapsed < 1800, f"desk-scale run took {elapsed:.0f}s"
    assert averages["non_anomalous"].f1 >= 0.90
    assert averages["anomalous"].f1 >= 0.80
    _ok(f"6 desk-scale-learning (anomalous F1 {averages['anomalous'].f1:.3f}, "
        f"non-anomalous F1 {averages['non_anomalous'].f1:.3f}, {elapsed:.0f}s)")


def test_c7_localization_jaccard(desk_run):
    dataset, prepared, _, result, _ = desk_run
    scores = []
    clean_flagged = []
    for k, (train_idx, test_idx) in enumerate(result.splits):
        model = result.models[k]
        for i in test_idx:
            kind = dataset[i].kind
            if kind not in (AnomalyKind.SUDDEN_R, AnomalyKind.NONE):
                continue
            pred = predict(prepared[i], model).astype(bool)
            if kind is AnomalyKind.NONE:
                clean_flagged.append(pred.mean())
                continue
            truth = dataset[i].labels.astype(bool)
            union = np.sum(pred | truth)
            scores.append(np.sum(pred & truth) / union if union else 1.0)
    mean_jaccard = float(np.mean(scores))
    assert mean_jaccard >= 0.5
    # held-out clean traces stay near-silent under the same models
    assert float(np.mean(clean_flagged)) < 0.05
    _ok(f"7 localization (mean Jaccard {mean_jaccard:.3f} over "
        f"{len(scores)} held-out SuddenR traces; "
        f"{np.mean(clean_flagged):.1%} flagged on clean)")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical end-to-end reruns

def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pipeline(root, monkeypatch):
    root.mkdir()
    monkeypatch.chdir(root)
    assert cli_main(["synth", "--count", "40", "--length", "60", "--seed", "5",
                     "-o", "traces.csv"]) == 0
    assert cli_main(["inject", "-i", "traces.csv", "--each", "3", "--clean", "28",
                     "--seed", "6", "-o", "dataset.jsonl"]) == 0
    assert cli_main(["transform", "-i", "dataset.jsonl", "-o", "graphs.jsonl"]) == 0
    assert cli_main(["train", "--dataset", "dataset.jsonl", "--splits", "2",
                     "--epochs", "3", "--seed", "7", "-o", "run"]) == 0
    files = ["traces.csv", "dataset.jsonl", "graphs.jsonl",
             "run/checkpoint_0.json", "run/checkpoint_0.bin",
             "run/checkpoint_1.json", "run/checkpoint_1.bin",
             "run/splits.json", "run/loss_curves.csv", "run/report.json",
             "run/report.txt", "run/report.csv", "run/manifest.json",
             "traces.csv.manifest.json", "dataset.jsonl.manifest.json",
             "graphs.jsonl.manifest.json"]
    return {name: _digest(root / name) for name in files}


def test_c8_end_to_end_determinism(tmp_path, monkeypatch):
    first = _pipeline(tmp_path / "run1", monkeypatch)
    second = _pipeline(tmp_path / "run2", monkeypatch)
    assert first == second
    _ok(f"8 determinism ({len(first)} files byte-identical across reruns, "
        "manifests included)")
