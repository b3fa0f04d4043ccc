"""Tests of the benchmark's own logic: span arithmetic, percentile choice,
output checks, and a tiny run of every workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spans import Span, layer_self_times, self_times, tail_percentile

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        Span("train.fit", 0.0, 10.0),
        Span("gat_model.model_forward", 1.0, 4.0, parent=0),
        Span("gat_model.prepare_graph", 2.0, 3.0, parent=1),
        Span("tensor_core.backward", 5.0, 7.0, parent=0),
        Span("tensor_core.backward", 6.0, 8.0, parent=0),  # overlaps the last
        Span("train.weighted_bce", 9.0, 12.0, parent=0),  # ends after parent
    ]
    # root: 10 - |[1,4] u [5,8] u [9,10]| = 10 - 7
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0, 3.0])
    assert layer_self_times(spans) == pytest.approx(
        {"train": 6.0, "gat_model": 3.0, "tensor_core": 4.0})


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span("trace.synthesize_clean", 1.5, 2.25)]) == [0.75]


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (19, None), (0, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_weights_match_9_digits():
    import workloads

    fresh = np.array([0.123456789123, 1.0, 3.3333333333e-5, 0.5])
    read = np.array([float(f"{w:.9g}") for w in fresh])
    assert workloads.weights_match_9_digits(read, fresh)
    nudged = read.copy()
    nudged[2] *= 1 + 3e-8
    assert not workloads.weights_match_9_digits(nudged, fresh)
    assert not workloads.weights_match_9_digits(read[:3], fresh)


def test_rates_and_job_times_are_scaled_per_job():
    import workloads

    m = workloads.Measured(job_s=[2.0, 1.0, 4.0], job_ops=[10, 10, 10],
                           factor=[0.5, 1.0, 0.5],
                           samples={"load_s": [1.0, 1.0, 1.0]})
    assert m.scaled_s() == [1.0, 1.0, 2.0]
    assert m.rate_per_s() == 10.0
    assert m.rate_per_s("load_s") == 20.0


def test_runs_match():
    import workloads

    labels = np.array([0, 1, 1, 0, 1], dtype=np.int8)
    assert workloads.runs_match(labels, [(1, 2), (4, 1)], 5)
    assert not workloads.runs_match(labels, [(1, 2)], 5)
    assert not workloads.runs_match(labels, [(1, 2), (4, 1)], 6)


# ---------------------------------------------------------------------------
# tiny runs

TINY = {
    "TrainDesk": {"each": 2, "clean": 4, "splits": 2, "epochs": 1},
    "PipelinePaper": {"each": 1, "clean": 1, "length": 100},
    # blocks of 100 traces, enough for a tail percentile above p50
    "PredictStream": {"length": 100, "equivalence_traces": 1},
}
TABLE_NAMES = {
    "train-desk": ["train_steps_per_s", "cv_wall_s", "anomalous_f1"],
    "pipeline-paper": ["pipeline_traces_per_s", "graph_load_traces_per_s"],
    "predict-stream": ["predict_traces_per_s", "predict_p50_ms"],
}


@pytest.fixture
def tiny(monkeypatch):
    import workloads

    for cls, sizes in TINY.items():
        for key, value in sizes.items():
            monkeypatch.setattr(getattr(workloads, cls), key, value)
    monkeypatch.chdir(ROOT)
    # the run pins BLAS threads in os.environ; keep that out of other tests
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)


def run_bench(argv):
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TABLE_NAMES))
def test_tiny_run_prints_every_end_to_end_metric(tiny, workload):
    code, lines, result = run_bench(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", "0"])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = {line.split()[0]: line.split()[2] for line in lines
             if not line.startswith(("#", "{")) and len(line.split()) == 3}
    for name in TABLE_NAMES[workload] + ["setup_s", "peak_rss_mb",
                                         "failed_share"]:
        assert name in table, name
    if workload == "predict-stream":
        # the tail row is named after the percentile the samples allow
        tails = [n for n in table if re.fullmatch(r"predict_p[0-9.]+_ms", n)]
        assert len(tails) == 2 and table["predict_p50_ms"] == "ms"
    assert any(line.startswith("# env ") for line in lines)


@pytest.mark.parametrize("workload", sorted(TABLE_NAMES))
def test_tiny_traced_run_prints_every_per_layer_metric(tiny, workload):
    code, lines, result = run_bench(
        ["--workload", workload, "--seed", "4", "--seconds", "0.2",
         "--trace", "1"])
    assert code == 0
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "# self time in the traced jobs" in lines
    assert any(line.startswith("job_s ") for line in lines)
    reached = {"train-desk": "train", "pipeline-paper": "cli",
               "predict-stream": "gat_model"}[workload]
    assert result["metrics"][f"{reached}.self_ms_per_op"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "train-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
