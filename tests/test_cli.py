import hashlib
import json
import re

import numpy as np
import pytest

from rssigat.cli import main
from rssigat.gat_model import build_model, save_checkpoint
from rssigat.inject import read_dataset
from rssigat.metrics import EvalReport, split_metrics
from rssigat.mtf_graph import GraphError, read_graphs, transform
from rssigat.trace import read_traces_csv


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def pipeline_dir(tmp_path):
    """Small end-to-end run shared by several tests."""
    traces = tmp_path / "traces.csv"
    dataset = tmp_path / "dataset.jsonl"
    graphs = tmp_path / "graphs.jsonl"
    run_dir = tmp_path / "run"
    assert _run("synth", "--count", 36, "--length", 60, "--seed", 7,
                "-o", traces) == 0
    assert _run("inject", "-i", traces, "--each", 3, "--clean", 24,
                "--seed", 3, "-o", dataset) == 0
    assert _run("transform", "-i", dataset, "-o", graphs) == 0
    assert _run("train", "--dataset", dataset, "--splits", 2, "--epochs", 2,
                "--seed", 1, "-o", run_dir) == 0
    return tmp_path


def test_synth_writes_expected_count(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert _run("synth", "--count", 5, "--length", 30, "--seed", 2, "-o", out) == 0
    assert len(read_traces_csv(out)) == 5
    assert "wrote 5 traces" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert str(out) in manifest["outputs"]


def test_synth_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run("synth", "--count", 8, "--length", 25, "--seed", 9, "-o", a)
    _run("synth", "--count", 8, "--length", 25, "--seed", 9, "-o", b)
    assert _digest(a) == _digest(b)


def test_synth_count_zero_is_usage_error(tmp_path, capsys):
    code = _run("synth", "--count", 0, "--length", 30, "-o", tmp_path / "x.csv")
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [
    ("--baseline-min", 200, "--baseline-max", 300),  # above --rssi-max
    ("--baseline-min", 5, "--rssi-min", 10),         # below --rssi-min
    ("--baseline-min", 50, "--baseline-max", 40),    # reversed
])
def test_synth_baseline_outside_bounds_is_usage_error(tmp_path, capsys, bounds):
    """A baseline range the bounds would clip away writes nothing."""
    out = tmp_path / "x.csv"
    code = _run("synth", "--count", 3, "--length", 30, *bounds, "-o", out)
    assert code == 2
    assert "--baseline-min/--baseline-max" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ingest_round_trip(tmp_path):
    raw = tmp_path / "raw.log"
    lines = ["# link a noise=0"] + [f"{i},{40 + (i % 3)}" for i in range(30)]
    lines += ["# link b noise=0"] + [f"{i},30" for i in range(29)]  # short
    raw.write_text("\n".join(lines) + "\n")
    out = tmp_path / "traces.csv"
    assert _run("ingest", "-i", raw, "--length", 30, "-o", out) == 0
    traces = read_traces_csv(out)
    assert [t.link_id for t in traces] == ["a"]


def test_inject_counts_match_flags(tmp_path, capsys):
    traces = tmp_path / "t.csv"
    _run("synth", "--count", 20, "--length", 50, "--seed", 1, "-o", traces)
    out = tmp_path / "d.jsonl"
    assert _run("inject", "-i", traces, "--suddend", 1, "--clean", 0,
                "--seed", 0, "-o", out) == 0
    items = read_dataset(out)
    assert len(items) == 1 and items[0].kind.value == "SuddenD"
    assert "1 total, 1 anomalous" in capsys.readouterr().out


def test_inject_capacity_error(tmp_path, capsys):
    traces = tmp_path / "t.csv"
    _run("synth", "--count", 3, "--length", 50, "--seed", 1, "-o", traces)
    code = _run("inject", "-i", traces, "--clean", 9, "--seed", 0,
                "-o", tmp_path / "d.jsonl")
    assert code == 1
    assert "rssigat: error:" in capsys.readouterr().err


def test_inject_empty_composition_is_usage_error(tmp_path, capsys):
    traces = tmp_path / "t.csv"
    _run("synth", "--count", 3, "--length", 50, "--seed", 1, "-o", traces)
    before = sorted(tmp_path.iterdir())
    code = _run("inject", "-i", traces, "--each", 0, "--clean", 0,
                "-o", tmp_path / "d.jsonl")
    assert code == 2
    assert "composition is empty" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_inject_drops_land_on_rssi_min(tmp_path):
    """A dataset injected under ``--rssi-min`` is within those bounds: its
    drops sit at the floor, and ``transform`` accepts it."""
    traces, dataset = tmp_path / "t.csv", tmp_path / "d.jsonl"
    assert _run("synth", "--count", 10, "--length", 60, "-o", traces) == 0
    assert _run("inject", "-i", traces, "--rssi-min", 10, "--each", 1,
                "--clean", 6, "-o", dataset) == 0
    assert _run("transform", "-i", dataset, "--rssi-min", 10,
                "-o", tmp_path / "g.jsonl") == 0
    drops = [item for item in read_dataset(dataset)
             if item.kind.value in ("SuddenD", "SuddenR", "InstaD")]
    assert len(drops) == 3
    for item in drops:
        assert np.all(item.trace.samples[item.labels == 1] == 10.0)


def test_transform_counts_and_node_lengths(pipeline_dir):
    graphs = read_graphs(pipeline_dir / "graphs.jsonl")
    dataset = read_dataset(pipeline_dir / "dataset.jsonl")
    assert len(graphs) == len(dataset) == 36
    for g, item in zip(graphs, dataset):
        assert g.n_nodes == item.trace.length
        assert g.link_id == item.trace.link_id


def test_train_outputs(pipeline_dir, capsys):
    run_dir = pipeline_dir / "run"
    for name in ("checkpoint_0.json", "checkpoint_0.bin", "checkpoint_1.json",
                 "splits.json", "loss_curves.csv", "report.json", "report.txt",
                 "report.csv", "manifest.json"):
        assert (run_dir / name).exists(), name
    report = EvalReport.from_json((run_dir / "report.json").read_text())
    assert len(report.per_split) == 2
    assert 20_000 <= report.parameter_count <= 70_000
    curves = (run_dir / "loss_curves.csv").read_text().strip().splitlines()
    assert curves[0] == "split,epoch,loss"
    assert len(curves) == 1 + 2 * 2  # header + splits x epochs


def test_eval_reproduces_stored_split_metrics(pipeline_dir):
    run_dir = pipeline_dir / "run"
    assert _run("eval", "--run", run_dir, "--dataset", pipeline_dir / "dataset.jsonl",
                "--split", 0) == 0
    payload = json.loads((run_dir / "eval_split_0.json").read_text())
    report = EvalReport.from_json((run_dir / "report.json").read_text())
    stored = report.per_split[0]
    assert payload["anomalous"] == vars(stored.anomalous)
    assert payload["non_anomalous"] == vars(stored.non_anomalous)


def test_eval_reads_a_run_with_the_old_config_keys(pipeline_dir):
    """A run whose report.json config still holds ``optimizer`` and
    ``test_fraction`` evaluates to the same payload as the current run."""
    run_dir, old_dir = pipeline_dir / "run", pipeline_dir / "old_run"
    old_dir.mkdir()
    for name in ("splits.json", "checkpoint_0.json", "checkpoint_0.bin"):
        (old_dir / name).write_bytes((run_dir / name).read_bytes())
    report = json.loads((run_dir / "report.json").read_text())
    config = report["config"]
    report["config"] = {"n_splits": config["n_splits"], "test_fraction": 0.2,
                        "epochs": config["epochs"],
                        "learning_rate": config["learning_rate"],
                        "optimizer": "adam", "seed": config["seed"],
                        "threshold": config["threshold"]}
    (old_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    dataset = pipeline_dir / "dataset.jsonl"
    assert _run("eval", "--run", run_dir, "--dataset", dataset, "--split", 0,
                "-o", pipeline_dir / "new.json") == 0
    assert _run("eval", "--run", old_dir, "--dataset", dataset, "--split", 0,
                "-o", pipeline_dir / "old.json") == 0
    assert (pipeline_dir / "old.json").read_bytes() == \
        (pipeline_dir / "new.json").read_bytes()


@pytest.mark.parametrize("flags", [["--config", "train.cfg"],
                                   ["--optimizer", "sgd"]],
                         ids=["config", "optimizer"])
def test_train_rejects_removed_flags(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        _run("train", "--dataset", tmp_path / "dataset.jsonl", *flags,
             "-o", tmp_path / "run")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_transforms_only_the_test_split(pipeline_dir, monkeypatch):
    import rssigat.train
    calls = []

    def counting_transform(*args, **kwargs):
        calls.append(args[0].link_id)
        return transform(*args, **kwargs)

    monkeypatch.setattr(rssigat.train, "transform", counting_transform)
    run_dir = pipeline_dir / "run"
    assert _run("eval", "--run", run_dir, "--dataset", pipeline_dir / "dataset.jsonl",
                "--split", 1, "-o", pipeline_dir / "eval1.json") == 0
    dataset = read_dataset(pipeline_dir / "dataset.jsonl")
    test_idx = json.loads((run_dir / "splits.json").read_text())[1]["test"]
    assert calls == [dataset[i].trace.link_id for i in test_idx]
    payload = json.loads((pipeline_dir / "eval1.json").read_text())
    stored = EvalReport.from_json((run_dir / "report.json").read_text()).per_split[1]
    assert payload["anomalous"] == vars(stored.anomalous)


def test_eval_rejects_bad_split(pipeline_dir, capsys):
    code = _run("eval", "--run", pipeline_dir / "run",
                "--dataset", pipeline_dir / "dataset.jsonl", "--split", 99)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_bad_stored_threshold(pipeline_dir, capsys):
    run_dir = pipeline_dir / "nan_run"
    run_dir.mkdir()
    for name in ("splits.json", "checkpoint_0.json", "checkpoint_0.bin"):
        (run_dir / name).write_bytes((pipeline_dir / "run" / name).read_bytes())
    report = json.loads((pipeline_dir / "run" / "report.json").read_text())
    report["config"]["threshold"] = float("nan")
    (run_dir / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert _run("eval", "--run", run_dir, "--dataset",
                pipeline_dir / "dataset.jsonl", "--split", 0) == 1
    assert capsys.readouterr().err == \
        f"rssigat: error: {run_dir / 'report.json'}: threshold must be in [0, 1]\n"
    assert not (run_dir / "eval_split_0.json").exists()


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize("text, message", [
    (lambda report: "not JSON", "Expecting value: line 1 column 1 (char 0)"),
    (lambda report: json.dumps({**report, "config": {}}),
     "lacks key 'threshold'"),
    (lambda report: json.dumps(
        {**report, "config": {**report["config"], "threshold": 1.5}}),
     "threshold must be in [0, 1]"),
], ids=["not-json", "missing-threshold", "threshold-above-one"])
def test_bad_report_file_is_named(pipeline_dir, capsys, command, text, message):
    run_dir = pipeline_dir / "run"
    path = run_dir / "report.json"
    path.write_text(text(json.loads(path.read_text())))
    files = sorted(run_dir.iterdir())
    args = {"eval": ("--dataset", pipeline_dir / "dataset.jsonl", "--split", 0),
            "report": ()}[command]
    capsys.readouterr()
    assert _run(command, "--run", run_dir, *args) == 1
    assert capsys.readouterr().err == f"rssigat: error: {path}: {message}\n"
    assert sorted(run_dir.iterdir()) == files


@pytest.mark.parametrize("edit", [
    lambda splits: [{"train": splits[0]["train"]}],
    lambda splits: [{"train": [], "test": [36]}],
    lambda splits: [{"train": [], "test": [-1]}],
    lambda splits: [{"train": [True], "test": [0]}],
    lambda splits: [{"train": [], "test": [0.0]}],
    lambda splits: {},
], ids=["missing-test", "past-the-end", "negative", "boolean", "float",
        "top-level-object"])
def test_eval_rejects_bad_splits_file(pipeline_dir, capsys, edit):
    run_dir = pipeline_dir / "run"
    path = run_dir / "splits.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert _run("eval", "--run", run_dir, "--dataset",
                pipeline_dir / "dataset.jsonl", "--split", 0) == 1
    assert capsys.readouterr().err == (
        f"rssigat: error: {path}: not a list of {{\"train\", \"test\"}} lists "
        f"of trace indices in [0, 36)\n")
    assert not list(run_dir.glob("eval_split_*"))


def test_predict_output_lengths_and_runs(pipeline_dir):
    out = pipeline_dir / "pred.jsonl"
    assert _run("predict", "--checkpoint", pipeline_dir / "run" / "checkpoint_0",
                "-i", pipeline_dir / "dataset.jsonl", "-o", out) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    dataset = read_dataset(pipeline_dir / "dataset.jsonl")
    assert len(records) == len(dataset)
    for rec, item in zip(records, dataset):
        assert len(rec["labels"]) == item.trace.length
        for start, length in rec["runs"]:
            assert all(rec["labels"][start:start + length])


def test_predict_eval_and_report_agree_on_split_0(pipeline_dir):
    """Pooled over split 0's test traces, predict's labels give the metrics
    eval and train stored: all three commands see the same class graphs."""
    run_dir = pipeline_dir / "run"
    dataset_path = pipeline_dir / "dataset.jsonl"
    out = pipeline_dir / "pred_split0.jsonl"
    assert _run("predict", "--checkpoint", run_dir / "checkpoint_0",
                "-i", dataset_path, "-o", out) == 0
    assert _run("eval", "--run", run_dir, "--dataset", dataset_path,
                "--split", 0) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    dataset = read_dataset(dataset_path)
    test_idx = json.loads((run_dir / "splits.json").read_text())[0]["test"]
    metrics = split_metrics(
        np.concatenate([records[i]["labels"] for i in test_idx]).astype(bool),
        np.concatenate([dataset[i].labels for i in test_idx]).astype(bool))
    payload = json.loads((run_dir / "eval_split_0.json").read_text())
    stored = EvalReport.from_json((run_dir / "report.json").read_text()).per_split[0]
    assert metrics == stored
    assert {"anomalous": vars(metrics.anomalous),
            "non_anomalous": vars(metrics.non_anomalous),
            "zero_division": metrics.zero_division} == \
        {k: payload[k] for k in ("anomalous", "non_anomalous", "zero_division")}


def test_predict_accepts_trace_csv(pipeline_dir):
    out = pipeline_dir / "pred2.jsonl"
    assert _run("predict", "--checkpoint", pipeline_dir / "run" / "checkpoint_0",
                "-i", pipeline_dir / "traces.csv", "-o", out) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 36


def test_report_rerenders(pipeline_dir, capsys):
    assert _run("report", "--run", pipeline_dir / "run") == 0
    out = capsys.readouterr().out
    assert "anomalous" in out and "trainable parameters" in out


def test_missing_input_fails_cleanly(tmp_path, capsys):
    code = _run("transform", "-i", tmp_path / "nope.jsonl", "-o", tmp_path / "g")
    assert code == 1
    assert "rssigat: error:" in capsys.readouterr().err


def test_train_prints_parameter_count(pipeline_dir, tmp_path, capsys):
    run_dir = tmp_path / "r2"
    assert _run("train", "--dataset", pipeline_dir / "dataset.jsonl",
                "--splits", 2, "--epochs", 1, "--seed", 2, "-o", run_dir) == 0
    out = capsys.readouterr().out
    assert "parameter count: 63201" in out


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_empty_dataset_is_usage_error(tmp_path, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    if command == "predict":
        save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    argv = {"train": ["train", "--dataset", empty, "-o", tmp_path / "run"],
            "eval": ["eval", "--run", tmp_path / "run", "--dataset", empty,
                     "--split", 0],
            "predict": ["predict", "--checkpoint", tmp_path / "ckpt",
                        "-i", empty, "-o", tmp_path / "pred.jsonl"]}[command]
    assert _run(*argv) == 2
    assert capsys.readouterr().err == "rssigat: error: input has no traces\n"
    assert not (tmp_path / "pred.jsonl").exists()


@pytest.mark.parametrize("flags, message", [
    (["--splits", 0], "n_splits must be >= 1"),
    (["--lr", "nan"], "learning_rate must be finite and > 0"),
    (["--threshold", "nan"], "threshold must be in [0, 1]"),
    (["--threshold", 7], "threshold must be in [0, 1]"),
    (["--workers", 0], "--workers must be >= 1"),
    (["--workers", -2], "--workers must be >= 1"),
], ids=["zero-splits", "nan-lr", "nan-threshold", "threshold-above-1",
        "zero-workers", "negative-workers"])
def test_bad_train_config_is_usage_error(tmp_path, capsys, flags, message):
    assert _run("synth", "--count", 4, "--length", 50, "-o",
                tmp_path / "traces.csv") == 0
    assert _run("inject", "-i", tmp_path / "traces.csv", "--clean", 4,
                "-o", tmp_path / "dataset.jsonl") == 0
    capsys.readouterr()
    assert _run("train", "--dataset", tmp_path / "dataset.jsonl", *flags,
                "-o", tmp_path / "run") == 2
    assert capsys.readouterr().err == f"rssigat: error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.5"])
def test_predict_bad_threshold_is_usage_error(tmp_path, capsys, threshold):
    assert _run("synth", "--count", 4, "--length", 50, "-o",
                tmp_path / "traces.csv") == 0
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    capsys.readouterr()
    assert _run("predict", "--checkpoint", tmp_path / "ckpt",
                "--threshold", threshold, "-i", tmp_path / "traces.csv",
                "-o", tmp_path / "pred.jsonl") == 2
    assert capsys.readouterr().err == \
        "rssigat: error: --threshold must be in [0, 1]\n"
    assert not (tmp_path / "pred.jsonl").exists()


@pytest.mark.parametrize("mutate, message", [
    (lambda rec: json.dumps({k: v for k, v in rec.items() if k != "descriptor"}),
     "record lacks key 'descriptor'"),
    (lambda rec: "not json",
     "Expecting value: line 1 column 1 (char 0)"),
    (lambda rec: json.dumps({**rec, "labels": [1] + rec["labels"][1:]}),
     "labels disagree with descriptor"),
], ids=["missing-key", "not-json", "labels-disagree"])
@pytest.mark.parametrize("command", ["train", "eval", "transform", "predict"])
def test_bad_dataset_record_is_one_line_error(tmp_path, capsys, mutate,
                                              message, command):
    assert _run("synth", "--count", 4, "--length", 30, "--seed", 1,
                "-o", tmp_path / "t.csv") == 0
    assert _run("inject", "-i", tmp_path / "t.csv", "--clean", 4, "--seed", 1,
                "-o", tmp_path / "d.jsonl") == 0
    lines = (tmp_path / "d.jsonl").read_text().splitlines()
    lines[2] = mutate(json.loads(lines[2]))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    argv = {"train": ["train", "--dataset", bad, "-o", tmp_path / "run"],
            "eval": ["eval", "--run", tmp_path / "run", "--dataset", bad,
                     "--split", 0],
            "transform": ["transform", "-i", bad, "-o", tmp_path / "out.jsonl"],
            "predict": ["predict", "--checkpoint", tmp_path / "ckpt",
                        "-i", bad, "-o", tmp_path / "out.jsonl"]}[command]
    capsys.readouterr()
    assert _run(*argv) == 1
    assert capsys.readouterr().err == f"rssigat: error: {bad}:3: {message}\n"
    assert not (tmp_path / "out.jsonl").exists()
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "eval", "predict", "predict-csv",
                                     "inject", "transform"])
def test_mixed_length_input_is_usage_error(tmp_path, capsys, command):
    for name, length, seed in (("short", 50, 1), ("long", 60, 2)):
        assert _run("synth", "--count", 4, "--length", length, "--seed", seed,
                    "-o", tmp_path / f"{name}.csv") == 0
        assert _run("inject", "-i", tmp_path / f"{name}.csv", "--clean", 4,
                    "--seed", seed, "-o", tmp_path / f"{name}.jsonl") == 0
    short = read_dataset(tmp_path / "short.jsonl")
    long = read_dataset(tmp_path / "long.jsonl")
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text((tmp_path / "short.jsonl").read_text()
                     + (tmp_path / "long.jsonl").read_text())
    first, differs = short[0].trace.link_id, long[0].trace.link_id
    if command in ("predict-csv", "inject"):
        mixed = tmp_path / "mixed.csv"
        rows = ["link_id,idx,rssi"] + [
            f"{prefix}{item.trace.link_id},{k},{int(v)}"
            for prefix, items in (("a-", short), ("b-", long))
            for item in items for k, v in enumerate(item.trace.samples)]
        mixed.write_text("\n".join(rows) + "\n")
        first, differs = "a-" + first, "b-" + differs
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    argv = {"train": ["train", "--dataset", mixed, "-o", tmp_path / "run"],
            "eval": ["eval", "--run", tmp_path / "run", "--dataset", mixed,
                     "--split", 0],
            "predict": ["predict", "--checkpoint", tmp_path / "ckpt",
                        "-i", mixed, "-o", tmp_path / "out.jsonl"],
            "inject": ["inject", "-i", mixed, "--clean", 8,
                       "-o", tmp_path / "out.jsonl"],
            "transform": ["transform", "-i", mixed, "-o", tmp_path / "out.jsonl"]}
    argv["predict-csv"] = argv["predict"]
    capsys.readouterr()
    assert _run(*argv[command]) == 2
    assert capsys.readouterr().err == (
        f"rssigat: error: trace {differs} has 60 samples, the first trace "
        f"{first} has 50; all traces must have one length\n")
    assert not (tmp_path / "out.jsonl").exists()
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["inject", "transform", "train", "eval",
                                     "predict"])
def test_out_of_range_sample_is_usage_error(tmp_path, capsys, command):
    """A sample outside ``--rssi-min``/``--rssi-max`` stops every command that
    reads traces before it writes anything."""
    assert _run("synth", "--count", 6, "--length", 30, "--seed", 1,
                "-o", tmp_path / "t.csv") == 0
    rows = ["synth-00003,7,120" if row.startswith("synth-00003,7,") else row
            for row in (tmp_path / "t.csv").read_text().splitlines()]
    (tmp_path / "t.csv").write_text("\n".join(rows) + "\n")
    assert _run("inject", "-i", tmp_path / "t.csv", "--clean", 6, "--seed", 1,
                "-o", tmp_path / "d.jsonl") == 0
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    out = tmp_path / "out"
    data = tmp_path / ("t.csv" if command == "inject" else "d.jsonl")
    argv = {"inject": ["inject", "-i", data, "--clean", 6, "-o", out],
            "transform": ["transform", "-i", data, "-o", out],
            "train": ["train", "--dataset", data, "-o", out],
            "eval": ["eval", "--run", tmp_path / "run", "--dataset", data,
                     "--split", 0, "-o", out],
            "predict": ["predict", "--checkpoint", tmp_path / "ckpt",
                        "-i", data, "-o", out]}[command]
    capsys.readouterr()
    assert _run(*argv, "--rssi-max", 100) == 2
    assert capsys.readouterr().err == \
        "rssigat: error: trace synth-00003: sample outside [0.0, 100.0]\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ckpt.bin", "ckpt.json", "d.jsonl", "d.jsonl.manifest.json", "t.csv",
        "t.csv.manifest.json"]


@pytest.mark.parametrize("mutate, message", [
    (lambda r: {"link_id": r["link_id"], "n_nodes": len(r["node_map"]),
                "features": [r["values"][i] for i in r["node_map"]],
                "edges": []},
     "not a rssigat-graph-v2 record"),
    (lambda r: {k: v for k, v in r.items() if k != "edges"},
     "lacks key 'edges'"),
    (lambda r: {**r, "node_map": [len(r["values"])] + r["node_map"][1:]},
     "node map must cover rows"),
    (lambda r: {**r, "node_map": [0.5] + r["node_map"][1:]},
     "row indices must be integers"),
    (lambda r: {**r, "values": [float("nan")] + r["values"][1:]},
     "row features must be finite"),
    (lambda r: {**r, "edges": [[0, len(r["values"]), 0.5]] + r["edges"][1:]},
     "edge endpoint out of range"),
    (lambda r: {**r, "edges": [[*r["edges"][0][:2], 0.0]] + r["edges"][1:]},
     "edge weights must be positive"),
    (lambda r: {**r, "node_map": ["0"] + r["node_map"][1:]},
     "values, node_map and edges must be lists of numbers"),
    (lambda r: {**r, "values": [True] + r["values"][1:]},
     "values, node_map and edges must be lists of numbers"),
    (lambda r: {**r, "edges": [[*r["edges"][0][:2], True]] + r["edges"][1:]},
     "values, node_map and edges must be lists of numbers"),
    (lambda r: {**r, "link_id": 1}, "link_id must be a string or null"),
], ids=["v1-record", "missing-key", "node-map-range", "node-map-fraction",
        "nan-value", "edge-range", "zero-weight", "string-node-map",
        "boolean-value", "boolean-weight", "numeric-link-id"])
def test_bad_graph_records_rejected(tmp_path, mutate, message):
    traces, dataset = tmp_path / "t.csv", tmp_path / "d.jsonl"
    graphs, bad = tmp_path / "g.jsonl", tmp_path / "bad.jsonl"
    assert _run("synth", "--count", 4, "--length", 30, "--seed", 1, "-o", traces) == 0
    assert _run("inject", "-i", traces, "--clean", 4, "--seed", 1, "-o", dataset) == 0
    assert _run("transform", "-i", dataset, "-o", graphs) == 0
    lines = graphs.read_text().splitlines()
    lines[1] = json.dumps(mutate(json.loads(lines[1])))
    bad.write_text("\n".join(lines) + "\n")
    where = re.escape(f"{bad}:2: ")
    with pytest.raises(GraphError, match=f"^{where}.*{re.escape(message)}"):
        read_graphs(bad)


_DECODE_ERROR = ("'utf-8' codec can't decode byte 0xff in position 0: "
                 "invalid start byte")


@pytest.mark.parametrize("command, content, message", [
    ("ingest", b"# link a noise=0\n0,40\n\xff,41\n",
     "line 3: {path} is not UTF-8 text"),
    ("inject", b"link_id,idx,rssi\na,0,40\n\xff,1,41\n",
     "line 3: {path} is not UTF-8 text"),
    ("predict", b"\xfflink_id,idx,rssi\n", "line 1: {path} is not UTF-8 text"),
    ("transform", b"\xff\n", "{path}:1: " + _DECODE_ERROR),
    ("train", b"\xff\n", "{path}:1: " + _DECODE_ERROR),
    ("eval", b"\xff\n", "{path}:1: " + _DECODE_ERROR),
], ids=["ingest", "inject", "predict", "transform", "train", "eval"])
def test_non_utf8_input_is_one_line_error(tmp_path, capsys, command, content,
                                          message):
    """Bytes that are not UTF-8 in any input end in one line that names the
    file, and nothing is written."""
    bad = tmp_path / "bad.in"
    bad.write_bytes(content)
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    out = tmp_path / "out"
    argv = {"ingest": ["ingest", "-i", bad, "--length", 2, "-o", out],
            "inject": ["inject", "-i", bad, "--clean", 1, "-o", out],
            "predict": ["predict", "--checkpoint", tmp_path / "ckpt",
                        "-i", bad, "-o", out],
            "transform": ["transform", "-i", bad, "-o", out],
            "train": ["train", "--dataset", bad, "-o", out],
            "eval": ["eval", "--run", out, "--dataset", bad, "--split", 0]}
    capsys.readouterr()
    assert _run(*argv[command]) == 1
    assert capsys.readouterr().err == \
        f"rssigat: error: {message.format(path=bad)}\n"
    assert not out.exists()
