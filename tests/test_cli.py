import hashlib
import json
import re
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rssigat.cli import build_parser, main
from rssigat.gat_model import build_model, load_checkpoint, predict, save_checkpoint
from rssigat.inject import (AnomalyDescriptor, LabeledTrace, read_dataset,
                            write_dataset)
from rssigat.metrics import EvalReport, split_metrics
from rssigat.mtf_graph import (ROW_CAP, GraphError, read_graphs, transform,
                               write_graphs)
from rssigat.trace import RssiTrace, TraceSchema, read_traces_csv
from test_gat_model import other_model_message, save_unchained_checkpoint


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
    ("--rssi-max", 50),   # below the baseline range's top
    ("--rssi-min", 30),   # above its bottom
])
def test_synth_baseline_outside_bounds_is_usage_error(tmp_path, capsys, bounds):
    """Bounds that would clip the baseline range away write nothing."""
    out = tmp_path / "x.csv"
    code = _run("synth", "--count", 3, "--length", 30, *bounds, "-o", out)
    assert code == 2
    assert "must contain the baseline range [20, 60]" in capsys.readouterr().err
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


def test_ingest_repeated_link_id_writes_nothing(tmp_path, capsys):
    """The log whose headers read a, a, b: its traces.csv would give link a
    the indices 0..29 twice, which ``inject`` rejects."""
    raw = tmp_path / "raw.log"
    lines = []
    for link in "aab":
        lines += [f"# link {link} noise=0"] + [f"{i},40" for i in range(30)]
    raw.write_text("\n".join(lines) + "\n")
    out = tmp_path / "traces.csv"
    assert _run("ingest", "-i", raw, "--length", 30, "-o", out) == 1
    assert "line 32: link id 'a' repeats an earlier header" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [raw]


def test_inject_counts_match_flags(tmp_path, capsys):
    traces = tmp_path / "t.csv"
    _run("synth", "--count", 20, "--length", 50, "--seed", 1, "-o", traces)
    out = tmp_path / "d.jsonl"
    assert _run("inject", "-i", traces, "--each", 1, "--clean", 0,
                "--seed", 0, "-o", out) == 0
    items = read_dataset(out)
    assert sorted(item.kind.value for item in items) == [
        "InstaD", "SlowD", "SuddenD", "SuddenR"]
    assert "4 total, 4 anomalous" in capsys.readouterr().out


def test_inject_writes_no_labels(tmp_path):
    """Each dataset record holds its trace and descriptor; the labels follow
    from the descriptor and are not stored."""
    traces, out = tmp_path / "t.csv", tmp_path / "d.jsonl"
    assert _run("synth", "--count", 10, "--length", 50, "-o", traces) == 0
    assert _run("inject", "-i", traces, "--each", 2, "--clean", 2,
                "-o", out) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 10
    assert all(set(rec) == {"link_id", "kind", "descriptor", "samples"}
               for rec in records)


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


_COUNTS_MESSAGE = "--each and --clean must be >= 0"


@pytest.mark.parametrize("argv, message", [
    (["synth", "--count", 3, "--length", 1], "expected_length must be >= 2"),
    (["ingest", "-i", "{raw}", "--length", 1], "expected_length must be >= 2"),
    (["ingest", "-i", "{raw}", "--length", 30],
     "{raw}: none of its 1 links has --length 30 samples without a gap"),
    (["synth", "--count", 3, "--rssi-min", 10, "--rssi-max", 5],
     "rssi_min must be below rssi_max"),
    (["synth", "--count", 3, "--rssi-max", "inf"],
     "rssi_min and rssi_max must be finite"),
    (["inject", "-i", "{reversed}", "--each", 1],
     "rssi_min must be below rssi_max"),
    (["transform", "-i", "{nan}"], "rssi_min and rssi_max must be finite"),
    (["inject", "-i", "{text}", "--each", 1],
     "{text}.manifest.json: rssi_min and rssi_max must be numbers"),
    (["inject", "-i", "{traces}", "--each", -1, "--clean", 2], _COUNTS_MESSAGE),
    # checked before the input is read
    (["inject", "-i", "{missing}", "--each", -3, "--clean", 1],
     _COUNTS_MESSAGE),
], ids=["synth-length", "ingest-length", "ingest-no-link",
        "synth-bounds", "synth-infinite", "inject-bounds", "transform-nan",
        "inject-text-bounds", "inject-each", "inject-suddend-missing-input"])
def test_bad_flag_is_usage_error(tmp_path, capsys, argv, message):
    """A flag value the schema or the composition rejects, bounds recorded in
    the input's manifest that it rejects, or an ``--length`` no ingested link
    has, exits 2 with one line and writes nothing."""
    paths = {"{traces}": tmp_path / "traces.csv", "{raw}": tmp_path / "raw.log",
             "{missing}": tmp_path / "missing.csv"}
    assert _run("synth", "--count", 4, "--length", 30,
                "-o", paths["{traces}"]) == 0
    assert _run("inject", "-i", paths["{traces}"], "--clean", 4,
                "-o", tmp_path / "nan") == 0
    paths["{raw}"].write_text("# link a noise=0\n0,40\n1,41\n")
    # current manifests (they list the file's sha256) recording bad bounds,
    # for the dataset "nan" and for copies of the traces
    for name, bounds in [("reversed", [10.0, 5.0]), ("nan", [float("nan"), 128.0]),
                         ("text", ["10", 100.0])]:
        paths["{%s}" % name] = path = tmp_path / name
        if not path.exists():
            path.write_bytes(paths["{traces}"].read_bytes())
        manifest = json.loads((tmp_path / "traces.csv.manifest.json").read_text())
        manifest["config"].update(zip(["rssi_min", "rssi_max"], bounds))
        manifest["outputs"] = {str(path): _digest(path)}
        (tmp_path / f"{name}.manifest.json").write_text(json.dumps(manifest))
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert _run(*[paths.get(a, a) for a in argv], "-o", tmp_path / "out") == 2
    for key, path in paths.items():
        message = message.replace(key, str(path))
    assert capsys.readouterr().err == f"rssigat: error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_inject_drops_land_on_rssi_min(tmp_path):
    """Traces synthesized under ``--rssi-min`` carry it to ``inject``: the
    drops sit at that floor, the dataset's manifest records it, and
    ``transform`` accepts the dataset."""
    traces, dataset = tmp_path / "t.csv", tmp_path / "d.jsonl"
    assert _run("synth", "--count", 10, "--length", 60, "--rssi-min", 10,
                "-o", traces) == 0
    assert _run("inject", "-i", traces, "--each", 1, "--clean", 6,
                "-o", dataset) == 0
    config = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())["config"]
    assert [config["rssi_min"], config["rssi_max"]] == [10.0, 128.0]
    assert _run("transform", "-i", dataset, "-o", tmp_path / "g.jsonl") == 0
    drops = [item for item in read_dataset(dataset)
             if item.kind.value in ("SuddenD", "SuddenR", "InstaD")]
    assert len(drops) == 3
    for item in drops:
        assert np.all(item.trace.samples[item.labels == 1] == 10.0)


def test_bounds_travel_with_the_files(tmp_path):
    """``synth`` and ``ingest`` record their bounds; ``transform`` and
    ``predict`` then build the graphs and labels the library builds under
    those bounds, with no flag, from the dataset and from the trace CSV."""
    traces, data = tmp_path / "t.csv", tmp_path / "d.jsonl"
    assert _run("synth", "--count", 14, "--length", 30, "--rssi-min", 10,
                "--rssi-max", 100, "-o", traces) == 0
    raw = tmp_path / "raw.log"
    raw.write_text("# link a noise=0\n" + "".join(f"{i},40\n" for i in range(30)))
    assert _run("ingest", "-i", raw, "--length", 30, "--rssi-min", 10,
                "--rssi-max", 100, "-o", tmp_path / "raw.csv") == 0
    for name in ("t.csv", "raw.csv"):
        config = json.loads((tmp_path / f"{name}.manifest.json").read_text())["config"]
        assert [config["rssi_min"], config["rssi_max"]] == [10.0, 100.0]
    assert _run("inject", "-i", traces, "--each", 2, "--clean", 6, "-o", data) == 0
    assert _run("transform", "-i", data, "-o", tmp_path / "g.jsonl") == 0
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    items = read_dataset(data)
    schema = TraceSchema(30, 10.0, 100.0)
    write_graphs(tmp_path / "lib.jsonl", [transform(i.trace, schema) for i in items])
    write_graphs(tmp_path / "default.jsonl", [transform(i.trace) for i in items])
    graphs = (tmp_path / "g.jsonl").read_bytes()
    assert graphs == (tmp_path / "lib.jsonl").read_bytes()
    assert graphs != (tmp_path / "default.jsonl").read_bytes()
    model = load_checkpoint(tmp_path / "ckpt")
    for source, inputs in [(data, [item.trace for item in items]),
                           (traces, read_traces_csv(traces))]:
        assert _run("predict", "--checkpoint", tmp_path / "ckpt", "-i", source,
                    "-o", tmp_path / "p.jsonl") == 0
        labels = [json.loads(line)["labels"]
                  for line in (tmp_path / "p.jsonl").read_text().splitlines()]
        assert labels == [predict(transform(trace, schema), model).tolist()
                          for trace in inputs]


def test_stale_manifest_bounds_are_ignored(tmp_path):
    """A manifest that lists no output with the dataset's digest describes
    another file, so the bounds it records do not apply: the dataset is
    read under the defaults, which hold its drops at 0."""
    traces, data = tmp_path / "t.csv", tmp_path / "d.jsonl"
    plain, other = tmp_path / "u.csv", tmp_path / "e.jsonl"
    assert _run("synth", "--count", 14, "--length", 30, "--rssi-min", 10,
                "-o", traces) == 0
    assert _run("synth", "--count", 14, "--length", 30, "-o", plain) == 0
    assert _run("inject", "-i", traces, "--each", 2, "--clean", 6, "-o", data) == 0
    assert _run("inject", "-i", plain, "--each", 2, "--clean", 6,
                "-o", other) == 0
    data.write_bytes(other.read_bytes())
    assert _run("transform", "-i", data, "-o", tmp_path / "g.jsonl") == 0


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


def test_train_manifest_records_the_config(pipeline_dir):
    """The run's settings, recorded once: the three ``TrainConfig`` fields
    as ``train`` was given them, and nothing else."""
    manifest = json.loads((pipeline_dir / "run" / "manifest.json").read_text())
    assert manifest["config"] == {"n_splits": 2, "epochs": 2, "seed": 1}


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
    """A run whose report.json still holds a copy of the run config, with
    the old keys ``learning_rate``, ``optimizer``, ``test_fraction`` and
    ``threshold``, evaluates to the same payload as the current run, and
    ``report`` renders it to the same text."""
    run_dir, old_dir = pipeline_dir / "run", pipeline_dir / "old_run"
    old_dir.mkdir()
    for name in ("splits.json", "checkpoint_0.json", "checkpoint_0.bin"):
        (old_dir / name).write_bytes((run_dir / name).read_bytes())
    report = json.loads((run_dir / "report.json").read_text())
    report["config"] = {"n_splits": 2, "test_fraction": 0.2, "epochs": 2,
                        "learning_rate": 3e-3, "optimizer": "adam", "seed": 1,
                        "threshold": 0.5}
    (old_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    dataset = pipeline_dir / "dataset.jsonl"
    assert _run("eval", "--run", run_dir, "--dataset", dataset, "--split", 0,
                "-o", pipeline_dir / "new.json") == 0
    assert _run("eval", "--run", old_dir, "--dataset", dataset, "--split", 0,
                "-o", pipeline_dir / "old.json") == 0
    assert (pipeline_dir / "old.json").read_bytes() == \
        (pipeline_dir / "new.json").read_bytes()
    assert _run("report", "--run", old_dir) == 0
    assert (old_dir / "report.txt").read_bytes() == \
        (run_dir / "report.txt").read_bytes()


def test_eval_reads_no_report_json(pipeline_dir):
    """``eval`` scores at ``predict``'s cut-off and reads only the dataset,
    ``splits.json`` and the checkpoint: without report.json it writes the
    split's stored metrics, and its manifest digests those four files."""
    run_dir, dataset = pipeline_dir / "run", pipeline_dir / "dataset.jsonl"
    report = run_dir / "report.json"
    stored = EvalReport.from_json(report.read_text()).per_split[1]
    report.unlink()
    out = pipeline_dir / "eval1.json"
    assert _run("eval", "--run", run_dir, "--dataset", dataset, "--split", 1,
                "-o", out) == 0
    payload = json.loads(out.read_text())
    assert payload == {"split": 1, "anomalous": vars(stored.anomalous),
                       "non_anomalous": vars(stored.non_anomalous),
                       "zero_division": stored.zero_division}
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    inputs = [dataset, run_dir / "splits.json", run_dir / "checkpoint_1.json",
              run_dir / "checkpoint_1.bin"]
    assert manifest["inputs"] == {str(p): _digest(p) for p in inputs}


def test_predict_manifest_digests_the_checkpoint(pipeline_dir):
    checkpoint, dataset = pipeline_dir / "run" / "checkpoint_0", \
        pipeline_dir / "dataset.jsonl"
    out = pipeline_dir / "pred.jsonl"
    assert _run("predict", "--checkpoint", checkpoint, "-i", dataset,
                "-o", out) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    inputs = [dataset, checkpoint.with_suffix(".json"),
              checkpoint.with_suffix(".bin")]
    assert manifest["inputs"] == {str(p): _digest(p) for p in inputs}
    assert manifest["config"] == {"checkpoint": str(checkpoint)}


@pytest.mark.parametrize("flags", [["--config", "train.cfg"],
                                   ["--optimizer", "sgd"],
                                   ["--threshold", "0.5"],
                                   ["--lr", "1e-3"]],
                         ids=["config", "optimizer", "threshold", "lr"])
def test_train_rejects_removed_flags(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        _run("train", "--dataset", tmp_path / "dataset.jsonl", *flags,
             "-o", tmp_path / "run")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_predict_rejects_removed_threshold(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run("predict", "--checkpoint", tmp_path / "ckpt", "--threshold",
             "0.5", "-i", tmp_path / "traces.csv", "-o", tmp_path / "pred.jsonl")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "pred.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--count", 3, "--baseline-min", 20],
    ["synth", "--count", 3, "--baseline-max", 60],
    ["synth", "--count", 3, "--jitter", 2],
    ["inject", "-i", "t.csv", "--suddend", 1],
    ["inject", "-i", "t.csv", "--suddenr", 1],
    ["inject", "-i", "t.csv", "--instad", 1],
    ["inject", "-i", "t.csv", "--slowd", 1],
], ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}")
def test_synth_and_inject_reject_removed_flags(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "-o", tmp_path / "out")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["inject", "-i", "t.csv", "--each", 1],
    ["transform", "-i", "d.jsonl"],
    ["train", "--dataset", "d.jsonl"],
    ["eval", "--run", "run", "--dataset", "d.jsonl", "--split", 0],
    ["predict", "--checkpoint", "ckpt", "-i", "d.jsonl"],
], ids=lambda argv: argv[0])
def test_commands_reject_removed_bounds_flags(tmp_path, capsys, argv):
    """Only ``synth`` and ``ingest`` take bounds; the other commands read
    them from their input's manifest."""
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "--rssi-min", 10, "-o", tmp_path / "out")
    assert exc.value.code == 2
    assert "unrecognized arguments: --rssi-min 10" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_cli_lines_parse():
    """Every ``rssigat`` line of the README's CLI block parses."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    lines = [line.split() for line in block.splitlines()
             if line.startswith("rssigat ")]
    assert len(lines) == 8
    for argv in lines:
        build_parser().parse_args(argv[1:])


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


@pytest.mark.parametrize("text, message", [
    (lambda report: "not JSON", "Expecting value: line 1 column 1 (char 0)"),
    (lambda report: json.dumps({k: v for k, v in report.items()
                                if k != "averages"}),
     "lacks key 'averages'"),
    (lambda report: json.dumps({**report, "per_split": [{}]}),
     "lacks key 'anomalous'"),
], ids=["not-json-report", "missing-averages-report",
        "empty-split-record-report"])
def test_bad_report_file_is_named(pipeline_dir, capsys, text, message):
    run_dir = pipeline_dir / "run"
    path = run_dir / "report.json"
    path.write_text(text(json.loads(path.read_text())))
    files = sorted(run_dir.iterdir())
    capsys.readouterr()
    assert _run("report", "--run", run_dir) == 1
    assert capsys.readouterr().err == f"rssigat: error: {path}: {message}\n"
    assert sorted(run_dir.iterdir()) == files


@pytest.mark.parametrize("edit", [
    lambda splits: [{"train": splits[0]["train"]}],
    lambda splits: [{"train": [], "test": [36]}],
    lambda splits: [{"train": [], "test": [-1]}],
    lambda splits: [{"train": [True], "test": [0]}],
    lambda splits: [{"train": [], "test": [0.0]}],
    lambda splits: {},
    lambda splits: [{"train": splits[0]["train"], "test": []}],
    lambda splits: [{"train": splits[0]["train"],
                     "test": splits[0]["test"] + splits[0]["test"][:1]}],
], ids=["missing-test", "past-the-end", "negative", "boolean", "float",
        "top-level-object", "empty-test", "repeated-index"])
def test_eval_rejects_bad_splits_file(pipeline_dir, capsys, edit):
    run_dir = pipeline_dir / "run"
    path = run_dir / "splits.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert _run("eval", "--run", run_dir, "--dataset",
                pipeline_dir / "dataset.jsonl", "--split", 0) == 1
    assert capsys.readouterr().err == (
        f"rssigat: error: {path}: not a list of {{\"train\", \"test\"}} "
        f"non-empty lists of distinct trace indices in [0, 36)\n")
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
    (["--workers", 0], "--workers must be >= 1"),
    (["--workers", -2], "--workers must be >= 1"),
], ids=["zero-splits", "zero-workers", "negative-workers"])
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


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_whose_layers_do_not_chain_is_one_line_error(
        pipeline_dir, capsys, command):
    run_dir, out = pipeline_dir / "run", pipeline_dir / "out.json"
    save_unchained_checkpoint(run_dir / "checkpoint_0", layer=2, in_dim=5)
    argv = {"eval": ["eval", "--run", run_dir, "--dataset",
                     pipeline_dir / "dataset.jsonl", "--split", 0, "-o", out],
            "predict": ["predict", "--checkpoint", run_dir / "checkpoint_0",
                        "-i", pipeline_dir / "dataset.jsonl", "-o", out]}[command]
    capsys.readouterr()
    assert _run(*argv) == 1
    assert capsys.readouterr().err == \
        f"rssigat: error: {other_model_message(run_dir / 'checkpoint_0')}\n"
    assert not out.exists()
    assert not (pipeline_dir / "out.json.manifest.json").exists()


@pytest.mark.parametrize("mutate, message", [
    (lambda rec: json.dumps({k: v for k, v in rec.items() if k != "descriptor"}),
     "record lacks key 'descriptor'"),
    (lambda rec: "not json",
     "Expecting value: line 1 column 1 (char 0)"),
    (lambda rec: json.dumps(
        {**rec, "labels": [1] + [0] * (len(rec["samples"]) - 1)}),
     "labels disagree with descriptor"),
    (lambda rec: json.dumps({**rec, "link_id": 5}),
     "malformed record: link_id must be a string"),
    (lambda rec: json.dumps({**rec, "samples": ["57", *rec["samples"][1:]]}),
     "malformed record: samples must be a list of numbers"),
], ids=["missing-key", "not-json", "labels-disagree", "link-id-not-string",
        "sample-not-number"])
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
    """A sample outside the bounds stops every command that reads traces
    before it writes anything. The edit leaves each file's manifest stale,
    so the defaults [0, 128] apply."""
    assert _run("synth", "--count", 6, "--length", 30, "--seed", 1,
                "-o", tmp_path / "t.csv") == 0
    assert _run("inject", "-i", tmp_path / "t.csv", "--clean", 6, "--seed", 1,
                "-o", tmp_path / "d.jsonl") == 0
    rows = ["synth-00003,7,130" if row.startswith("synth-00003,7,") else row
            for row in (tmp_path / "t.csv").read_text().splitlines()]
    (tmp_path / "t.csv").write_text("\n".join(rows) + "\n")
    records = [json.loads(line) for line in
               (tmp_path / "d.jsonl").read_text().splitlines()]
    for record in records:
        if record["link_id"] == "synth-00003":
            record["samples"][7] = 130.0
    (tmp_path / "d.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records))
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
    assert _run(*argv) == 2
    assert capsys.readouterr().err == \
        "rssigat: error: trace synth-00003: sample outside [0.0, 128.0]\n"
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
     "node map entries must lie in [0, "),
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


@pytest.mark.parametrize("command, target", [
    ("ingest", "same"), ("inject", "same"), ("transform", "same"),
    ("transform", "symlink"), ("transform", "dataset.jsonl.manifest.json"),
    ("predict", "same"), ("predict", "ckpt.json"), ("predict", "ckpt.bin"),
    ("train", "same"), ("eval", "same"), ("eval", "run/splits.json"),
    ("eval", "run/checkpoint_0.json"), ("eval", "run/checkpoint_0.bin"),
], ids=lambda value: value.replace("dataset.jsonl.", "").replace("run/", ""))
def test_output_that_is_the_input_is_usage_error(tmp_path, capsys, command,
                                                  target):
    """An ``-o`` naming a file the command reads (the input, its manifest, a
    checkpoint or a file of the run), or a link to the input, ends in one
    line before anything is written: every file keeps its bytes, and no
    file appears."""
    raw = tmp_path / "raw.log"
    raw.write_text("# link a noise=0\n" + "".join(
        f"{i},{40 + i % 3}\n" for i in range(30)))
    traces, dataset = tmp_path / "traces.csv", tmp_path / "dataset.jsonl"
    assert _run("synth", "--count", 12, "--length", 30, "-o", traces) == 0
    assert _run("inject", "-i", traces, "--each", 2, "--clean", 4,
                "-o", dataset) == 0
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    if command == "eval":
        assert _run("train", "--dataset", dataset, "--splits", 1, "--epochs", 1,
                    "-o", tmp_path / "run") == 0
    out = tmp_path / target
    if target == "same":
        out = {"ingest": raw, "inject": traces}.get(command, dataset)
    elif target == "symlink":
        out = tmp_path / "link.jsonl"
        out.symlink_to(dataset.name)
    argv = {"ingest": ["ingest", "-i", raw, "--length", 30, "-o", out],
            "inject": ["inject", "-i", traces, "--each", 1, "-o", out],
            "transform": ["transform", "-i", dataset, "-o", out],
            "predict": ["predict", "--checkpoint", tmp_path / "ckpt",
                        "-i", dataset, "-o", out],
            "train": ["train", "--dataset", dataset, "-o", out],
            "eval": ["eval", "--run", tmp_path / "run", "--dataset", dataset,
                     "--split", 0, "-o", out]}[command]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert _run(*argv) == 2
    assert capsys.readouterr().err == (
        f"rssigat: error: -o {out} is the input file; write to another "
        f"path\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_train_out_an_existing_file_fails_before_training(tmp_path, capsys,
                                                          monkeypatch):
    """``train`` makes its run directory before it trains, so an ``-o`` that
    is a file ends in one line with no training step, and the file keeps
    its bytes."""
    import rssigat.cli
    traces, dataset = tmp_path / "traces.csv", tmp_path / "dataset.jsonl"
    assert _run("synth", "--count", 8, "--length", 30, "-o", traces) == 0
    assert _run("inject", "-i", traces, "--each", 1, "--clean", 4,
                "-o", dataset) == 0
    calls = []
    monkeypatch.setattr(rssigat.cli, "run_cross_validation",
                        lambda *args, **kwargs: calls.append(args))
    before = traces.read_bytes()
    capsys.readouterr()
    assert _run("train", "--dataset", dataset, "-o", traces) == 1
    assert capsys.readouterr().err == \
        f"rssigat: error: [Errno 17] File exists: '{traces}'\n"
    assert calls == []
    assert traces.read_bytes() == before


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_looks_the_command_up_by_name(tmp_path, monkeypatch):
    """A ``cmd_*`` rebound after the parser was built is the one that runs
    (a tracer's wrapper, say), not the function the first call saw."""
    import rssigat.cli
    traces, dataset = tmp_path / "traces.csv", tmp_path / "dataset.jsonl"
    assert _run("synth", "--count", 8, "--length", 30, "-o", traces) == 0
    assert _run("inject", "-i", traces, "--each", 1, "--clean", 4,
                "-o", dataset) == 0
    calls = []
    monkeypatch.setattr(rssigat.cli, "cmd_transform",
                        lambda args: calls.append(args.input) or 7)
    assert _run("transform", "-i", dataset, "-o", tmp_path / "g.jsonl") == 7
    assert calls == [str(dataset)]
    assert not (tmp_path / "g.jsonl").exists()


def test_errors_leave_the_parser_as_built(tmp_path, monkeypatch, capsys):
    """A parse error and a usage error, then a valid call, in one process:
    the valid call gets the defaults of a fresh process and writes the same
    bytes as one."""
    import os
    import subprocess
    import sys
    import rssigat
    argv = ["synth", "--count", "3", "-o", "traces.csv"]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(rssigat.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "rssigat.cli", *argv],
                          cwd=fresh, env=env, capture_output=True, text=True,
                          check=True)
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    with pytest.raises(SystemExit) as exc:
        _run("synth", "--count", 3, "--length", "x", "-o", "traces.csv")
    assert exc.value.code == 2
    assert _run("synth", "--count", 0, "--length", 30, "--seed", 9,
                "--rssi-min", 20, "-o", "traces.csv") == 2
    capsys.readouterr()
    assert _run(*argv) == 0
    assert capsys.readouterr().out == done.stdout
    assert sorted(p.name for p in here.iterdir()) == \
        sorted(p.name for p in fresh.iterdir())
    for path in fresh.iterdir():
        assert (here / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_train_failing_in_cross_validation_leaves_no_run_directory(
        tmp_path, capsys, existing):
    """A ``train`` that fails inside cross-validation removes the run
    directory it made, with the parents it made; a directory that was there
    before stays."""
    traces, dataset = tmp_path / "traces.csv", tmp_path / "dataset.jsonl"
    assert _run("synth", "--count", 8, "--length", 30, "-o", traces) == 0
    assert _run("inject", "-i", traces, "--each", 1, "--clean", 4,
                "-o", dataset) == 0
    out = tmp_path / "runs" / "a" / "run"
    if existing:
        out.mkdir(parents=True)
    capsys.readouterr()
    assert _run("train", "--dataset", dataset, "--splits", 1, "--epochs", 1,
                "-o", out) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"rssigat: error: stratum '\w+' has fewer than 2 "
                        r"traces\n", err)
    assert out.is_dir() == existing
    assert (tmp_path / "runs").exists() == existing
    if existing:
        assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """The inputs of every command: a raw log, traces, a dataset and a run
    trained on it."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "raw.log").write_text("".join(
        f"# link r{k} noise=0\n" + "".join(f"{i},{40 + (i * k) % 7}\n"
                                          for i in range(30))
        for k in range(3)))
    assert _run("synth", "--count", 12, "--length", 30, "-o",
                root / "traces.csv") == 0
    assert _run("inject", "-i", root / "traces.csv", "--each", 2, "--clean", 4,
                "-o", root / "dataset.jsonl") == 0
    assert _run("train", "--dataset", root / "dataset.jsonl", "--splits", 1,
                "--epochs", 1, "-o", root / "run") == 0
    return root


def _fail_write(monkeypatch, nth=1):
    """Make the ``nth`` output a command opens raise halfway through its
    first write, as a full disk would."""
    import rssigat.cli
    import rssigat.gat_model
    import rssigat.trace
    real = rssigat.trace.open_output
    opened = []

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    @contextmanager
    def failing_output(path, binary=False):
        with real(path, binary) as fh:
            opened.append(path)
            yield HalfWriter(fh) if len(opened) == nth else fh

    # datasets and graphs are written by trace.write_json_lines
    for module in (rssigat.cli, rssigat.gat_model, rssigat.trace):
        monkeypatch.setattr(module, "open_output", failing_output)
    return opened


@pytest.mark.parametrize("command", ["synth", "ingest", "inject", "transform",
                                     "train", "eval", "predict", "report"])
def test_outputs_are_whole_after_a_rerun_or_a_failed_write(
        command_inputs, tmp_path, capsys, monkeypatch, command):
    """Every output is written whole or not at all. A write that fails
    halfway through leaves no file where there was none and keeps an earlier
    output and its manifest byte-identical; a second run into the same paths
    writes the same bytes. No temporary file is left: the files on disk are
    exactly those of the first run."""
    root = tmp_path / "w"
    shutil.copytree(command_inputs, root)
    dataset, run = root / "dataset.jsonl", root / "run"
    argv = {"synth": ["--count", 12, "--length", 30, "-o", root / "out.csv"],
            "ingest": ["-i", root / "raw.log", "--length", 30,
                       "-o", root / "out.csv"],
            "inject": ["-i", root / "traces.csv", "--each", 2, "--clean", 4,
                       "-o", root / "out.jsonl"],
            "transform": ["-i", dataset, "-o", root / "out.jsonl"],
            "train": ["--dataset", dataset, "--splits", 1, "--epochs", 1,
                      "-o", root / "out"],
            "eval": ["--run", run, "--dataset", dataset, "--split", 0,
                     "-o", root / "out.json"],
            "predict": ["--checkpoint", run / "checkpoint_0", "-i", dataset,
                        "-o", root / "out.jsonl"],
            "report": ["--run", run]}[command]

    def files():
        return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    def run_failing():
        with monkeypatch.context() as patch:
            opened = _fail_write(patch)
            capsys.readouterr()
            assert _run(command, *argv) == 1
        assert capsys.readouterr().err == \
            "rssigat: error: [Errno 28] No space left on device\n"
        assert len(opened) == 1

    inputs = files()
    run_failing()
    assert files() == inputs
    assert _run(command, *argv) == 0
    first = files()
    assert first.keys() > inputs.keys()
    assert _run(command, *argv) == 0
    assert files() == first
    run_failing()
    assert files() == first


@pytest.mark.parametrize("nth", [1, 4])
def test_train_failing_to_write_leaves_no_new_run_directory(
        command_inputs, tmp_path, capsys, monkeypatch, nth):
    """A ``train`` whose ``nth`` write fails removes the files it wrote and
    the run directory it made, with the parents it made."""
    out = tmp_path / "runs" / "a" / "run"
    with monkeypatch.context() as patch:
        opened = _fail_write(patch, nth)
        capsys.readouterr()
        assert _run("train", "--dataset", command_inputs / "dataset.jsonl",
                    "--splits", 1, "--epochs", 1, "-o", out) == 1
    assert capsys.readouterr().err == \
        "rssigat: error: [Errno 28] No space left on device\n"
    assert len(opened) == nth
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["transform", "predict"])
def test_input_with_the_temporary_name_is_kept(tmp_path, capsys, command):
    """An input named ``<out>.partial``, the temporary name of ``-o``, is
    never written over: the command exits 1, naming it, and every file keeps
    its bytes."""
    traces, dataset = tmp_path / "traces.csv", tmp_path / "out.jsonl.partial"
    assert _run("synth", "--count", 12, "--length", 30, "-o", traces) == 0
    assert _run("inject", "-i", traces, "--each", 2, "--clean", 4,
                "-o", dataset) == 0
    save_checkpoint(tmp_path / "ckpt", build_model(seed=0))
    argv = {"transform": ["transform"],
            "predict": ["predict", "--checkpoint", tmp_path / "ckpt"]}[command]
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert _run(*argv, "-i", dataset, "-o", tmp_path / "out.jsonl") == 1
    assert capsys.readouterr().err == \
        f"rssigat: error: [Errno 17] File exists: '{dataset}'\n"
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_output_symlink_is_replaced_and_its_target_kept(tmp_path):
    """An ``-o`` that is a symlink is replaced by the output; the file it
    pointed to keeps its bytes."""
    target, out = tmp_path / "target.csv", tmp_path / "traces.csv"
    target.write_text("kept\n")
    out.symlink_to(target.name)
    assert _run("synth", "--count", 3, "--length", 30, "-o", out) == 0
    assert not out.is_symlink()
    assert len(read_traces_csv(out)) == 3
    assert target.read_text() == "kept\n"


def test_read_only_output_is_replaced(tmp_path):
    """An existing output is replaced whatever its mode; the new file gets
    the permissions of a newly created one."""
    out, fresh = tmp_path / "traces.csv", tmp_path / "fresh"
    out.write_text("old\n")
    out.chmod(0o444)
    with open(fresh, "w"):
        pass
    assert _run("synth", "--count", 3, "--length", 30, "-o", out) == 0
    assert len(read_traces_csv(out)) == 3
    assert out.stat().st_mode == fresh.stat().st_mode


@pytest.fixture(scope="module")
def wide_inputs(tmp_path_factory):
    """A run trained on small traces, and a dataset of as many traces, each
    with ``ROW_CAP + 1`` distinct values."""
    root = tmp_path_factory.mktemp("wide")
    traces, dataset = root / "traces.csv", root / "dataset.jsonl"
    assert _run("synth", "--count", 12, "--length", 30, "-o", traces) == 0
    assert _run("inject", "-i", traces, "--each", 2, "--clean", 4,
                "-o", dataset) == 0
    assert _run("train", "--dataset", dataset, "--splits", 1, "--epochs", 1,
                "-o", root / "run") == 0
    samples = np.linspace(0, 128, ROW_CAP + 1)
    write_dataset(root / "wide.jsonl",
                  [LabeledTrace(RssiTrace(f"wide-{k:02d}", samples),
                                AnomalyDescriptor("None")) for k in range(12)])
    return root


@pytest.mark.parametrize("command", ["transform", "train", "eval", "predict"])
def test_trace_over_row_cap_is_one_line_error(wide_inputs, tmp_path, capsys,
                                              command):
    """A trace with more distinct values than ``ROW_CAP`` ends each command
    that builds graphs in one error line naming it, and leaves no output."""
    wide, run = wide_inputs / "wide.jsonl", wide_inputs / "run"
    argv = {"transform": ["-i", wide],
            "train": ["--dataset", wide, "--splits", 1, "--epochs", 1],
            "eval": ["--run", run, "--dataset", wide, "--split", 0],
            "predict": ["--checkpoint", run / "checkpoint_0", "-i", wide],
            }[command]
    capsys.readouterr()
    assert _run(command, *argv, "-o", tmp_path / "out") == 1
    assert re.fullmatch(
        rf"rssigat: error: trace wide-\d\d has {ROW_CAP + 1} distinct values, "
        rf"more than the {ROW_CAP} a graph may have\n", capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []
