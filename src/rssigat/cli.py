"""Command-line pipeline: synth / ingest / inject / transform / train /
eval / predict / report.

Every command writes a manifest (command, config snapshot, seed, input and
output digests) next to its outputs; re-running with the same manifest inputs
reproduces byte-identical files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .gat_model import load_checkpoint, predict as predict_graph, save_checkpoint
from .inject import (ANOMALOUS_KINDS, AnomalyKind, InjectionParams,
                     build_dataset, read_dataset, write_dataset)
from .metrics import (EvalReport, MetricsError, anomalous_runs, report_to_csv,
                      report_to_text)
from .mtf_graph import transform, write_graphs
from .seeds import derive_seed
from .train import (SplitError, TrainConfig, TrainingError, evaluate_split,
                    loss_curves_to_csv, prepare_dataset, run_cross_validation)
from .trace import (SchemaError, SynthesisProfile, TraceSchema,
                    filter_complete, ingest_raw_log, open_utf8, read_traces_csv,
                    synthesize_clean, write_traces_csv)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: Path, command: str, config: dict, seed,
                   inputs: list, outputs: list) -> None:
    manifest = {
        "tool": "rssigat",
        "version": __version__,
        "command": command,
        "master_seed": seed,
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _add_schema_flags(parser, length=True):
    """``--rssi-min``/``--rssi-max``, and ``--length`` for the commands that
    make traces; the others take the length from their input."""
    if length:
        parser.add_argument("--length", type=int, default=300,
                            help="samples per trace")
    parser.add_argument("--rssi-min", type=float, default=0.0)
    parser.add_argument("--rssi-max", type=float, default=128.0)


def _schema_from_args(args) -> TraceSchema:
    return TraceSchema(expected_length=args.length,
                       rssi_min=args.rssi_min, rssi_max=args.rssi_max)


def _input_schema(args, traces) -> TraceSchema:
    """Schema of the input traces: the length they all share and the
    ``--rssi-min``/``--rssi-max`` bounds. Empty input, a trace of another
    length and a sample outside the bounds are usage errors that name the
    first trace at fault."""
    if not traces:
        raise UsageError("input has no traces")
    length = traces[0].length
    schema = TraceSchema(expected_length=length,
                         rssi_min=args.rssi_min, rssi_max=args.rssi_max)
    for trace in traces:
        if trace.length != length:
            raise UsageError(
                f"trace {trace.link_id} has {trace.length} samples, the first "
                f"trace {traces[0].link_id} has {length}; all traces must "
                f"have one length")
        try:
            trace.validate(schema)
        except SchemaError as exc:
            raise UsageError(str(exc)) from None
    return schema


def _read_labeled(args, path: str):
    """A dataset file and its schema (see ``_input_schema``)."""
    dataset = read_dataset(Path(path))
    return dataset, _input_schema(args, [item.trace for item in dataset])


# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    schema = _schema_from_args(args)
    lo, hi = args.baseline_min, args.baseline_max
    if not schema.rssi_min <= lo <= hi <= schema.rssi_max:
        raise UsageError(
            f"--baseline-min/--baseline-max [{lo}, {hi}] must be an ordered "
            f"range inside --rssi-min/--rssi-max "
            f"[{schema.rssi_min}, {schema.rssi_max}]")
    profile = SynthesisProfile(baseline_range=(lo, hi), jitter=args.jitter)
    rng = np.random.default_rng(derive_seed(args.seed, "synth"))
    traces = synthesize_clean(args.count, schema, rng, profile)
    out = Path(args.out)
    write_traces_csv(out, traces)
    write_manifest(out.with_name(out.name + ".manifest.json"), "synth",
                   {"count": args.count, "length": args.length,
                    "baseline": [lo, hi], "jitter": args.jitter},
                   args.seed, [], [out])
    print(f"wrote {len(traces)} traces to {out}")
    return 0


def cmd_ingest(args) -> int:
    schema = _schema_from_args(args)
    source = Path(args.input)
    with open_utf8(source) as fh:
        logs = ingest_raw_log(fh, schema)
    traces = filter_complete(logs, schema)
    out = Path(args.out)
    write_traces_csv(out, traces)
    write_manifest(out.with_name(out.name + ".manifest.json"), "ingest",
                   {"length": args.length}, None, [source], [out])
    print(f"kept {len(traces)} complete links of {len(logs)}")
    return 0


def cmd_inject(args) -> int:
    if args.each is not None:
        counts = {kind: args.each for kind in ANOMALOUS_KINDS}
    else:
        counts = {AnomalyKind.SUDDEN_D: args.suddend,
                  AnomalyKind.SUDDEN_R: args.suddenr,
                  AnomalyKind.INSTA_D: args.instad,
                  AnomalyKind.SLOW_D: args.slowd}
    counts[AnomalyKind.NONE] = args.clean
    if not any(counts.values()):
        raise UsageError("the composition is empty: give --each, --clean "
                         "or a per-kind count above 0")
    traces = read_traces_csv(Path(args.input))
    schema = _input_schema(args, traces)
    length = schema.expected_length
    params = InjectionParams.scaled_to_length(length)
    rng = np.random.default_rng(derive_seed(args.seed, "inject"))
    dataset = build_dataset(traces, counts, params, rng, schema)
    out = Path(args.out)
    write_dataset(out, dataset)
    n_anomalous = sum(1 for item in dataset if item.kind is not AnomalyKind.NONE)
    write_manifest(out.with_name(out.name + ".manifest.json"), "inject",
                   {"composition": {k.value: v for k, v in counts.items()},
                    "trace_length": length},
                   args.seed, [Path(args.input)], [out])
    print(f"{len(dataset)} total, {n_anomalous} anomalous traces -> {out}")
    return 0


def cmd_transform(args) -> int:
    dataset, schema = _read_labeled(args, args.input)
    graphs = [transform(item.trace, schema) for item in dataset]
    out = Path(args.out)
    write_graphs(out, graphs)
    write_manifest(out.with_name(out.name + ".manifest.json"), "transform",
                   {}, None, [Path(args.input)], [out])
    print(f"wrote {len(graphs)} graphs to {out}")
    return 0


def _write_reports(run_dir: Path, report: EvalReport) -> list[Path]:
    """``report.txt`` and ``report.csv`` of a run, rendered from ``report``."""
    paths = [run_dir / "report.txt", run_dir / "report.csv"]
    for path, render in zip(paths, (report_to_text, report_to_csv)):
        path.write_text(render(report), encoding="utf-8")
    return paths


def cmd_train(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    dataset, schema = _read_labeled(args, args.dataset)
    try:
        cfg = TrainConfig(n_splits=args.splits, epochs=args.epochs,
                          learning_rate=args.lr, seed=args.seed,
                          threshold=args.threshold)
    except (SplitError, TrainingError) as exc:
        raise UsageError(str(exc)) from None
    result = run_cross_validation(dataset, cfg, schema, workers=args.workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for k, model in enumerate(result.models):
        outputs.extend(save_checkpoint(out_dir / f"checkpoint_{k}", model))
    splits_path = out_dir / "splits.json"
    splits_path.write_text(json.dumps(
        [{"train": tr.tolist(), "test": te.tolist()}
         for tr, te in result.splits]) + "\n", encoding="utf-8")
    curves_path = out_dir / "loss_curves.csv"
    curves_path.write_text(loss_curves_to_csv(result.loss_curves),
                           encoding="utf-8")
    report_json = out_dir / "report.json"
    report_json.write_text(result.report.to_json(), encoding="utf-8")
    outputs.extend([splits_path, curves_path, report_json,
                    *_write_reports(out_dir, result.report)])
    write_manifest(out_dir / "manifest.json", "train", asdict(cfg),
                   cfg.seed, [Path(args.dataset)], outputs)
    avg = result.report.averages
    print(f"parameter count: {result.report.parameter_count}")
    print(f"anomalous F1 {avg['anomalous'].f1:.4f}, "
          f"non-anomalous F1 {avg['non_anomalous'].f1:.4f} "
          f"over {cfg.n_splits} splits -> {out_dir}")
    return 0


def _read_splits(path: Path, n_traces: int) -> list[dict]:
    """A run's split records: a list of ``{"train", "test"}`` lists of trace
    indices in [0, n_traces). Anything else is a SplitError naming the file."""
    def is_indices(idx):
        return isinstance(idx, list) and all(
            type(i) is int and 0 <= i < n_traces for i in idx)
    try:
        splits = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError):
        splits = None
    if not (isinstance(splits, list) and all(
            isinstance(rec, dict) and rec.keys() == {"train", "test"}
            and all(map(is_indices, rec.values())) for rec in splits)):
        raise SplitError(f"{path}: not a list of {{\"train\", \"test\"}} lists "
                         f"of trace indices in [0, {n_traces})")
    return splits


def _read_report(run_dir: Path) -> EvalReport:
    """A run's stored report, whose threshold must be in [0, 1]. Anything
    else is a MetricsError naming the file."""
    path = run_dir / "report.json"
    try:
        report = EvalReport.from_json(path.read_text(encoding="utf-8"))
        TrainConfig(threshold=report.config["threshold"])
    except KeyError as exc:
        raise MetricsError(f"{path}: lacks key {exc}") from None
    except (ValueError, TypeError, AttributeError, RecursionError,
            TrainingError) as exc:
        raise MetricsError(f"{path}: {exc}") from None
    return report


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    dataset, schema = _read_labeled(args, args.dataset)
    splits = _read_splits(run_dir / "splits.json", len(dataset))
    if not 0 <= args.split < len(splits):
        raise UsageError(f"--split must be in [0, {len(splits) - 1}]")
    model = load_checkpoint(run_dir / f"checkpoint_{args.split}")
    threshold = _read_report(run_dir).config["threshold"]
    items = [dataset[i] for i in splits[args.split]["test"]]
    metrics = evaluate_split(model, items, prepare_dataset(items, schema),
                             threshold)
    payload = {
        "split": args.split,
        "anomalous": vars(metrics.anomalous),
        "non_anomalous": vars(metrics.non_anomalous),
        "zero_division": metrics.zero_division,
    }
    out = Path(args.out) if args.out else run_dir / f"eval_split_{args.split}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    write_manifest(out.with_name(out.name + ".manifest.json"), "eval",
                   {"split": args.split}, None,
                   [Path(args.dataset), run_dir / "splits.json"], [out])
    print(json.dumps(payload, sort_keys=True))
    return 0


def _read_prediction_input(path: Path):
    with open_utf8(path) as fh:
        first = fh.readline().strip()
    if first == "link_id,idx,rssi":
        return read_traces_csv(path)
    return [item.trace for item in read_dataset(path)]


def cmd_predict(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise UsageError("--threshold must be in [0, 1]")
    model = load_checkpoint(Path(args.checkpoint))
    traces = _read_prediction_input(Path(args.input))
    schema = _input_schema(args, traces)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        for trace in traces:
            labels = predict_graph(transform(trace, schema), model,
                                   threshold=args.threshold)
            record = {
                "link_id": trace.link_id,
                "labels": labels.tolist(),
                "runs": [[start, length]
                         for start, length in anomalous_runs(labels)],
            }
            fh.write(json.dumps(record) + "\n")
    write_manifest(out.with_name(out.name + ".manifest.json"), "predict",
                   {"threshold": args.threshold, "checkpoint": str(args.checkpoint)},
                   None, [Path(args.input)], [out])
    print(f"predicted {len(traces)} traces -> {out}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    report = _read_report(run_dir)
    outputs = _write_reports(run_dir, report)
    write_manifest(run_dir / "report.manifest.json", "report", {}, None,
                   [run_dir / "report.json"], outputs)
    print(report_to_text(report), end="")
    return 0


# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssigat",
        description="Detect and localize link-layer anomalies in RSSI traces.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate clean traces")
    p.add_argument("--count", type=int, required=True)
    _add_schema_flags(p)
    p.add_argument("--baseline-min", type=int, default=20)
    p.add_argument("--baseline-max", type=int, default=60)
    p.add_argument("--jitter", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse raw link logs, keep complete links")
    p.add_argument("-i", "--input", required=True)
    _add_schema_flags(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("inject", help="inject anomalies into clean traces")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--suddend", type=int, default=0)
    p.add_argument("--suddenr", type=int, default=0)
    p.add_argument("--instad", type=int, default=0)
    p.add_argument("--slowd", type=int, default=0)
    p.add_argument("--each", type=int, default=None,
                   help="set every anomaly kind to this count")
    p.add_argument("--clean", type=int, default=0)
    _add_schema_flags(p, length=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("transform", help="turn traces into transition-field graphs")
    p.add_argument("-i", "--input", required=True)
    _add_schema_flags(p, length=False)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="cross-validated training")
    p.add_argument("--dataset", required=True)
    p.add_argument("--splits", type=int, default=TrainConfig.n_splits)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--threshold", type=float, default=TrainConfig.threshold)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    _add_schema_flags(p, length=False)
    p.add_argument("--workers", type=int, default=1,
                   help="processes to train splits on, at most one per split")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="re-evaluate one split from checkpoints")
    p.add_argument("--run", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", type=int, required=True)
    _add_schema_flags(p, length=False)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="per-point labels and anomalous runs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    _add_schema_flags(p, length=False)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="re-render report files from report.json")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"rssigat: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"rssigat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
