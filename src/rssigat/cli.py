"""Command-line pipeline: synth / ingest / inject / transform / train /
eval / predict / report.

Every command writes a manifest (command, config snapshot, seed, input and
output digests) next to its outputs, the manifest last and each file whole or
not at all (``trace.open_output``); re-running with the same manifest inputs
reproduces byte-identical files.

``main`` can be called many times in one process: the parser is built on
the first call and reused, and each call looks its command up by name
(``cmd_<command>``), so a rebound ``cmd_*`` is the one that runs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .gat_model import (checkpoint_files, load_checkpoint,
                        predict as predict_graph, save_checkpoint)
from .inject import (ANOMALOUS_KINDS, AnomalyKind, InjectionParams,
                     build_dataset, read_dataset, write_dataset)
from .metrics import (EvalReport, MetricsError, anomalous_runs, report_to_csv,
                      report_to_text)
from .mtf_graph import transform, write_graphs
from .seeds import derive_seed
from .train import (SplitError, TrainConfig, TrainingError, evaluate_split,
                    loss_curves_to_csv, prepare_dataset, run_cross_validation)
from .trace import (BASELINE_RANGE, DEFAULT_SCHEMA, JITTER, SchemaError,
                    TraceSchema, ingest_raw_log, open_output, open_utf8,
                    read_traces_csv, synthesize_clean, write_traces_csv)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_text(path: Path, text: str) -> None:
    with open_output(path) as fh:
        fh.write(text)


def _manifest_path(path) -> Path:
    return Path(path).with_name(Path(path).name + ".manifest.json")


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
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _add_schema_flags(parser):
    """``--length``, ``--rssi-min`` and ``--rssi-max`` of the commands that
    make traces. They record the bounds in their manifest, and every other
    command reads them back (``_recorded_bounds``)."""
    parser.add_argument("--length", type=int, default=300,
                        help="samples per trace")
    parser.add_argument("--rssi-min", type=float, default=DEFAULT_SCHEMA.rssi_min)
    parser.add_argument("--rssi-max", type=float, default=DEFAULT_SCHEMA.rssi_max)


def _schema(length: int, rssi_min: float, rssi_max: float) -> TraceSchema:
    """The schema of ``length`` samples within the bounds; an invalid one is a
    usage error."""
    try:
        return TraceSchema(length, rssi_min, rssi_max)
    except SchemaError as exc:
        raise UsageError(str(exc)) from None


def _recorded_bounds(path: Path) -> tuple[float, float]:
    """The ``rssi_min``/``rssi_max`` that ``path``'s manifest records, if it
    lists ``path``'s sha256 among its outputs; else, for a file without a
    manifest, without recorded bounds or with a stale manifest, the defaults.
    Recorded values that are not two numbers are a usage error."""
    default = (DEFAULT_SCHEMA.rssi_min, DEFAULT_SCHEMA.rssi_max)
    manifest = _manifest_path(path)
    try:
        record = json.loads(manifest.read_text(encoding="utf-8"))
        recorded = tuple(record["config"].get(key) for key in ("rssi_min", "rssi_max"))
        digests = set(record["outputs"].values())
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError):
        return default
    if recorded in (default, (None, None)) or _sha256(path) not in digests:
        return default
    if not all(type(value) in (int, float) for value in recorded):
        raise UsageError(f"{manifest}: rssi_min and rssi_max must be numbers")
    return tuple(map(float, recorded))


def _read_input(path, read):
    """The records ``read`` gets from ``path``, labeled traces or traces, and
    their schema: the length every trace shares and the bounds ``path``'s
    manifest records. Empty input, a trace of another length and a sample
    outside the bounds are usage errors that name the first trace at fault."""
    path = Path(path)
    records = read(path)
    traces = [getattr(record, "trace", record) for record in records]
    if not traces:
        raise UsageError("input has no traces")
    length = traces[0].length
    schema = _schema(length, *_recorded_bounds(path))
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
    return records, schema


def _output_path(out, *sources) -> Path:
    """``-o``; a usage error if it is a file the command reads, one of
    ``sources`` or its manifest (by ``samefile`` if both exist, else by
    resolved path), which writing would destroy."""
    out = Path(out)
    for source in [p for s in sources for p in (Path(s), _manifest_path(s))]:
        if (out.samefile(source) if out.exists() and source.exists()
                else out.resolve() == source.resolve()):
            raise UsageError(f"-o {out} is the input file; write to another path")
    return out


# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    schema = _schema(args.length, args.rssi_min, args.rssi_max)
    lo, hi = BASELINE_RANGE
    if not schema.rssi_min <= lo <= hi <= schema.rssi_max:
        raise UsageError(
            f"--rssi-min/--rssi-max [{schema.rssi_min}, {schema.rssi_max}] "
            f"must contain the baseline range [{lo}, {hi}]")
    rng = np.random.default_rng(derive_seed(args.seed, "synth"))
    traces = synthesize_clean(args.count, schema, rng)
    out = Path(args.out)
    write_traces_csv(out, traces)
    write_manifest(_manifest_path(out), "synth",
                   {"count": args.count, "length": args.length,
                    "baseline": [lo, hi], "jitter": JITTER,
                    "rssi_min": schema.rssi_min, "rssi_max": schema.rssi_max},
                   args.seed, [], [out])
    print(f"wrote {len(traces)} traces to {out}")
    return 0


def cmd_ingest(args) -> int:
    schema = _schema(args.length, args.rssi_min, args.rssi_max)
    source, out = Path(args.input), _output_path(args.out, args.input)
    with open_utf8(source) as fh:
        traces, n_links = ingest_raw_log(fh, schema)
    if not traces:
        raise UsageError(f"{source}: none of its {n_links} links has "
                         f"--length {args.length} samples without a gap")
    write_traces_csv(out, traces)
    write_manifest(_manifest_path(out), "ingest",
                   {"length": args.length, "rssi_min": schema.rssi_min,
                    "rssi_max": schema.rssi_max}, None, [source], [out])
    print(f"kept {len(traces)} complete links of {n_links}")
    return 0


def cmd_inject(args) -> int:
    counts = {kind: args.each for kind in ANOMALOUS_KINDS}
    counts[AnomalyKind.NONE] = args.clean
    if min(counts.values()) < 0:
        raise UsageError("--each and --clean must be >= 0")
    if not any(counts.values()):
        raise UsageError("the composition is empty: give --each or --clean "
                         "above 0")
    out = _output_path(args.out, args.input)
    traces, schema = _read_input(args.input, read_traces_csv)
    length = schema.expected_length
    params = InjectionParams.scaled_to_length(length)
    rng = np.random.default_rng(derive_seed(args.seed, "inject"))
    dataset = build_dataset(traces, counts, params, rng, schema)
    write_dataset(out, dataset)
    n_anomalous = sum(1 for item in dataset if item.kind is not AnomalyKind.NONE)
    write_manifest(_manifest_path(out), "inject",
                   {"composition": {k.value: v for k, v in counts.items()},
                    "trace_length": length, "rssi_min": schema.rssi_min,
                    "rssi_max": schema.rssi_max},
                   args.seed, [Path(args.input)], [out])
    print(f"{len(dataset)} total, {n_anomalous} anomalous traces -> {out}")
    return 0


def cmd_transform(args) -> int:
    out = _output_path(args.out, args.input)
    dataset, schema = _read_input(args.input, read_dataset)
    graphs = [transform(item.trace, schema) for item in dataset]
    write_graphs(out, graphs)
    write_manifest(_manifest_path(out), "transform",
                   {}, None, [Path(args.input)], [out])
    print(f"wrote {len(graphs)} graphs to {out}")
    return 0


def _write_reports(run_dir: Path, report: EvalReport) -> list[Path]:
    """``report.txt`` and ``report.csv`` of a run, rendered from ``report``."""
    paths = [run_dir / "report.txt", run_dir / "report.csv"]
    for path, render in zip(paths, (report_to_text, report_to_csv)):
        _write_text(path, render(report))
    return paths


def cmd_train(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    out_dir = _output_path(args.out, args.dataset)
    dataset, schema = _read_input(args.dataset, read_dataset)
    try:
        cfg = TrainConfig(n_splits=args.splits, epochs=args.epochs,
                          seed=args.seed)
    except (SplitError, TrainingError) as exc:
        raise UsageError(str(exc)) from None
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_cross_validation(dataset, cfg, schema, workers=args.workers)
        _write_run(out_dir, result, cfg, args.dataset)
    except BaseException:
        if made:  # the run directory is new: all in it is this call's
            for path in out_dir.iterdir():
                path.unlink()
            for path in made:  # deepest first, each now empty
                path.rmdir()
        raise
    avg = result.report.averages
    print(f"parameter count: {result.report.parameter_count}")
    print(f"anomalous F1 {avg['anomalous'].f1:.4f}, "
          f"non-anomalous F1 {avg['non_anomalous'].f1:.4f} "
          f"over {cfg.n_splits} splits -> {out_dir}")
    return 0


def _write_run(out_dir: Path, result, cfg: TrainConfig, dataset) -> None:
    """A cross-validation run's files: checkpoints, splits, loss curves and
    reports, then the manifest that lists them."""
    outputs = []
    for k, model in enumerate(result.models):
        outputs.extend(save_checkpoint(out_dir / f"checkpoint_{k}", model))
    splits_path = out_dir / "splits.json"
    _write_text(splits_path, json.dumps(
        [{"train": tr.tolist(), "test": te.tolist()}
         for tr, te in result.splits]) + "\n")
    curves_path = out_dir / "loss_curves.csv"
    _write_text(curves_path, loss_curves_to_csv(result.loss_curves))
    report_json = out_dir / "report.json"
    _write_text(report_json, result.report.to_json())
    outputs.extend([splits_path, curves_path, report_json,
                    *_write_reports(out_dir, result.report)])
    write_manifest(out_dir / "manifest.json", "train", asdict(cfg),
                   cfg.seed, [Path(dataset)], outputs)


def _read_splits(path: Path, n_traces: int) -> list[dict]:
    """A run's split records: a list of ``{"train", "test"}`` non-empty lists
    of distinct trace indices in [0, n_traces). Anything else is a SplitError
    naming the file."""
    def is_indices(idx):
        return (isinstance(idx, list) and all(
            type(i) is int and 0 <= i < n_traces for i in idx)
            and 0 < len(set(idx)) == len(idx))
    try:
        splits = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError):
        splits = None
    if not (isinstance(splits, list) and all(
            isinstance(rec, dict) and rec.keys() == {"train", "test"}
            and all(map(is_indices, rec.values())) for rec in splits)):
        raise SplitError(f"{path}: not a list of {{\"train\", \"test\"}} non-empty "
                         f"lists of distinct trace indices in [0, {n_traces})")
    return splits


def _read_report(run_dir: Path) -> EvalReport:
    """A run's stored report; anything else is a MetricsError naming the
    file."""
    path = run_dir / "report.json"
    try:
        return EvalReport.from_json(path.read_text(encoding="utf-8"))
    except KeyError as exc:
        raise MetricsError(f"{path}: lacks key {exc}") from None
    except (ValueError, TypeError, AttributeError, RecursionError) as exc:
        raise MetricsError(f"{path}: {exc}") from None


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    checkpoint = run_dir / f"checkpoint_{args.split}"
    inputs = [Path(args.dataset), run_dir / "splits.json",
              *checkpoint_files(checkpoint)]
    out = _output_path(args.out or run_dir / f"eval_split_{args.split}.json",
                       *inputs)
    dataset, schema = _read_input(args.dataset, read_dataset)
    splits = _read_splits(run_dir / "splits.json", len(dataset))
    if not 0 <= args.split < len(splits):
        raise UsageError(f"--split must be in [0, {len(splits) - 1}]")
    model = load_checkpoint(checkpoint)
    items = [dataset[i] for i in splits[args.split]["test"]]
    metrics = evaluate_split(model, items, prepare_dataset(items, schema))
    payload = {
        "split": args.split,
        "anomalous": vars(metrics.anomalous),
        "non_anomalous": vars(metrics.non_anomalous),
        "zero_division": metrics.zero_division,
    }
    _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_manifest(_manifest_path(out), "eval",
                   {"split": args.split}, None, inputs, [out])
    print(json.dumps(payload, sort_keys=True))
    return 0


def _read_prediction_input(path: Path):
    with open_utf8(path) as fh:
        first = fh.readline().strip()
    if first == "link_id,idx,rssi":
        return read_traces_csv(path)
    return [item.trace for item in read_dataset(path)]


def cmd_predict(args) -> int:
    inputs = [Path(args.input), *checkpoint_files(args.checkpoint)]
    out = _output_path(args.out, *inputs)
    model = load_checkpoint(args.checkpoint)
    traces, schema = _read_input(args.input, _read_prediction_input)
    with open_output(out) as fh:
        for trace in traces:
            labels = predict_graph(transform(trace, schema), model)
            record = {
                "link_id": trace.link_id,
                "labels": labels.tolist(),
                "runs": [[start, length]
                         for start, length in anomalous_runs(labels)],
            }
            fh.write(json.dumps(record) + "\n")
    write_manifest(_manifest_path(out), "predict",
                   {"checkpoint": str(args.checkpoint)},
                   None, inputs, [out])
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


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssigat",
        description="Detect and localize link-layer anomalies in RSSI traces.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate clean traces")
    p.add_argument("--count", type=int, required=True)
    _add_schema_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("ingest", help="parse raw link logs, keep complete links")
    p.add_argument("-i", "--input", required=True)
    _add_schema_flags(p)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("inject", help="inject anomalies into clean traces")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--each", type=int, default=0,
                   help="traces of each anomaly kind")
    p.add_argument("--clean", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("transform", help="turn traces into transition-field graphs")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("train", help="cross-validated training")
    p.add_argument("--dataset", required=True)
    p.add_argument("--splits", type=int, default=TrainConfig.n_splits)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--workers", type=int, default=1,
                   help="processes to train splits on, at most one per split "
                        "and one per CPU")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("eval", help="re-evaluate one split from checkpoints")
    p.add_argument("--run", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", type=int, required=True)
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("predict", help="per-point labels and anomalous runs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("report", help="re-render report files from report.json")
    p.add_argument("--run", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"rssigat: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"rssigat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
