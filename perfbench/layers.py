"""Per-layer metrics from the spans of a traced run.

Times are means per call unless the name says otherwise; ``self_ms_per_op``
is a layer's self time divided by the operations (traces, or training steps)
the traced run attempted. A metric whose layer the workload does not reach
reads 0.
"""
from __future__ import annotations

import statistics

import numpy as np

from spans import LAYERS, Span, Tracer, layer_self_times, root_time, \
    self_times, tail_percentile

# tensor_core op names of a training step at the parent commit of this
# benchmark; an op added later still counts in ops_per_step.
OP_NAMES = ("matmul", "add", "sub", "mul", "scale", "reshape", "sum_all",
            "sum_last", "mean_axis", "relu", "leaky_relu", "sigmoid", "log",
            "gather_rows", "scatter_add_rows", "segment_softmax")

# name, unit, better
PER_LAYER = (
    ("tensor_core.ops_per_step", "count", "lower"),
    *((f"tensor_core.ops.{op}", "count", "lower") for op in OP_NAMES),
    ("tensor_core.bytes_per_step", "bytes", "lower"),
    ("tensor_core.backward_ms", "ms", "lower"),
    ("train.step_ms", "ms", "lower"),
    ("train.forward_ms", "ms", "lower"),
    ("train.loss_ms", "ms", "lower"),
    ("train.optimizer_ms", "ms", "lower"),
    ("train.evaluate_ms", "ms", "lower"),
    ("train.prepare_dataset_s", "s", "lower"),
    ("mtf_graph.transform_p50_ms", "ms", "lower"),
    ("mtf_graph.transform_tail_ms", "ms", "lower"),
    ("mtf_graph.node_edges_mean", "count", "lower"),
    ("mtf_graph.graphs_write_s", "s", "lower"),
    ("mtf_graph.graphs_read_s", "s", "lower"),
    ("mtf_graph.graphs_bytes_per_trace", "bytes", "lower"),
    ("gat_model.prepare_ms", "ms", "lower"),
    ("gat_model.forward_ms", "ms", "lower"),
    ("gat_model.rows_mean", "count", "lower"),
    ("gat_model.rows_max", "count", "lower"),
    ("gat_model.class_edges_mean", "count", "lower"),
    ("gat_model.collapse_fallbacks", "count", "lower"),
    ("cli.transform_s", "s", "lower"),
    ("cli.manifest_s", "s", "lower"),
    ("trace.synth_ms", "ms", "lower"),
    ("inject.build_dataset_ms", "ms", "lower"),
    ("inject.dataset_io_ms", "ms", "lower"),
    ("metrics.split_metrics_ms", "ms", "lower"),
    *((f"{layer}.self_ms_per_op", "ms", "lower") for layer in LAYERS),
    ("tracing.overhead_pct", "%", "lower"),
)


def observe_graphs(tracer: Tracer) -> None:
    """Count class-graph rows and edges, and fallbacks to the per-node
    graph: a prepared graph with more rows than the trace has distinct
    values."""

    def on_prepare(span, args, kwargs, result):
        graph = args[0] if args else kwargs["graph"]
        span.counts["rows"] = result.n_rows
        span.counts["class_edges"] = int(result.src.size)
        span.counts["fallback"] = int(
            result.n_rows > np.unique(graph.node_features).size)

    def on_transform(span, args, kwargs, result):
        span.counts["edges"] = result.n_edges

    tracer.observers["gat_model.prepare_graph"] = on_prepare
    tracer.observers["mtf_graph.transform"] = on_transform


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer(spans: list[Span], ops: int, tape: dict,
              bytes_per_trace: float, overhead_pct: float) -> dict[str, float]:
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    selfs = self_times(spans)

    def durations(*names: str) -> list[float]:
        return [spans[i].duration for n in names for i in by_name.get(n, ())]

    def counts(name: str, key: str) -> list[float]:
        return [spans[i].counts[key] for i in by_name.get(name, ())]

    ms = lambda *names: 1e3 * _mean(durations(*names))  # noqa: E731
    fits = by_name.get("train.fit", ())
    fit_steps = sum(spans[i].counts.get("steps", 0) for i in fits)
    fit_ids = set(fits)
    transforms = sorted(durations("mtf_graph.transform"))
    tail = tail_percentile(len(transforms))
    steps = tape.get("steps", 0)
    layer_self = layer_self_times(spans)

    out = {
        "tensor_core.ops_per_step": tape.get("ops", 0) / steps if steps else 0.0,
        **{f"tensor_core.ops.{op}": tape.get("op." + op, 0) / steps if steps
           else 0.0 for op in OP_NAMES},
        "tensor_core.bytes_per_step": tape.get("bytes", 0) / steps if steps else 0.0,
        "tensor_core.backward_ms": ms("tensor_core.backward"),
        "train.step_ms": (1e3 * sum(durations("train.fit")) / fit_steps
                          if fit_steps else 0.0),
        "train.forward_ms": 1e3 * _mean(
            spans[i].duration for i in by_name.get("gat_model.model_forward", ())
            if spans[i].parent in fit_ids),
        "train.loss_ms": ms("train.weighted_bce"),
        "train.optimizer_ms": ms("train.AdamOptimizer.step"),
        "train.evaluate_ms": ms("train.evaluate_split"),
        "train.prepare_dataset_s": _mean(durations("train.prepare_dataset")),
        "mtf_graph.transform_p50_ms": (1e3 * float(np.median(transforms))
                                       if transforms else 0.0),
        "mtf_graph.transform_tail_ms": (
            1e3 * float(np.percentile(transforms, tail)) if tail else 0.0),
        "mtf_graph.node_edges_mean": _mean(counts("mtf_graph.transform", "edges")),
        "mtf_graph.graphs_write_s": _mean(durations("mtf_graph.write_graphs")),
        "mtf_graph.graphs_read_s": _mean(durations("mtf_graph.read_graphs")),
        "mtf_graph.graphs_bytes_per_trace": bytes_per_trace,
        "gat_model.prepare_ms": ms("gat_model.prepare_graph"),
        "gat_model.forward_ms": 1e3 * _mean(
            selfs[i] for i in by_name.get("gat_model.model_forward", ())),
        "gat_model.rows_mean": _mean(counts("gat_model.prepare_graph", "rows")),
        "gat_model.rows_max": max(counts("gat_model.prepare_graph", "rows"),
                                  default=0),
        "gat_model.class_edges_mean": _mean(
            counts("gat_model.prepare_graph", "class_edges")),
        "gat_model.collapse_fallbacks": sum(
            counts("gat_model.prepare_graph", "fallback")),
        "cli.transform_s": _mean(durations("cli.cmd_transform")),
        "cli.manifest_s": _mean(durations("cli.write_manifest")),
        "trace.synth_ms": ms("trace.synthesize_clean"),
        "inject.build_dataset_ms": ms("inject.build_dataset"),
        "inject.dataset_io_ms": ms("inject.write_dataset", "inject.read_dataset"),
        "metrics.split_metrics_ms": ms("metrics.split_metrics"),
        **{f"{layer}.self_ms_per_op": 1e3 * layer_self.get(layer, 0.0) / ops
           for layer in LAYERS},
        "tracing.overhead_pct": overhead_pct,
    }
    return out


def self_time_table(spans: list[Span], timed_s: float, ops: int) -> list[str]:
    """Rows of the self-time table: per layer, then the timed time no span
    covers (the benchmark's own loop and unwrapped code)."""
    layer_self = layer_self_times(spans)
    in_spans = root_time(spans)
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.layer] = calls.get(s.layer, 0) + 1
    rows = [f"{'layer':<14}{'self_s':>10}{'share%':>9}{'ms/op':>10}{'spans':>9}"]
    for layer in LAYERS:
        t = layer_self.get(layer, 0.0)
        if not calls.get(layer):
            continue
        rows.append(f"{layer:<14}{t:>10.3f}{100 * t / timed_s:>9.1f}"
                    f"{1e3 * t / ops:>10.4f}{calls[layer]:>9}")
    rest = timed_s - in_spans
    rows.append(f"{'(no span)':<14}{rest:>10.3f}{100 * rest / timed_s:>9.1f}"
                f"{1e3 * rest / ops:>10.4f}{0:>9}")
    rows.append(f"{'timed total':<14}{timed_s:>10.3f}{100.0:>9.1f}"
                f"{1e3 * timed_s / ops:>10.4f}{len(spans):>9}")
    return rows
