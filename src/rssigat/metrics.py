"""Per-class precision/recall/F1 over per-point predictions."""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np


class MetricsError(Exception):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class PairedConfusion:
    """One-vs-rest tables for both classes; swapping the positive class
    swaps tp<->tn and fp<->fn."""

    anomalous: ConfusionCounts
    non_anomalous: ConfusionCounts


def confusion(pred: np.ndarray, truth: np.ndarray) -> PairedConfusion:
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise MetricsError(f"length mismatch: {pred.shape} vs {truth.shape}")
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    tn = int(np.sum(~pred & ~truth))
    return PairedConfusion(
        anomalous=ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn),
        non_anomalous=ConfusionCounts(tp=tn, fp=fn, fn=fp, tn=tp),
    )


def precision_recall_f1(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Standard definitions; zero denominators yield 0 by convention."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def has_zero_denominator(counts: ConfusionCounts) -> bool:
    return (counts.tp + counts.fp == 0) or (counts.tp + counts.fn == 0)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class SplitMetrics:
    anomalous: ClassMetrics
    non_anomalous: ClassMetrics
    zero_division: bool = False


def split_metrics(pred: np.ndarray, truth: np.ndarray) -> SplitMetrics:
    paired = confusion(pred, truth)
    return SplitMetrics(
        anomalous=ClassMetrics(*precision_recall_f1(paired.anomalous)),
        non_anomalous=ClassMetrics(*precision_recall_f1(paired.non_anomalous)),
        zero_division=has_zero_denominator(paired.anomalous)
        or has_zero_denominator(paired.non_anomalous),
    )


@dataclass
class EvalReport:
    per_split: list[SplitMetrics]
    averages: dict[str, ClassMetrics]
    parameter_count: int
    config: dict

    def to_json(self) -> str:
        payload = {
            "parameter_count": self.parameter_count,
            "config": self.config,
            "per_split": [asdict(s) for s in self.per_split],
            "averages": {k: asdict(v) for k, v in self.averages.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        payload = json.loads(text)
        per_split = [
            SplitMetrics(anomalous=ClassMetrics(**s["anomalous"]),
                         non_anomalous=ClassMetrics(**s["non_anomalous"]),
                         zero_division=s["zero_division"])
            for s in payload["per_split"]
        ]
        averages = {k: ClassMetrics(**v) for k, v in payload["averages"].items()}
        return cls(per_split=per_split, averages=averages,
                   parameter_count=payload["parameter_count"],
                   config=payload["config"])


def aggregate(per_split: list[SplitMetrics], parameter_count: int = 0,
              config: dict | None = None) -> EvalReport:
    """Arithmetic mean of every metric across splits."""
    if not per_split:
        raise MetricsError("need at least one split")
    averages = {}
    for cls_name in ("anomalous", "non_anomalous"):
        rows = [getattr(s, cls_name) for s in per_split]
        averages[cls_name] = ClassMetrics(
            precision=float(np.mean([r.precision for r in rows])),
            recall=float(np.mean([r.recall for r in rows])),
            f1=float(np.mean([r.f1 for r in rows])),
        )
    return EvalReport(per_split=list(per_split), averages=averages,
                      parameter_count=parameter_count, config=dict(config or {}))


def report_to_text(report: EvalReport) -> str:
    lines = ["class           split  precision  recall     f1"]
    for i, s in enumerate(report.per_split):
        for cls_name in ("anomalous", "non_anomalous"):
            m = getattr(s, cls_name)
            flag = " *" if s.zero_division else ""
            lines.append(f"{cls_name:<15} {i:>5}  {m.precision:>9.4f}  "
                         f"{m.recall:>6.4f}  {m.f1:>6.4f}{flag}")
    lines.append("-" * 52)
    for cls_name, m in report.averages.items():
        lines.append(f"{cls_name:<15} {'avg':>5}  {m.precision:>9.4f}  "
                     f"{m.recall:>6.4f}  {m.f1:>6.4f}")
    lines.append(f"trainable parameters: {report.parameter_count}")
    return "\n".join(lines) + "\n"


def report_to_csv(report: EvalReport) -> str:
    """Class-by-metric table of the across-split averages."""
    lines = ["class,precision,recall,f1"]
    for cls_name, m in report.averages.items():
        lines.append(f"{cls_name},{m.precision:.4f},{m.recall:.4f},{m.f1:.4f}")
    return "\n".join(lines) + "\n"


def anomalous_runs(labels: np.ndarray) -> list[tuple[int, int]]:
    """Maximal consecutive runs of 1s as (start index, length) intervals."""
    padded = np.concatenate(([False], np.asarray(labels, dtype=bool), [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = changes[::2], changes[1::2]
    return [(int(s), int(e - s)) for s, e in zip(starts, ends)]
