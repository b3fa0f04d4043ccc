import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssigat.metrics import (ClassMetrics, ConfusionCounts, EvalReport,
                             MetricsError, SplitMetrics, aggregate,
                             anomalous_runs, confusion, precision_recall_f1,
                             report_to_csv, report_to_text, split_metrics)


def test_confusion_perfect_prediction():
    paired = confusion(np.array([1, 0, 1]), np.array([1, 0, 1]))
    assert paired.anomalous.fp == 0 and paired.anomalous.fn == 0


def test_confusion_inverted_prediction():
    paired = confusion(np.array([0, 1]), np.array([1, 0]))
    assert paired.anomalous.tp == 0 and paired.anomalous.tn == 0


def test_confusion_enumerated_case():
    paired = confusion(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))
    assert paired.anomalous == ConfusionCounts(tp=1, fp=1, fn=1, tn=1)


def test_confusion_swapping_positive_class_swaps_tables():
    paired = confusion(np.array([1, 0, 1, 1, 0]), np.array([1, 1, 0, 1, 0]))
    a, n = paired.anomalous, paired.non_anomalous
    assert (a.tp, a.fp, a.fn, a.tn) == (n.tn, n.fn, n.fp, n.tp)
    assert a.total == n.total == 5


def test_confusion_length_mismatch():
    with pytest.raises(MetricsError):
        confusion(np.array([1]), np.array([1, 0]))


def test_prf_reference_rows():
    # published reference points: P 0.93 / R 0.95 -> F1 ~0.94 and
    # P 0.98 / R 0.97 -> F1 ~0.975 (0.98 after 2-decimal rounding upstream)
    counts = ConfusionCounts(tp=9300, fp=700, fn=489, tn=0)  # P=0.93, R~0.95
    p, r, f1 = precision_recall_f1(counts)
    assert abs(p - 0.93) < 1e-9
    assert abs(r - 0.95) < 1e-3
    assert abs(f1 - 0.94) < 1e-3
    f1_non = 2 * 0.98 * 0.97 / (0.98 + 0.97)
    assert abs(f1_non - 0.975) < 1e-3


def test_prf_from_counts():
    p, r, f1 = precision_recall_f1(ConfusionCounts(tp=6, fp=2, fn=3, tn=9))
    assert p == 6 / 8 and r == 6 / 9
    np.testing.assert_allclose(f1, 2 * p * r / (p + r))


def test_prf_zero_denominator_convention():
    assert precision_recall_f1(ConfusionCounts(tp=0, fp=0, fn=0, tn=5)) == (0, 0, 0)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
def test_prf_ranges_and_harmonic_bounds(tp, fp, fn, tn):
    p, r, f1 = precision_recall_f1(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
    assert 0 <= p <= 1 and 0 <= r <= 1 and 0 <= f1 <= 1
    if p > 0 and r > 0:
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


def _split(p1, r1, f1, p2, r2, f2):
    return SplitMetrics(anomalous=ClassMetrics(p1, r1, f1),
                        non_anomalous=ClassMetrics(p2, r2, f2))


def test_aggregate_identical_splits():
    s = _split(0.9, 0.8, 0.85, 0.95, 0.97, 0.96)
    report = aggregate([s, s, s])
    for field in ("precision", "recall", "f1"):
        np.testing.assert_allclose(getattr(report.averages["anomalous"], field),
                                   getattr(s.anomalous, field), atol=1e-12)


def test_aggregate_two_split_mean():
    report = aggregate([_split(1, 1, 0.9, 1, 1, 1), _split(1, 1, 1.0, 1, 1, 1)])
    np.testing.assert_allclose(report.averages["anomalous"].f1, 0.95)


def test_aggregate_matches_independent_summation():
    rng = np.random.default_rng(0)
    splits = [_split(*rng.uniform(0, 1, 6)) for _ in range(10)]
    report = aggregate(splits)
    manual = sum(s.anomalous.recall for s in splits) / 10
    np.testing.assert_allclose(report.averages["anomalous"].recall, manual,
                               atol=1e-12)


def test_aggregate_requires_a_split():
    with pytest.raises(MetricsError):
        aggregate([])


def test_split_metrics_flags_zero_division():
    m = split_metrics(np.zeros(4), np.zeros(4))
    assert m.zero_division  # no positives predicted or present


def test_report_json_round_trip():
    report = aggregate([_split(0.5, 0.6, 0.54, 0.9, 0.8, 0.85)],
                       parameter_count=123)
    assert json.loads(report.to_json()).keys() == {
        "parameter_count", "per_split", "averages"}
    again = EvalReport.from_json(report.to_json())
    assert again.parameter_count == 123
    assert again.per_split == report.per_split
    assert again.averages == report.averages
    assert report.to_json() == again.to_json()


def test_report_renderings_mention_both_classes():
    report = aggregate([_split(0.5, 0.6, 0.54, 0.9, 0.8, 0.85)],
                       parameter_count=5)
    text = report_to_text(report)
    csv = report_to_csv(report)
    assert "anomalous" in text and "non_anomalous" in text
    assert csv.splitlines()[0] == "class,precision,recall,f1"
    assert len(csv.splitlines()) == 3


def test_anomalous_runs_extraction():
    assert anomalous_runs(np.array([0, 1, 1, 0, 1])) == [(1, 2), (4, 1)]
    assert anomalous_runs(np.zeros(5)) == []
    assert anomalous_runs(np.ones(3)) == [(0, 3)]
    assert anomalous_runs(np.array([])) == []


def _runs_by_loop(labels) -> list[tuple[int, int]]:
    runs, start = [], None
    for i, label in enumerate(labels):
        if label and start is None:
            start = i
        elif not label and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(labels) - start))
    return runs


@settings(deadline=None, max_examples=100)
@given(st.lists(st.booleans(), min_size=0, max_size=40),
       st.booleans(), st.booleans(),
       st.sampled_from(["int8", "bool", "float", "list"]))
def test_anomalous_runs_match_a_loop(flags, first, last, kind):
    """Runs at both ends, and the starts and lengths are Python ints that
    ``json.dumps`` takes, as ``predict`` writes them."""
    flags = [first, *flags, last]
    labels = {"int8": np.array(flags, dtype=np.int8),
              "bool": np.array(flags, dtype=bool),
              # any nonzero float is anomalous, as a cast to bool reads it
              "float": np.array(flags, dtype=float) * 0.75,
              "list": [int(f) for f in flags]}[kind]
    runs = anomalous_runs(labels)
    assert runs == _runs_by_loop(flags)
    assert all(type(start) is int and type(length) is int
               for start, length in runs)
    assert json.loads(json.dumps(runs)) == [list(run) for run in runs]
