import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssigat.inject import (ANOMALOUS_KINDS, AnomalyKind, CapacityError,
                            DatasetError, InjectionParams, build_dataset,
                            inject_anomaly, labeled_from_record,
                            labeled_to_record, read_dataset, write_dataset)
from rssigat.trace import ConfigError, RssiTrace, TraceSchema, synthesize_clean
from fuzzing import JSON_VALUES

SCHEMA = TraceSchema(expected_length=300)


def _flat_trace(value=80.0, n=300, link="t"):
    return RssiTrace(link, np.full(n, value))


def _rng(seed=0):
    return np.random.default_rng(seed)


def _reads_back(out):
    """``out`` survives the record round trip, whose reader checks kind and
    labels against the descriptor."""
    back = labeled_from_record(labeled_to_record(out))
    assert back.kind is out.kind
    np.testing.assert_array_equal(back.labels, out.labels)


# ---------------------------------------------------------------------------
# SuddenD

def test_suddend_labels_tail():
    out = inject_anomaly(_flat_trace(), AnomalyKind.SUDDEN_D, rng=_rng(1))
    onset = out.descriptor.onset
    assert 199 <= onset <= 279  # [200th, 280th] as 0-based indices
    assert out.labels.sum() == 300 - onset
    assert np.all(out.trace.samples[onset:] == 0.0)
    assert np.all(out.trace.samples[:onset] == 80.0)
    _reads_back(out)


def test_suddend_onset_histogram_covers_range():
    counts = np.zeros(300, dtype=int)
    rng = _rng(42)
    for _ in range(1000):
        out = inject_anomaly(_flat_trace(), AnomalyKind.SUDDEN_D, rng=rng)
        counts[out.descriptor.onset] += 1
    hit = np.flatnonzero(counts)
    assert hit.min() == 199 and hit.max() == 279
    assert np.all(counts[199:280] > 0)  # all 81 onsets drawn at n=1000
    # chi-square sanity against uniform: expected 1000/81 per cell
    expected = 1000 / 81
    chi2 = float(((counts[199:280] - expected) ** 2 / expected).sum())
    assert chi2 < 160  # p ~ 1e-7 cutoff for 80 dof; deterministic via seed


def test_suddend_rejects_short_trace():
    with pytest.raises(ConfigError):
        inject_anomaly(_flat_trace(n=100), AnomalyKind.SUDDEN_D, rng=_rng(0))


# ---------------------------------------------------------------------------
# SuddenR

def test_suddenr_window_and_recovery():
    out = inject_anomaly(_flat_trace(), AnomalyKind.SUDDEN_R, rng=_rng(3))
    d = out.descriptor
    assert 24 <= d.onset <= 274
    assert 5 <= d.duration <= 20
    window = slice(d.onset, d.onset + d.duration)
    assert np.all(out.trace.samples[window] == 0.0)
    assert out.trace.samples[d.onset + d.duration] == 80.0  # recovery
    assert out.labels.sum() == d.duration
    _reads_back(out)


def test_suddenr_duration_always_in_range():
    rng = _rng(17)
    for _ in range(200):
        out = inject_anomaly(_flat_trace(), AnomalyKind.SUDDEN_R, rng=rng)
        assert 5 <= out.descriptor.duration <= 20


def test_suddenr_fixed_window_labels():
    params = InjectionParams(suddenr_onset_range=(101, 101),
                             suddenr_duration_range=(5, 5))
    out = inject_anomaly(_flat_trace(), AnomalyKind.SUDDEN_R, params, _rng(0))
    np.testing.assert_array_equal(np.flatnonzero(out.labels), np.arange(100, 105))


# ---------------------------------------------------------------------------
# InstaD

def test_instad_exact_count_and_distinct():
    out = inject_anomaly(_flat_trace(), AnomalyKind.INSTA_D, rng=_rng(5))
    idx = np.asarray(out.descriptor.indices)
    assert idx.size == 3  # round(0.01 * 300)
    assert np.unique(idx).size == idx.size
    assert out.labels.sum() == 3
    mask = np.ones(300, dtype=bool)
    mask[idx] = False
    assert np.all(out.trace.samples[mask] == 80.0)
    assert np.all(out.trace.samples[idx] == 0.0)
    _reads_back(out)


def test_instad_rejects_nonpositive_fraction():
    with pytest.raises(ConfigError):
        inject_anomaly(_flat_trace(), AnomalyKind.INSTA_D,
                       InjectionParams(instad_fraction=0.0), _rng(0))


# ---------------------------------------------------------------------------
# SlowD

def test_slowd_formula_hand_case():
    # slope 1, onset index 10: sample at x=15 drops by exactly 5
    params = InjectionParams(slowd_onset_range=(11, 11),
                             slowd_duration_range=(150, 150),
                             slowd_slope_range=(1.0, 1.0))
    out = inject_anomaly(_flat_trace(80.0), AnomalyKind.SLOW_D, params, _rng(2))
    d = out.descriptor
    assert d.onset == 10 and d.slope == 1.0
    assert out.trace.samples[15] == 75.0
    assert out.trace.samples[10] == 80.0  # x = onset: offset min(0, 0) = 0
    assert out.labels[10] == 1  # still labeled anomalous
    _reads_back(out)


def test_slowd_clamps_at_floor():
    # slope 1.5 from onset 5: by x=100 the drop exceeds the signal range
    params = InjectionParams(slowd_onset_range=(6, 6),
                             slowd_duration_range=(150, 150),
                             slowd_slope_range=(1.5, 1.5))
    out = inject_anomaly(_flat_trace(40.0), AnomalyKind.SLOW_D, params, _rng(2))
    assert out.trace.samples[100] == 0.0  # 40 - 142.5 clamped to schema floor
    assert out.trace.samples[4] == 40.0


def test_slowd_draw_ranges():
    rng = _rng(23)
    for _ in range(100):
        out = inject_anomaly(_flat_trace(), AnomalyKind.SLOW_D, rng=rng)
        d = out.descriptor
        assert 0 <= d.onset <= 19
        assert 150 <= d.duration <= 180
        assert 0.5 <= d.slope <= 1.5
        assert out.labels.sum() == d.duration


# ---------------------------------------------------------------------------
# shared injector properties

@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**31 - 1), st.sampled_from(ANOMALOUS_KINDS))
def test_injection_properties(seed, kind):
    base = synthesize_clean(1, SCHEMA, np.random.default_rng(seed % 1000))[0]
    out = inject_anomaly(base, kind, rng=np.random.default_rng(seed))
    _reads_back(out)
    # unlabeled points are untouched
    clean_mask = out.labels == 0
    np.testing.assert_array_equal(out.trace.samples[clean_mask],
                                  base.samples[clean_mask])
    # mutated samples stay within schema bounds
    assert out.trace.samples.min() >= SCHEMA.rssi_min
    assert out.trace.samples.max() <= SCHEMA.rssi_max
    # determinism
    again = inject_anomaly(base, kind, rng=np.random.default_rng(seed))
    np.testing.assert_array_equal(out.trace.samples, again.trace.samples)
    np.testing.assert_array_equal(out.labels, again.labels)


@pytest.mark.parametrize("kind", [AnomalyKind.SUDDEN_D, AnomalyKind.SUDDEN_R,
                                  AnomalyKind.INSTA_D], ids=lambda k: k.value)
def test_drops_land_on_the_schema_floor(kind):
    schema = TraceSchema(expected_length=300, rssi_min=10.0)
    out = inject_anomaly(_flat_trace(), kind, rng=_rng(6), schema=schema)
    marked = out.labels == 1
    assert marked.any()
    assert np.all(out.trace.samples[marked] == 10.0)
    assert np.all(out.trace.samples[~marked] == 80.0)
    out.trace.validate(schema)


def test_suddend_unchanged_before_onset_suddenr_outside_window():
    base = synthesize_clean(1, SCHEMA, _rng(9))[0]
    sd = inject_anomaly(base, AnomalyKind.SUDDEN_D, rng=_rng(1))
    np.testing.assert_array_equal(sd.trace.samples[:sd.descriptor.onset],
                                  base.samples[:sd.descriptor.onset])
    sr = inject_anomaly(base, AnomalyKind.SUDDEN_R, rng=_rng(1))
    outside = sr.labels == 0
    np.testing.assert_array_equal(sr.trace.samples[outside], base.samples[outside])


# ---------------------------------------------------------------------------
# dataset assembly

def test_build_dataset_counts_and_shuffle():
    clean = synthesize_clean(60, SCHEMA, _rng(4))
    composition = {AnomalyKind.SUDDEN_D: 5, AnomalyKind.SUDDEN_R: 5,
                   AnomalyKind.INSTA_D: 5, AnomalyKind.SLOW_D: 5,
                   AnomalyKind.NONE: 30}
    dataset = build_dataset(clean, composition, rng=_rng(0))
    assert len(dataset) == 50
    kinds = [item.kind for item in dataset]
    for kind, expected in composition.items():
        assert kinds.count(kind) == expected
    # sources are distinct
    ids = [item.trace.link_id for item in dataset]
    assert len(set(ids)) == 50
    # label prevalence sanity: clean traces all-zero, others nonzero
    for item in dataset:
        assert (item.labels.sum() == 0) == (item.kind is AnomalyKind.NONE)


def test_build_dataset_single_kind():
    clean = synthesize_clean(2, SCHEMA, _rng(1))
    dataset = build_dataset(clean, {AnomalyKind.SUDDEN_D: 1}, rng=_rng(0))
    assert len(dataset) == 1
    assert dataset[0].kind is AnomalyKind.SUDDEN_D


def test_build_dataset_capacity_error_reports_shortfall():
    clean = synthesize_clean(3, SCHEMA, _rng(1))
    with pytest.raises(CapacityError, match="short by 2"):
        build_dataset(clean, {AnomalyKind.NONE: 5}, rng=_rng(0))


def test_build_dataset_deterministic():
    clean = synthesize_clean(20, SCHEMA, _rng(8))
    comp = {AnomalyKind.SUDDEN_R: 4, AnomalyKind.NONE: 10}
    a = build_dataset(clean, comp, rng=_rng(5))
    b = build_dataset(clean, comp, rng=_rng(5))
    for x, y in zip(a, b):
        assert x.trace.link_id == y.trace.link_id
        np.testing.assert_array_equal(x.trace.samples, y.trace.samples)
        np.testing.assert_array_equal(x.labels, y.labels)


# ---------------------------------------------------------------------------
# parameter scaling and serialization

def test_scaled_params_fit_short_traces():
    params = InjectionParams.scaled_to_length(100)
    params.validate_for_length(100)
    assert params.suddend_onset_range == (67, 93)
    assert params.suddenr_duration_range == (2, 7)
    assert params.slowd_duration_range == (50, 60)
    assert params.instad_fraction == 0.01


def test_params_validate_for_length_rejects_overflow():
    with pytest.raises(ConfigError):
        InjectionParams().validate_for_length(100)


@pytest.mark.parametrize("kind, change, message", [
    (AnomalyKind.SUDDEN_D, {"suddend_onset_range": (67, 101)},
     "SuddenD onset range exceeds"),
    (AnomalyKind.SUDDEN_R, {"suddenr_duration_range": (2, 100)},
     "SuddenR onset+duration can exceed"),
    (AnomalyKind.SLOW_D, {"slowd_duration_range": (50, 100)},
     "SlowD onset+duration can exceed"),
    (AnomalyKind.INSTA_D, {"instad_fraction": 0.001},
     "instad_fraction too small"),
], ids=["SuddenD", "SuddenR", "SlowD", "InstaD"])
def test_injector_and_params_reject_a_window_alike(kind, change, message):
    """The injector refuses a window that cannot fit with the message
    ``validate_for_length`` gives for it."""
    params = replace(InjectionParams.scaled_to_length(100), **change)
    with pytest.raises(ConfigError, match=re.escape(message)):
        params.validate_for_length(100)
    with pytest.raises(ConfigError, match=re.escape(message)):
        inject_anomaly(_flat_trace(n=100), kind, params, _rng(0))


def test_dataset_round_trip_bit_exact(tmp_path):
    clean = synthesize_clean(8, SCHEMA, _rng(2))
    dataset = build_dataset(clean, {AnomalyKind.SLOW_D: 3, AnomalyKind.NONE: 3},
                            rng=_rng(3))
    path = tmp_path / "data.jsonl"
    write_dataset(path, dataset)
    loaded = read_dataset(path)
    assert len(loaded) == len(dataset)
    for a, b in zip(dataset, loaded):
        assert a.kind == b.kind
        assert a.descriptor == b.descriptor
        np.testing.assert_array_equal(a.trace.samples, b.trace.samples)
        np.testing.assert_array_equal(a.labels, b.labels)
    # slowd samples are non-integral floats: byte-exact re-serialization
    path2 = tmp_path / "again.jsonl"
    write_dataset(path2, loaded)
    assert path2.read_bytes() == path.read_bytes()


def test_labeled_record_has_descriptor_fields():
    out = inject_anomaly(_flat_trace(), AnomalyKind.SLOW_D, rng=_rng(12))
    rec = labeled_to_record(out)
    assert rec["kind"] == "SlowD"
    assert set(rec["descriptor"]) == {"kind", "onset", "duration", "slope"}


_RECORD = labeled_to_record(inject_anomaly(
    _flat_trace(n=60), AnomalyKind.SUDDEN_R,
    InjectionParams.scaled_to_length(60), rng=_rng(4)))
_FIELDS = sorted(_RECORD) + [
    f"descriptor.{k}" for k in ("kind", "onset", "duration", "slope", "indices")]


def _mutated(changes: dict) -> dict:
    """The valid record with the named fields replaced; ``descriptor.<key>``
    names a descriptor field."""
    rec = {**_RECORD, "descriptor": dict(_RECORD["descriptor"])}
    for field, value in changes.items():
        if "." in field:
            rec["descriptor"][field.partition(".")[2]] = value
    rec.update((k, v) for k, v in changes.items() if "." not in k)
    return rec


@settings(deadline=None, max_examples=300)
@given(JSON_VALUES | st.dictionaries(st.sampled_from(_FIELDS),
                               JSON_VALUES | st.integers(-10**12, 10**12),
                               max_size=3).map(_mutated))
def test_labeled_from_record_raises_only_dataset_error(rec):
    """Arbitrary JSON, or a valid record with some fields replaced by
    arbitrary values, either reads back or raises DatasetError."""
    try:
        item = labeled_from_record(rec)
    except DatasetError:
        return
    assert item.labels.shape == (item.trace.length,)


# the SuddenR record turned into a well-formed InstaD record marking sample 2,
# or into a SlowD record (SlowD marks the same onset..onset+duration window)
_INSTAD = {"kind": "InstaD", "labels": [0, 0, 1] + [0] * 57,
           "descriptor": {"kind": "InstaD", "indices": [2]}}
_SLOWD = {"kind": "SlowD", "descriptor.kind": "SlowD", "descriptor.slope": 0.5}


@pytest.mark.parametrize("changes, message", [
    ({"kind": "SlowD"}, "descriptor kind disagrees with kind"),
    ({"descriptor.onset": -1}, "onset and duration must be integers in"),
    ({"descriptor.duration": 10**12}, "onset and duration must be integers in"),
    ({"descriptor.indices": [60]}, "descriptor indices out of range"),
    ({"descriptor.indices": [-1]}, "descriptor indices out of range"),
    ({"labels": [1] * 60}, "labels disagree with descriptor"),
    ({"descriptor.duration": 0, "labels": [0] * 60},
     "kind None must mean all-zero labels"),
    (_INSTAD | {"descriptor": {"kind": "InstaD", "indices": [2.7]}},
     "descriptor indices must be integers"),
    (_INSTAD | {"descriptor": {"kind": "InstaD", "indices": [True, 2]}},
     "descriptor indices must be integers"),
    (_SLOWD | {"descriptor.slope": "steep"},
     "SlowD descriptor slope must be a finite float"),
    (_SLOWD | {"descriptor.slope": True},
     "SlowD descriptor slope must be a finite float"),
    (_SLOWD | {"descriptor.slope": float("nan")},
     "SlowD descriptor slope must be a finite float"),
])
def test_labeled_from_record_rejects_inconsistent_record(changes, message):
    with pytest.raises(DatasetError, match=message):
        labeled_from_record(_mutated(changes))


@pytest.mark.parametrize("line, message", [
    (b"\xff\n", "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000 + b"\n", "maximum recursion depth exceeded"),
], ids=["not-utf8", "too-deep"])
def test_read_dataset_names_the_bad_line(tmp_path, line, message):
    path = tmp_path / "dataset.jsonl"
    path.write_bytes(json.dumps(_RECORD).encode() + b"\n" + line)
    with pytest.raises(DatasetError, match=re.escape(f"{path}:2: {message}")):
        read_dataset(path)
