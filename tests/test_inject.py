import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rssigat.inject import (ANOMALOUS_KINDS, SLOWD_DURATION, SLOWD_ONSET,
                            SUDDEND_ONSET, SUDDENR_DURATION, SUDDENR_ONSET,
                            DESCRIPTOR_FIELDS, AnomalyDescriptor, AnomalyKind,
                            CapacityError, DatasetError, InjectionParams,
                            LabeledTrace, build_dataset, inject_anomaly,
                            labeled_from_record, read_dataset, write_dataset)
from rssigat.trace import ConfigError, RssiTrace, TraceSchema, synthesize_clean
from fuzzing import JSON_VALUES, LINK_IDS, SAMPLE_LISTS
from oracles import labeled_to_record

SCHEMA = TraceSchema(expected_length=300)


def _flat_trace(value=80.0, n=300, link="t"):
    return RssiTrace(link, np.full(n, value))


def _rng(seed=0):
    return np.random.default_rng(seed)


def _window_applied(base, d, schema=SCHEMA):
    """The window ``d.onset .. d.onset + d.duration - 1`` of ``base`` and the
    samples ``d`` gives by hand: the window drops to the floor, or for SlowD
    declines as clip(x - slope * (t - onset)); the rest is left as it was."""
    t = np.arange(base.length)
    window = (t >= d.onset) & (t < d.onset + d.duration)
    if d.slope is None:
        inside = np.full(base.length, schema.rssi_min)
    else:
        inside = np.clip(base.samples - d.slope * (t - d.onset),
                         schema.rssi_min, schema.rssi_max)
    return window, np.where(window, inside, base.samples)


def _reads_back(out):
    """``out`` survives the record round trip, whose reader checks its kind
    against the descriptor and derives the labels from it."""
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
    base = synthesize_clean(1, SCHEMA, _rng(9))[0]
    out = inject_anomaly(base, AnomalyKind.SUDDEN_R, rng=_rng(0))
    window, expected = _window_applied(base, out.descriptor)
    np.testing.assert_array_equal(out.labels, window)
    np.testing.assert_array_equal(out.trace.samples, expected)


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


# ---------------------------------------------------------------------------
# SlowD

def test_slowd_formula_hand_case():
    out = inject_anomaly(_flat_trace(80.0), AnomalyKind.SLOW_D, rng=_rng(2))
    d = out.descriptor
    window, expected = _window_applied(_flat_trace(80.0), d)
    np.testing.assert_array_equal(out.labels, window)
    np.testing.assert_array_equal(out.trace.samples, expected)
    # five samples past the onset the decline is 5 * slope
    assert out.trace.samples[d.onset + 5] == 80.0 - 5 * d.slope
    assert out.trace.samples[d.onset] == 80.0  # x = onset: offset 0
    assert out.labels[d.onset] == 1  # still labeled anomalous
    _reads_back(out)


def test_slowd_clamps_at_floor():
    # a slope >= 0.5 over >= 150 samples declines more than 40
    base = _flat_trace(40.0)
    out = inject_anomaly(base, AnomalyKind.SLOW_D, rng=_rng(2))
    window, expected = _window_applied(base, out.descriptor)
    np.testing.assert_array_equal(out.labels, window)
    np.testing.assert_array_equal(out.trace.samples, expected)
    floor = out.trace.samples == SCHEMA.rssi_min
    assert floor.any() and np.all(window[floor])


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
    assert params == InjectionParams(100)
    assert params.scaled(SUDDEND_ONSET) == (67, 93)
    assert params.scaled(SUDDENR_DURATION) == (2, 7)
    assert params.scaled(SLOWD_DURATION) == (50, 60)
    assert params.instad_count == 1  # the reference 1% of 100


def test_every_kind_fits_every_length():
    """At every length the widest window of each kind lies inside the trace,
    and a drawn one marks points."""
    rng = _rng(31)
    for n in range(2, 2001):
        params = InjectionParams.scaled_to_length(n)
        onset = params.scaled(SUDDEND_ONSET)
        assert 1 <= onset[0] and onset[1] <= n
        for onsets, durations in ((SUDDENR_ONSET, SUDDENR_DURATION),
                                  (SLOWD_ONSET, SLOWD_DURATION)):
            onset, duration = params.scaled(onsets), params.scaled(durations)
            assert 1 <= onset[0] and 1 <= duration[0]
            assert onset[1] - 1 + duration[1] <= n
        assert 1 <= params.instad_count <= n
        for kind in ANOMALOUS_KINDS:
            assert inject_anomaly(_flat_trace(n=n), kind, params, rng).labels.any()


def test_params_need_two_samples():
    with pytest.raises(ConfigError, match="length must be >= 2"):
        InjectionParams(1)


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


@st.composite
def _labeled_traces(draw):
    """A trace of any samples and link id, with a descriptor of each kind
    that fits its length; the SlowD slope is any float."""
    samples = np.array(draw(SAMPLE_LISTS))
    n = samples.size
    descriptor = draw(st.sampled_from([
        AnomalyDescriptor("None"),
        AnomalyDescriptor("SuddenD", onset=n - 1, duration=1),
        AnomalyDescriptor("SuddenR", onset=0, duration=n),
        AnomalyDescriptor("InstaD", indices=(0, n - 1)),
    ]) | st.floats().map(lambda slope: AnomalyDescriptor(
        "SlowD", onset=1, duration=n - 1, slope=slope)))
    return LabeledTrace(RssiTrace(draw(LINK_IDS), samples), descriptor)


@settings(deadline=None, max_examples=200)
@given(st.lists(_labeled_traces(), max_size=3))
@example([LabeledTrace(RssiTrace(link_id, np.array(samples)),
                       AnomalyDescriptor("None"))
          for link_id, samples in [("a", [0.0, 1023.0]), ("b", [1023.0, 1024.0]),
                                   ("c", [-0.0, 5.0]), ("d", [2.0**53, 1e16]),
                                   ("e", [62.0, 62.5]), ("f", [3.0, -3.0])]])
def test_dataset_lines_are_json_dumps_of_records(tmp_path_factory, items):
    """Each line ``write_dataset`` writes is ``json.dumps`` of the item's
    record, whether or not its samples fit the writers' table."""
    path = tmp_path_factory.mktemp("dataset") / "dataset.jsonl"
    write_dataset(path, items)
    assert path.read_bytes() == "".join(
        json.dumps(labeled_to_record(item)) + "\n" for item in items).encode()


def test_labeled_record_has_descriptor_fields():
    out = inject_anomaly(_flat_trace(), AnomalyKind.SLOW_D, rng=_rng(12))
    rec = labeled_to_record(out)
    assert rec["kind"] == "SlowD"
    assert set(rec["descriptor"]) == {"kind", "onset", "duration", "slope"}


def _one_of_each(n=300):
    params = InjectionParams.scaled_to_length(n)
    return [inject_anomaly(_flat_trace(n=n), kind, params, _rng(20 + k))
            for k, kind in enumerate(AnomalyKind)]


def test_labeled_record_stores_no_labels():
    """A record holds the trace and its descriptor; the labels follow from
    the descriptor and are not written."""
    for item in _one_of_each():
        rec = labeled_to_record(item)
        assert set(rec) == {"link_id", "kind", "descriptor", "samples"}
        assert set(rec["descriptor"]) == DESCRIPTOR_FIELDS[item.kind]


def test_record_with_stored_labels_reads_back_equal():
    """A record that also stores its labels, as older datasets do, reads back
    equal to the record without them; labels that disagree are refused."""
    for item in _one_of_each():
        rec = labeled_to_record(item)
        old = {**rec, "labels": item.labels.tolist()}
        new, back = labeled_from_record(rec), labeled_from_record(old)
        assert back.descriptor == new.descriptor == item.descriptor
        assert back.kind is new.kind is item.kind
        assert back.trace.link_id == new.trace.link_id
        np.testing.assert_array_equal(back.trace.samples, new.trace.samples)
        np.testing.assert_array_equal(back.labels, new.labels)
        np.testing.assert_array_equal(new.labels, item.labels)
        flipped = item.labels.tolist()
        flipped[0] = 1 - flipped[0]
        with pytest.raises(DatasetError, match="labels disagree with descriptor"):
            labeled_from_record({**rec, "labels": flipped})


@pytest.mark.parametrize("kind, extra, foreign", [
    (AnomalyKind.NONE, {"onset": 3}, "onset"),
    (AnomalyKind.NONE, {"onset": 3, "duration": 5}, "duration, onset"),
    (AnomalyKind.SUDDEN_R, {"indices": [2]}, "indices"),
    (AnomalyKind.INSTA_D, {"slope": 0.5}, "slope"),
    (AnomalyKind.SUDDEN_D, {"shape": "step"}, "shape"),
], ids=["None-onset", "None-onset-duration", "SuddenR-indices",
        "InstaD-slope", "SuddenD-unknown"])
@pytest.mark.parametrize("stored_labels", [False, True],
                         ids=["no-labels", "labels"])
def test_descriptor_field_its_kind_does_not_use_is_refused(
        kind, extra, foreign, stored_labels):
    """Each kind's descriptor carries only the fields ``labeled_to_record``
    writes for it. A foreign field is refused whether or not the record also
    stores labels that agree with what the descriptor marks."""
    item = inject_anomaly(_flat_trace(n=60), kind,
                          InjectionParams.scaled_to_length(60), _rng(5))
    rec = labeled_to_record(item)
    rec["descriptor"] |= extra
    if stored_labels:  # the points the descriptor marks, by its indices if any
        labels = np.zeros(60, dtype=np.int8)
        labels[extra.get("indices", np.flatnonzero(item.labels))] = 1
        rec["labels"] = labels.tolist()
    with pytest.raises(DatasetError, match=re.escape(
            f"{kind.value} descriptor carries {foreign}, which its kind "
            f"does not use")):
        labeled_from_record(rec)


@pytest.mark.parametrize("kind, edit, lacking", [
    (AnomalyKind.SUDDEN_R, lambda d: d.pop("duration"), "duration"),
    (AnomalyKind.SUDDEN_R, lambda d: d.update(duration=None), "duration"),
    (AnomalyKind.SLOW_D, lambda d: d.pop("duration"), "duration"),
    (AnomalyKind.INSTA_D, lambda d: d.pop("indices"), "indices"),
    (AnomalyKind.SUDDEN_D, lambda d: d.pop("onset"), "onset"),
], ids=["SuddenR-no-duration", "SuddenR-null-duration", "SlowD-no-duration",
        "InstaD-no-indices", "SuddenD-no-onset"])
def test_descriptor_lacking_a_field_its_kind_uses_is_refused(kind, edit,
                                                             lacking):
    """Each kind's descriptor carries every field ``labeled_to_record``
    writes for it, none of them null. A window without its duration is not
    read as running to the end of the trace."""
    item = inject_anomaly(_flat_trace(n=100), kind,
                          InjectionParams.scaled_to_length(100), _rng(6))
    rec = labeled_to_record(item)
    edit(rec["descriptor"])
    with pytest.raises(DatasetError,
                       match=f"^{kind.value} descriptor lacks {lacking}$"):
        labeled_from_record(rec)


_RECORD = labeled_to_record(inject_anomaly(
    _flat_trace(n=60), AnomalyKind.SUDDEN_R,
    InjectionParams.scaled_to_length(60), rng=_rng(4)))
_FIELDS = sorted({*_RECORD, "labels"}) + [
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
     "SuddenR descriptor marks no point"),
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


@pytest.mark.parametrize("changes, message", [
    ({"link_id": 5}, "malformed record: link_id must be a string"),
    ({"link_id": None}, "malformed record: link_id must be a string"),
    ({"samples": ["57"] + [80.0] * 59},
     "malformed record: samples must be a list of numbers"),
    ({"samples": [True] + [80.0] * 59},
     "malformed record: samples must be a list of numbers"),
    ({"samples": "80" * 60},
     "malformed record: samples must be a list of numbers"),
], ids=["link-id-int", "link-id-null", "sample-string", "sample-bool",
        "samples-string"])
def test_record_link_id_and_samples_must_be_json_strings_and_numbers(
        changes, message):
    """A numeric link id or a sample written as a string or a boolean is
    refused, not converted: a graph file written from such a record could
    not be read back."""
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
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
