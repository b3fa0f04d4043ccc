import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssigat.trace import (ConfigError, ParseError, RawLinkLog, RssiTrace,
                           SchemaError, SynthesisProfile, TraceSchema,
                           filter_complete, ingest_raw_log, normalize,
                           read_traces_csv, synthesize_clean, write_traces_csv)
from oracles import write_raw_logs


def _raw_text(link_id, seqs, rssis, noise="0"):
    lines = [f"# link {link_id} noise={noise}"]
    lines.extend(f"{s},{int(r)}" for s, r in zip(seqs, rssis))
    return "\n".join(lines) + "\n"


def test_ingest_single_link():
    text = _raw_text("a", range(300), [40] * 300)
    logs = ingest_raw_log(text)
    assert len(logs) == 1
    assert logs[0].link_id == "a"
    assert len(logs[0].records) == 300


def test_ingest_rejects_out_of_range_rssi():
    with pytest.raises(SchemaError):
        ingest_raw_log("# link a noise=0\n0,200\n")


def test_ingest_rejects_malformed_record_with_line_number():
    with pytest.raises(ParseError) as err:
        ingest_raw_log("# link a noise=0\n0,40\nbogus line\n")
    assert err.value.line_no == 3


def test_ingest_rejects_record_before_header():
    with pytest.raises(ParseError):
        ingest_raw_log("0,40\n")


def test_ingest_rejects_nonincreasing_sequence():
    with pytest.raises(ParseError):
        ingest_raw_log("# link a noise=0\n5,40\n5,41\n")


def test_ingest_two_sections_of_different_sizes():
    text = _raw_text("a", range(300), [40] * 300) + _raw_text("b", range(299), [30] * 299)
    logs = ingest_raw_log(text)
    assert [len(l.records) for l in logs] == [300, 299]


def test_ingest_serialize_round_trip():
    text = _raw_text("x", [3, 4, 9], [10, 20, 30], noise="high")
    logs = ingest_raw_log(text)
    again = ingest_raw_log(write_raw_logs(logs))
    assert [(l.link_id, l.noise_level, l.records) for l in logs] == \
           [(l.link_id, l.noise_level, l.records) for l in again]


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.integers(0, 50), st.lists(st.integers(0, 128),
                                                       min_size=1, max_size=8)),
                min_size=1, max_size=4))
def test_ingest_round_trip_property(link_specs):
    logs = []
    for i, (start, values) in enumerate(link_specs):
        records = [(start + j, float(v)) for j, v in enumerate(values)]
        logs.append(RawLinkLog(link_id=f"l{i}", records=records, noise_level="n"))
    again = ingest_raw_log(write_raw_logs(logs))
    assert [(l.link_id, l.noise_level, l.records) for l in logs] == \
           [(l.link_id, l.noise_level, l.records) for l in again]


def test_filter_complete_keeps_gap_free_runs():
    schema = TraceSchema(expected_length=300)
    good = RawLinkLog("good", [(i, 40.0) for i in range(300)])
    gap = RawLinkLog("gap", [(i, 40.0) for i in range(300) if i != 150]
                     + [(300, 40.0)])
    short = RawLinkLog("short", [(i, 40.0) for i in range(299)])
    traces = filter_complete([good, gap, short], schema)
    assert [t.link_id for t in traces] == ["good"]
    assert traces[0].length == 300


def test_filter_complete_counts():
    schema = TraceSchema(expected_length=10)
    rng = np.random.default_rng(0)
    logs = []
    dropped = 0
    for i in range(10):
        seqs = list(range(10))
        if i < 3:
            seqs[5] = 99  # breaks the gap-free run
            dropped += 1
        logs.append(RawLinkLog(f"l{i}", [(s, 20.0) for s in seqs]))
    kept = filter_complete(logs, schema)
    assert len(kept) == 10 - dropped
    # brute-force gap scan agrees
    expected = sum(1 for log in logs
                   if len(log.records) == 10
                   and all(log.records[k + 1][0] - log.records[k][0] == 1
                           for k in range(9)))
    assert len(kept) == expected


def test_filter_accepts_nonzero_start():
    schema = TraceSchema(expected_length=5)
    log = RawLinkLog("l", [(i, 10.0) for i in range(7, 12)])
    assert len(filter_complete([log], schema)) == 1


# ---------------------------------------------------------------------------
# synthesis

def test_synthesize_deterministic():
    schema = TraceSchema(expected_length=50)
    a = synthesize_clean(5, schema, np.random.default_rng(7))
    b = synthesize_clean(5, schema, np.random.default_rng(7))
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta.samples, tb.samples)


def test_synthesize_zero_jitter_constant_traces():
    schema = TraceSchema(expected_length=20)
    profile = SynthesisProfile(jitter=0)
    traces = synthesize_clean(4, schema, np.random.default_rng(1), profile)
    for t in traces:
        assert np.unique(t.samples).size == 1


def test_synthesize_range_scan():
    schema = TraceSchema(expected_length=30)
    profile = SynthesisProfile(baseline_range=(20, 60), jitter=2)
    traces = synthesize_clean(1000, schema, np.random.default_rng(3), profile)
    lo = min(t.samples.min() for t in traces)
    hi = max(t.samples.max() for t in traces)
    assert lo >= max(20 - 2, schema.rssi_min)
    assert hi <= min(60 + 2, schema.rssi_max)


def test_synthesize_rejects_bad_config():
    with pytest.raises(ConfigError):
        SynthesisProfile(baseline_range=(60, 20))
    with pytest.raises(ConfigError):
        synthesize_clean(0, TraceSchema(), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# normalization

def test_normalize_bounds_and_midpoint():
    schema = TraceSchema(expected_length=3, rssi_min=0, rssi_max=128)
    trace = RssiTrace("t", np.array([0.0, 64.0, 128.0]))
    np.testing.assert_array_equal(normalize(trace, schema), [0.0, 0.5, 1.0])


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 128), min_size=2, max_size=30))
def test_normalize_is_monotone(values):
    trace = RssiTrace("t", np.array(values, dtype=float))
    feats = normalize(trace, TraceSchema(expected_length=len(values)))
    order = np.argsort(trace.samples, kind="stable")
    assert np.all(np.diff(feats[order]) >= 0)


def test_normalize_rejects_out_of_schema_trace():
    trace = RssiTrace("t", np.array([10.0, 300.0]))
    with pytest.raises(SchemaError):
        normalize(trace, TraceSchema(expected_length=2))


# ---------------------------------------------------------------------------
# CSV round trip

def test_traces_csv_round_trip(tmp_path):
    schema = TraceSchema(expected_length=15)
    traces = synthesize_clean(3, schema, np.random.default_rng(2))
    path = tmp_path / "traces.csv"
    write_traces_csv(path, traces)
    loaded = read_traces_csv(path)
    assert [t.link_id for t in loaded] == [t.link_id for t in traces]
    for a, b in zip(traces, loaded):
        np.testing.assert_array_equal(a.samples, b.samples)


def test_traces_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2,3\n")
    with pytest.raises(ParseError):
        read_traces_csv(path)


def test_traces_csv_rejects_concatenated_files(tmp_path):
    # two files of 50 and 60 samples for the same link, header dropped from
    # the second: the repeated index 0 is reported at its line
    rows = [f"a,{i},40" for i in range(50)] + [f"a,{i},41" for i in range(60)]
    path = tmp_path / "joined.csv"
    path.write_text("link_id,idx,rssi\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="line 52: link a repeats index 0"):
        read_traces_csv(path)


@pytest.mark.parametrize("indices", [
    [0, 1, 3],    # gap: index 2 missing
    [1, 2, 3],    # does not start at 0
    [0, 1, -1],   # negative
])
def test_traces_csv_rejects_indices_not_0_to_n(tmp_path, indices):
    path = tmp_path / "gappy.csv"
    path.write_text("link_id,idx,rssi\n"
                    + "".join(f"b,{i},30\n" for i in indices))
    with pytest.raises(ParseError, match="line 4: link b has 3 rows"):
        read_traces_csv(path)


def test_traces_csv_accepts_rows_in_any_order(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("link_id,idx,rssi\nc,2,12\nd,0,5\nc,0,10\nd,1,6\nc,1,11\n")
    loaded = read_traces_csv(path)
    assert [t.link_id for t in loaded] == ["c", "d"]
    np.testing.assert_array_equal(loaded[0].samples, [10, 11, 12])
    np.testing.assert_array_equal(loaded[1].samples, [5, 6])


def test_schema_validation():
    with pytest.raises(SchemaError):
        TraceSchema(rssi_min=10, rssi_max=10)
    with pytest.raises(SchemaError):
        TraceSchema(expected_length=1)
