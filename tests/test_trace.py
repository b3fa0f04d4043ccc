import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssigat.trace import (ConfigError, ParseError, RawLinkLog, RssiTrace,
                           SchemaError, SynthesisProfile, TraceError, TraceSchema,
                           _read_traces_csv_by_line, _read_traces_csv_in_bulk,
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


def test_traces_csv_rejects_one_row_link(tmp_path):
    path = tmp_path / "single.csv"
    path.write_text("link_id,idx,rssi\na,0,1\na,1,2\nb,0,5\n")
    with pytest.raises(ParseError, match="line 4: link b has 1 row"):
        read_traces_csv(path)


def test_traces_csv_writes_exact_text(tmp_path):
    """Integral values print as integers (so -0.0 loses its sign), others
    as their shortest round-tripping repr."""
    path = tmp_path / "edge.csv"
    values = [-0.0, 2.0**53, 1e16, 1e17, 0.1 + 0.2, 5e-324, 1e300,
              np.inf, np.nan]
    write_traces_csv(path, [RssiTrace("w", np.array(values))])
    assert path.read_text().splitlines() == [
        "link_id,idx,rssi",
        "w,0,0",
        "w,1,9007199254740992",
        "w,2,10000000000000000",
        "w,3,100000000000000000",
        "w,4,0.30000000000000004",
        "w,5,5e-324",
        "w,6,1000000000000000052504760255204420248704468581108159154915854115"
        "511802457988908195786371375080447864043704443832883878176942523235360"
        "430575644792184786706982848387200926575803737830233794788090059368953"
        "234970799945081119038967640880074652742780142494579258788820056842838"
        "115669472196386865459400540160",
        "w,7,inf",
        "w,8,nan",
    ]


def test_traces_csv_link_straddles_chunks(tmp_path):
    """A file of several read chunks, with link b across the first chunk
    boundary and link a's last rows after it, is read in bulk."""
    n = 200_000
    a_rows = "".join(f"a,{i},40.5\n" for i in range(n))
    b_rows = "".join(f"b,{i},{i % 97}\n" for i in range(n))
    head = "link_id,idx,rssi\n" + a_rows
    assert len(head) < 1 << 22 < len(head) + len(b_rows)
    path = tmp_path / "big.csv"
    path.write_text(head + b_rows + "".join(f"a,{i},7\n" for i in range(n, n + 3)))
    bulk = _read_traces_csv_in_bulk(path)
    assert bulk is not None
    assert [t.link_id for t in bulk] == ["a", "b"]
    np.testing.assert_array_equal(bulk[0].samples, [40.5] * n + [7.0] * 3)
    np.testing.assert_array_equal(bulk[1].samples, np.arange(n) % 97)
    assert _outcome(read_traces_csv, path) == _outcome(_read_traces_csv_by_line, path)


@pytest.mark.filterwarnings("error")
def test_traces_csv_blank_body_reads_empty_without_warning(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("link_id,idx,rssi\n\n\n")
    assert read_traces_csv(path) == []


def _outcome(read, path):
    """What a reader makes of a file: link ids and sample bytes, or the
    exception's type and message."""
    try:
        traces = read(path)
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)
    return [(t.link_id, t.samples.tobytes()) for t in traces]


# link ids that one reader could split differently: whitespace around them
_IDS = st.sampled_from(["a", "b", " a", "a ", "\tb", ""])
_NUMBERS = st.integers(0, 128).map(str) | st.floats().map(repr)
_ODD_VALUES = st.sampled_from(["-0", "+.5", " 3 ", "1.", "1e999", "-nan",
                               "infinity", "-Infinity", "1_0", "١", "٣.٥",
                               "0x10", "junk", ""])
_EXTRA_LINES = st.text(max_size=6) | st.sampled_from(
    ["", "   ", "\t", "a,1", "a,0,1,2", ",,", "a,0,1 2", "b,-1,3"])


def _odd_indices(i):
    """``i`` as only Python's ``int`` spells it, or as neither reader
    does, or another index."""
    return st.sampled_from([f"+{i}", f" {i} ", f"0{i}", f"0_{i}",
                            chr(0x660 + i), f"{i}.0", str(i + 3)])


@st.composite
def _csv_bodies(draw):
    """A trace CSV of up to three links of 1-4 rows, shuffled, with up to
    two fields spelled oddly and up to two extra lines. An id that strips to
    another link's id repeats its indices."""
    rows = [[link_id, i, str(i), draw(_NUMBERS)]
            for link_id in draw(st.lists(_IDS, max_size=3, unique=True))
            for i in range(draw(st.sampled_from([2, 3, 4, 1])))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row[2] = draw(_odd_indices(row[1]))
        else:
            row[3] = draw(_ODD_VALUES)
    lines = draw(st.permutations([f"{r[0]},{r[2]},{r[3]}" for r in rows]))
    for pos, line in draw(st.lists(st.tuples(st.integers(0, len(lines)),
                                             _EXTRA_LINES), max_size=2)):
        lines.insert(pos, line)
    end = draw(st.sampled_from(["", "\n"]))
    return "link_id,idx,rssi\n" + "\n".join(lines) + end


@pytest.fixture(scope="module")
def diff_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("diff") / "traces.csv"


@settings(deadline=None, max_examples=400)
@given(_csv_bodies())
def test_read_traces_csv_matches_line_reader(diff_csv, body):
    """The bulk reader, with its fall-back, gives what the line reader
    gives: the same traces, or the same error at the same line."""
    diff_csv.write_bytes(body.encode())
    assert _outcome(read_traces_csv, diff_csv) == \
        _outcome(_read_traces_csv_by_line, diff_csv)


def test_schema_validation():
    with pytest.raises(SchemaError):
        TraceSchema(rssi_min=10, rssi_max=10)
    with pytest.raises(SchemaError):
        TraceSchema(expected_length=1)


# ---------------------------------------------------------------------------
# garbage in: only the module's typed errors escape

_LINES = st.lists(st.text(max_size=12) | st.sampled_from(
    ["# link a noise=0", "# link b noise=x", "0,40", "1,41", "1,nan",
     "a,0,40", "a,1,-3", "b,0,1e999", "link_id,idx,rssi"]), max_size=8)


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "traces.csv"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(st.binary(max_size=64)
       | _LINES.map(lambda lines: "\n".join(lines).encode())
       | _LINES.map(lambda lines: "\n".join(["link_id,idx,rssi", *lines]).encode())
       | st.tuples(_LINES, st.binary(min_size=1, max_size=3)).map(
           lambda t: ("link_id,idx,rssi\na,0,40\n" + "\n".join(t[0])).encode()
           + t[1]))
def test_read_traces_csv_raises_only_trace_error(fuzz_csv, content):
    """Arbitrary bytes, or a trace CSV with arbitrary rows, either read back
    or raise a TraceError."""
    fuzz_csv.write_bytes(content)
    try:
        traces = read_traces_csv(fuzz_csv)
    except TraceError:
        return
    assert all(t.samples.ndim == 1 and t.length >= 2 for t in traces)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(st.text(max_size=64) | _LINES.map("\n".join))
def test_ingest_raw_log_raises_only_trace_error(text):
    """Arbitrary text, or arbitrary lines among link headers and records,
    either parses or raises a TraceError."""
    try:
        logs = ingest_raw_log(text)
    except TraceError:
        return
    for log in logs:
        seqs = [seq for seq, _ in log.records]
        assert seqs == sorted(set(seqs))
