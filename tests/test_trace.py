import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rssigat.trace import (BASELINE_RANGE, JITTER, ConfigError, ParseError,
                           RssiTrace, SchemaError, TraceError, TraceSchema,
                           _read_traces_csv_by_line, _read_traces_csv_in_bulk,
                           ingest_raw_log, normalize, open_output,
                           read_traces_csv, synthesize_clean, write_traces_csv)
from oracles import complete_links_reference, traces_csv_reference, write_raw_logs


def _raw_text(link_id, seqs, rssis, noise="0"):
    lines = [f"# link {link_id} noise={noise}"]
    lines.extend(f"{s},{int(r)}" for s, r in zip(seqs, rssis))
    return "\n".join(lines) + "\n"


def test_ingest_single_link():
    text = _raw_text("a", range(300), [40] * 300)
    traces, n_links = ingest_raw_log(text)
    assert n_links == 1
    assert [t.link_id for t in traces] == ["a"]
    assert traces[0].length == 300


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


def test_ingest_rejects_link_id_with_comma():
    """A comma in a link id would split its trace-CSV rows into four fields."""
    text = _raw_text("ok", range(2), [40, 41]) + _raw_text("a,b", range(2), [50, 51])
    with pytest.raises(ParseError, match="^line 4: link id 'a,b' contains a comma$"):
        ingest_raw_log(text, TraceSchema(expected_length=2))


@pytest.mark.parametrize("first_kept", [True, False])
def test_ingest_rejects_a_repeated_link_id(first_kept):
    """Two sections of one link would give one trace two runs of indices, a
    trace file nothing reads; the first may have been kept or dropped."""
    first = _raw_text("a", range(2) if first_kept else [0, 5], [40, 41])
    text = first + _raw_text("b", range(2), [50, 51]) + _raw_text("a", range(2), [42, 43])
    with pytest.raises(ParseError, match="^line 7: link id 'a' repeats an earlier header$"):
        ingest_raw_log(text, TraceSchema(expected_length=2))


def test_ingest_rejects_nonincreasing_sequence():
    with pytest.raises(ParseError):
        ingest_raw_log("# link a noise=0\n5,40\n5,41\n")


def test_ingest_two_sections_of_different_sizes():
    # each section's records end at the next header, whichever length is kept
    text = _raw_text("a", range(300), [40] * 300) + _raw_text("b", range(299), [30] * 299)
    for length, kept, value in ((300, "a", 40.0), (299, "b", 30.0)):
        traces, n_links = ingest_raw_log(text, TraceSchema(expected_length=length))
        assert n_links == 2
        assert [t.link_id for t in traces] == [kept]
        assert traces[0].length == length
        assert np.all(traces[0].samples == value)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.data())
def test_ingest_round_trip_property(expected_length, data):
    """Links with random starts, lengths and gaps keep exactly the gap-free
    runs of the expected length, with their samples."""
    n = expected_length
    logs = []
    for i in range(data.draw(st.integers(1, 5))):
        length = data.draw(st.sampled_from([0, n - 1, n, n, n + 1]))
        # mostly unit steps, so that about half the full-length links are kept
        steps = data.draw(st.lists(st.sampled_from([1] * 8 + [2, 7]),
                                   min_size=length, max_size=length))
        seqs = data.draw(st.integers(0, 50)) + np.cumsum(steps) - steps[:1]
        values = data.draw(st.lists(st.integers(0, 128) | st.floats(0, 128),
                                    min_size=length, max_size=length))
        logs.append((f"l{i}", "n", list(zip(seqs.tolist(), values))))
    traces, n_links = ingest_raw_log(write_raw_logs(logs), TraceSchema(expected_length=n))
    expected = complete_links_reference(logs, n)
    assert n_links == len(logs)
    assert [t.link_id for t in traces] == [link_id for link_id, _ in expected]
    for trace, (_, samples) in zip(traces, expected):
        assert trace.samples.tobytes() == samples.tobytes()


def test_ingest_keeps_gap_free_runs():
    good = ("good", "0", [(i, 40.0) for i in range(300)])
    gap = ("gap", "0", [(i, 40.0) for i in range(300) if i != 150] + [(300, 40.0)])
    short = ("short", "0", [(i, 40.0) for i in range(299)])
    traces, n_links = ingest_raw_log(write_raw_logs([good, gap, short]),
                                     TraceSchema(expected_length=300))
    assert n_links == 3
    assert [t.link_id for t in traces] == ["good"]
    assert traces[0].length == 300


def test_ingest_counts_complete_links():
    logs = []
    for i in range(10):
        seqs = list(range(10))
        if i < 3:
            seqs[9] = 99  # breaks the gap-free run
        logs.append((f"l{i}", "0", [(s, 20.0) for s in seqs]))
    traces, n_links = ingest_raw_log(write_raw_logs(logs),
                                     TraceSchema(expected_length=10))
    assert n_links == 10
    assert len(traces) == 7
    # brute-force gap scan agrees
    assert [t.link_id for t in traces] == \
           [link_id for link_id, _ in complete_links_reference(logs, 10)]


def test_filter_accepts_nonzero_start():
    log = ("l", "0", [(i, 10.0) for i in range(7, 12)])
    traces, _ = ingest_raw_log(write_raw_logs([log]), TraceSchema(expected_length=5))
    assert len(traces) == 1


# ---------------------------------------------------------------------------
# synthesis

def test_synthesize_deterministic():
    schema = TraceSchema(expected_length=50)
    a = synthesize_clean(5, schema, np.random.default_rng(7))
    b = synthesize_clean(5, schema, np.random.default_rng(7))
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta.samples, tb.samples)


def test_synthesize_range_scan():
    schema = TraceSchema(expected_length=30)
    traces = synthesize_clean(1000, schema, np.random.default_rng(3))
    assert (BASELINE_RANGE, JITTER) == ((20, 60), 2)
    lo = min(t.samples.min() for t in traces)
    hi = max(t.samples.max() for t in traces)
    assert (lo, hi) == (20 - 2, 60 + 2)


def test_synthesize_rejects_bad_config():
    for count in (0, -1):
        with pytest.raises(ConfigError, match="count must be >= 1"):
            synthesize_clean(count, TraceSchema(), np.random.default_rng(0))


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


_EDGE_SAMPLES = [0.0, -0.0, 2.0**53, -2.0**53, 2.0**62, np.nextafter(2.0**62, 0),
                 np.nextafter(2.0**62, np.inf), -2.0**62, 2.0**63, -2.0**63,
                 1e300, 5e-324, np.inf, -np.inf, np.nan, 57.25]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.lists(st.floats() | st.integers(-2**65, 2**65).map(float)
                         | st.sampled_from(_EDGE_SAMPLES), min_size=2, max_size=40),
                max_size=3))
@example([_EDGE_SAMPLES])
@example([[v, v] for v in _EDGE_SAMPLES])
@example([[57.0, 57.25, 57.5, 58.0], [40.0] * 5])
def test_traces_csv_writes_reference_text(tmp_path_factory, samples):
    """Any float64 samples are written as the per-sample reference writes
    them, whichever are integral, fractional, huge or not finite."""
    traces = [RssiTrace(f"l{k}", np.array(s)) for k, s in enumerate(samples)]
    path = tmp_path_factory.mktemp("csv") / "traces.csv"
    write_traces_csv(path, traces)
    assert path.read_text(encoding="utf-8") == traces_csv_reference(traces)


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


@pytest.mark.parametrize("bounds", [
    (float("nan"), 128.0), (0.0, float("nan")), (0.0, float("inf")),
    (-float("inf"), 128.0), (float("nan"), float("nan")),
])
def test_schema_rejects_non_finite_bounds(bounds):
    """A NaN bound would put drops at NaN, and an infinite one would
    normalize every sample to 0."""
    with pytest.raises(SchemaError, match="^rssi_min and rssi_max must be finite$"):
        TraceSchema(30, *bounds)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("samples", [
    [40.0, _NAN, 200.0], [-5.0, 40.0, _NAN], [_NAN, _NAN],
    [40.0, _INF], [-_INF, 40.0], [_INF, -_INF], [_INF, 40.0, -1.0],
])
def test_validate_reports_a_non_finite_sample_first(samples):
    """Any NaN or infinity gives "non-finite sample", also beside a finite
    sample outside the bounds, wherever it sits in the trace."""
    with pytest.raises(SchemaError, match="^trace t: non-finite sample$"):
        RssiTrace("t", samples).validate(TraceSchema(rssi_min=10.0, rssi_max=100.0))


@pytest.mark.parametrize("samples", [
    [40.0, 100.5], [9.5, 40.0], [np.nextafter(10.0, 0.0), 40.0], [-1e300, 1e300],
])
def test_validate_reports_a_finite_sample_outside_the_bounds(samples):
    with pytest.raises(SchemaError,
                       match=r"^trace t: sample outside \[10\.0, 100\.0\]$"):
        RssiTrace("t", samples).validate(TraceSchema(rssi_min=10.0, rssi_max=100.0))


@pytest.mark.parametrize("samples", [[10.0, 100.0], [100.0, 10.0, 55.5], [10.0, 10.0]])
def test_validate_passes_samples_on_the_bounds(samples):
    RssiTrace("t", samples).validate(TraceSchema(rssi_min=10.0, rssi_max=100.0))


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
    either parses or raises a TraceError; a parsed log keeps only links of
    the expected length with samples inside the bounds."""
    schema = TraceSchema(expected_length=2)
    try:
        traces, n_links = ingest_raw_log(text, schema)
    except TraceError:
        return
    assert len(traces) <= n_links
    for trace in traces:
        assert trace.length == 2
        trace.validate(schema)


def test_open_output_writes_whole_files_or_none(tmp_path):
    """A block that ends normally replaces the file; one that raises, or an
    output that cannot be unlinked, keeps the old bytes; an existing
    ``<path>.partial`` is never overwritten. No temporary file is left."""
    out = tmp_path / "out.txt"
    with open_output(out) as fh:
        fh.write("first\n")
    with pytest.raises(ValueError):
        with open_output(out) as fh:
            fh.write("sec")
            raise ValueError
    assert out.read_text() == "first\n"
    with open_output(out, binary=True) as fh:
        fh.write(b"\x00second")
    assert out.read_bytes() == b"\x00second"
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):
        with open_output(tmp_path / "dir") as fh:
            fh.write("not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "out.txt"]
    partial = tmp_path / "out.txt.partial"
    partial.write_text("an input\n")
    with pytest.raises(FileExistsError):
        with open_output(out) as fh:
            fh.write("third\n")
    assert partial.read_text() == "an input\n"
    assert out.read_bytes() == b"\x00second"
