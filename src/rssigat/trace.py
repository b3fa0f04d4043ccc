"""RSSI trace types, raw-log ingestion, synthesis and normalization.

A synthetic clean trace is a per-link baseline in ``BASELINE_RANGE`` plus
integer jitter of at most ``JITTER`` per sample, both module constants. Raw
link logs are UTF-8 text: a header line ``# link <id> noise=<label>``
followed by one ``<seq>,<rssi>`` record per line. They are read in one pass
that keeps only the traces of links without packet loss; the noise label is
required but not kept. Trace files are CSV with header ``link_id,idx,rssi``.
"""
from __future__ import annotations

import io
import json
import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class TraceError(Exception):
    pass


class ParseError(TraceError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(TraceError):
    pass


class ConfigError(TraceError):
    pass


@dataclass(frozen=True)
class TraceSchema:
    """Conventions of a measurement campaign: trace length and value bounds."""

    expected_length: int = 300
    rssi_min: float = 0.0
    rssi_max: float = 128.0

    def __post_init__(self):
        if not np.isfinite([self.rssi_min, self.rssi_max]).all():
            raise SchemaError("rssi_min and rssi_max must be finite")
        if self.rssi_min >= self.rssi_max:
            raise SchemaError("rssi_min must be below rssi_max")
        if self.expected_length < 2:
            raise SchemaError("expected_length must be >= 2")


DEFAULT_SCHEMA = TraceSchema()


@dataclass
class RssiTrace:
    """One link's fixed-length RSSI sample sequence."""

    link_id: str
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise TraceError("a trace needs a 1-D sample array of length >= 2")

    @property
    def length(self) -> int:
        return int(self.samples.size)

    def validate(self, schema: TraceSchema) -> None:
        """SchemaError for a non-finite sample or, failing that, for one
        outside the schema's bounds. The bounds are finite, so a NaN or an
        infinity fails the bound test on the samples' minimum and maximum;
        only then are the samples scanned for a non-finite one."""
        samples = self.samples
        if not (schema.rssi_min <= np.minimum.reduce(samples)
                and np.maximum.reduce(samples) <= schema.rssi_max):
            if not np.isfinite(samples).all():
                raise SchemaError(f"trace {self.link_id}: non-finite sample")
            raise SchemaError(
                f"trace {self.link_id}: sample outside "
                f"[{schema.rssi_min}, {schema.rssi_max}]")


def ingest_raw_log(source, schema: TraceSchema = DEFAULT_SCHEMA
                   ) -> tuple[list[RssiTrace], int]:
    """Parse raw link-log text (a string or text stream) in one pass into
    ``(traces, n_links)``: the trace of every link without packet loss, and
    the number of link sections read.

    A link is kept when its sequence numbers form a gap-free run of the
    expected length. They must increase strictly, so that holds exactly
    when the last minus the first is the record count minus one: only the
    RSSI values and those two numbers are kept per link. The noise label a
    header must carry is not kept. Raises ParseError with the offending line
    number for malformed input, including a header whose link id an earlier
    header used, kept or not, and SchemaError for out-of-range RSSI values.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    traces: list[RssiTrace] = []
    seen: set[str] = set()  # every link id read, one per section
    link_id, values, first, last = None, [], 0, 0

    def keep_if_complete():
        if len(values) == schema.expected_length and last - first == len(values) - 1:
            traces.append(RssiTrace(link_id=link_id, samples=np.array(values)))

    for line_no, line in enumerate(source, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            fields = text[1:].split()
            if len(fields) != 3 or fields[0] != "link" or not fields[2].startswith("noise="):
                raise ParseError(line_no, f"malformed link header {text!r}")
            if "," in fields[1]:
                raise ParseError(line_no, f"link id {fields[1]!r} contains a comma")
            if fields[1] in seen:
                raise ParseError(line_no, f"link id {fields[1]!r} repeats an earlier header")
            seen.add(fields[1])
            keep_if_complete()
            link_id, values = fields[1], []
            continue
        if link_id is None:
            raise ParseError(line_no, "record before any link header")
        parts = text.split(",")
        if len(parts) != 2 or not _plain_numbers(parts):
            raise ParseError(line_no, f"malformed record {text!r}")
        try:
            seq = int(parts[0])
            rssi = float(parts[1])
        except ValueError:
            raise ParseError(line_no, f"malformed record {text!r}") from None
        if values and seq <= last:
            raise ParseError(line_no, f"sequence number {seq} not increasing")
        if not (schema.rssi_min <= rssi <= schema.rssi_max):
            raise SchemaError(
                f"line {line_no}: rssi {rssi} outside "
                f"[{schema.rssi_min}, {schema.rssi_max}]")
        if not values:
            first = seq
        values.append(rssi)
        last = seq
    keep_if_complete()
    return traces, len(seen)


def _plain_numbers(fields) -> bool:
    """False when a field holds number syntax that Python's ``int`` and
    ``float`` read but trace files and raw logs do not allow, nor numpy's
    reader of trace files: a digit separator ``_``, or a non-ASCII digit such
    as an Arabic-Indic or full-width one. Whitespace around a number, which
    all of them strip, is allowed."""
    return all("_" not in f and f.strip().isascii() for f in fields)


BASELINE_RANGE = (20, 60)
JITTER = 2


def synthesize_clean(count: int, schema: TraceSchema = DEFAULT_SCHEMA,
                     rng: np.random.Generator | None = None) -> list[RssiTrace]:
    """``count`` clean traces: a baseline in ``BASELINE_RANGE`` per link plus
    jitter of at most ``JITTER`` per sample, clamped to the schema bounds.
    Deterministic for a fixed generator state."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    lo, hi = BASELINE_RANGE
    n = schema.expected_length
    baselines = rng.integers(lo, hi + 1, size=count)
    jitter = rng.integers(-JITTER, JITTER + 1, size=(count, n))
    values = np.clip(baselines[:, None] + jitter, schema.rssi_min, schema.rssi_max)
    return [RssiTrace(link_id=f"synth-{i:05d}", samples=values[i].astype(np.float64))
            for i in range(count)]


def normalize(trace: RssiTrace, schema: TraceSchema = DEFAULT_SCHEMA) -> np.ndarray:
    """Min-max scale samples to [0, 1] using the schema bounds."""
    trace.validate(schema)
    return (trace.samples - schema.rssi_min) / (schema.rssi_max - schema.rssi_min)


@contextmanager
def open_utf8(path):
    """``path`` opened as UTF-8 text. Bytes that are not UTF-8 raise
    ParseError naming the path and the first line that holds them."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:  # a line that is not UTF-8 loses bytes
            line_no = next((n for n, raw in enumerate(fh, start=1)
                            if raw.decode("utf-8", "ignore").encode() != raw), 0)
        raise ParseError(line_no, f"{path} is not UTF-8 text") from None


@contextmanager
def open_output(path, binary: bool = False):
    """A new file ``<path>.partial`` opened for writing, UTF-8 text or bytes,
    that becomes ``path`` when the block ends without an exception.

    The temporary file is created exclusively, so an existing file of that
    name (an input, or the leftover of a killed run) is never overwritten:
    the call raises FileExistsError instead. It gets the permissions a new
    file gets. On success the old ``path`` is unlinked, whatever its mode
    (a symlink is replaced, its target untouched), and the temporary file is
    renamed onto it. An exception before the unlink removes the temporary
    file, and ``path`` keeps its old bytes.
    """
    path = os.fspath(path)
    partial = path + ".partial"
    fh = open(partial, "xb") if binary else open(partial, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        # Unlink first: on ext4, truncating a file in place or renaming over
        # one starts a writeback of the replaced file (most likely
        # auto_da_alloc) that makes rewriting an output several times slower;
        # a rename onto a free name does not.
        with suppress(FileNotFoundError):
            os.unlink(path)
    except BaseException:
        os.unlink(partial)
        raise
    os.rename(partial, path)


def write_json_lines(path, items, to_line) -> None:
    """``to_line`` of each item, a JSON line with its newline, through
    ``open_output``. Each line is written as soon as it is encoded, so the
    file's text is never held whole."""
    with open_output(path) as fh:
        for item in items:
            fh.write(to_line(item))


# Most distinct values a trace may have, and so most rows of its class graph;
# ``mtf_graph`` enforces it. Every graph's node map lies below it.
ROW_CAP = 1024

# "0" to "1023", the decimal strings of every integer below ``ROW_CAP``: the
# node map of any graph ``transform`` makes, and the integral samples of
# traces in the default bounds, print by lookup. The one table for every
# writer, an object array so that one fancy index looks a whole array up.
_INT_TEXT = np.array([str(i) for i in range(ROW_CAP)], dtype=object)
_INT_TEXT.flags.writeable = False


def _int_texts(values: np.ndarray) -> list[str] | None:
    """The decimal strings of ``values`` from ``_INT_TEXT``, or None unless
    ``values`` is non-empty and each value an integer in [0, ROW_CAP) whose
    sign bit is clear: -0.0, which JSON prints as ``-0.0``, is refused. The
    range is checked before the cast to intp, which warns on a value it
    cannot hold."""
    if not (values.size and not np.signbit(values).any()
            and np.maximum.reduce(values) < _INT_TEXT.size):  # False for nan
        return None
    ints = values.astype(np.intp)
    return _INT_TEXT[ints].tolist() if np.equal(ints, values).all() else None


def json_list_text(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())`` of a 1-D integer or float array. An
    array of integers in [0, ROW_CAP) is joined from one table lookup, each
    float with the ``.0`` its repr ends in; any other goes through
    ``json.dumps``."""
    texts = _int_texts(values)
    if texts is None:
        return json.dumps(values.tolist())
    if values.dtype.kind == "f":
        return "[" + ".0, ".join(texts) + ".0]"
    return "[" + ", ".join(texts) + "]"


def json_numbers(seq, message: str) -> np.ndarray:
    """A JSON list of ints and floats, not strings or booleans, as float64;
    ValueError(message) for anything else."""
    if not (isinstance(seq, list) and {*map(type, seq)} <= {int, float}):
        raise ValueError(message)
    return np.array(seq, dtype=np.float64)


def read_json_lines(path, from_record, error: type[Exception]) -> list:
    """``from_record`` of each non-blank line's JSON value. A line that is
    not UTF-8 JSON, or an ``error`` from ``from_record``, raises ``error``
    naming ``path:line``."""
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(from_record(json.loads(line.decode("utf-8"))))
                except (error, ValueError, RecursionError) as exc:
                    raise error(f"{path}:{lineno}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# trace CSV: header line then one row per sample

_CSV_HEADER = "link_id,idx,rssi"
_CSV_ROW = np.dtype([("link_id", object), ("idx", np.int64), ("rssi", np.float64)])


def write_traces_csv(path, traces: list[RssiTrace]) -> None:
    """Write traces as CSV, one ``write`` per trace, as each is formatted.
    An integral sample prints as an integer, any other as its shortest
    round-tripping repr."""
    with open_output(path) as fh:
        fh.write(_CSV_HEADER + "\n")
        for t in traces:
            fh.write(_csv_rows(t.link_id, t.samples))


def _csv_rows(link_id: str, samples: np.ndarray) -> str:
    """A trace's CSV rows as one string. Samples that are all integers in
    [0, ROW_CAP) take their rssi column from one lookup in ``_INT_TEXT``;
    any other trace's samples are formatted one by one, an integral one as
    its int."""
    n = samples.size
    fields = [link_id] * (4 * n)
    fields[1::4] = _index_fields(n)
    fields[2::4] = _int_texts(samples) or [
        repr(int(v) if v.is_integer() else v) for v in samples.tolist()]
    fields[3::4] = ["\n"] * n
    return "".join(fields)


@lru_cache(maxsize=16)
def _index_fields(n: int) -> tuple[str, ...]:
    """``",0,"`` to ``",n-1,"``: the index column with its separators."""
    return tuple(f",{i}," for i in range(n))


def read_traces_csv(path) -> list[RssiTrace]:
    """Read a trace CSV; a link's n >= 2 rows carry the indices 0..n-1 in any
    order. Well-formed files are parsed in bulk; any other file is re-read
    line by line, which names the first line at fault."""
    traces = _read_traces_csv_in_bulk(path)
    return traces if traces is not None else _read_traces_csv_by_line(path)


def _read_traces_csv_in_bulk(path) -> list[RssiTrace] | None:
    """The traces of a well-formed trace CSV, parsed by numpy's C reader in
    chunks of ~4 MB; None for a file that it, or the index check, rejects.
    Only each chunk's link-id runs are looked up, so a link's rows cost no
    Python work once its id is known."""
    code_of: dict[str, int] = {}
    codes, idx, rssi = [], [], []
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            if fh.readline().strip() != _CSV_HEADER:
                return None
            while lines := fh.readlines(1 << 22):
                rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                                  dtype=_CSV_ROW)
                if not rows.size:
                    continue
                # the line reader strips each line, so "  a,0,1" is link "a"
                ids = rows["link_id"]
                heads = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))
                run_codes = [code_of.setdefault(ids[h].lstrip(), len(code_of))
                             for h in heads]
                codes.append(np.repeat(run_codes, np.diff(heads, append=ids.size)))
                idx.append(rows["idx"].copy())
                rssi.append(rows["rssi"].copy())
    except ValueError:  # loadtxt's malformed rows, and UnicodeDecodeError
        return None
    if not codes:
        return []
    codes, idx, rssi = (np.concatenate(a) for a in (codes, idx, rssi))
    order = np.lexsort((idx, codes))
    counts = np.bincount(codes)
    expected = np.arange(idx.size)
    expected -= np.repeat(np.cumsum(counts) - counts, counts)
    if counts.min() < 2 or not np.array_equal(idx[order], expected):
        return None
    samples = np.split(rssi[order], np.cumsum(counts)[:-1])
    return [RssiTrace(link_id=link_id, samples=s)
            for link_id, s in zip(code_of, samples)]


def _read_traces_csv_by_line(path) -> list[RssiTrace]:
    """Read a trace CSV one line at a time, raising ParseError at the first
    line at fault."""
    rows: dict[str, dict[int, tuple[float, int]]] = {}
    with open_utf8(path) as fh:
        header = fh.readline().strip()
        if header != _CSV_HEADER:
            raise ParseError(1, f"unexpected header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 3 or not _plain_numbers(parts[1:]):
                raise ParseError(line_no, f"malformed row {text!r}")
            try:
                idx, rssi = int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(line_no, f"malformed row {text!r}") from None
            link = rows.setdefault(parts[0], {})
            if idx in link:
                raise ParseError(line_no, f"link {parts[0]} repeats index {idx}")
            link[idx] = (rssi, line_no)
    traces = []
    for link_id, link in rows.items():
        n = len(link)
        if n < 2:
            (_, line_no), = link.values()
            raise ParseError(line_no, f"link {link_id} has 1 row, "
                             f"a trace needs at least 2")
        for idx, (_, line_no) in link.items():
            if not 0 <= idx < n:
                raise ParseError(line_no, f"link {link_id} has {n} rows, "
                                 f"index {idx} is outside 0..{n - 1}")
        traces.append(RssiTrace(link_id=link_id,
                                samples=np.array([link[i][0] for i in range(n)])))
    return traces
