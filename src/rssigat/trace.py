"""RSSI trace types, raw-log ingestion, synthesis and normalization.

Raw link logs are UTF-8 text: a header line ``# link <id> noise=<label>``
followed by one ``<seq>,<rssi>`` record per line. Trace files are CSV with
header ``link_id,idx,rssi``.
"""
from __future__ import annotations

import io
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

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
        if not np.isfinite(self.samples).all():
            raise SchemaError(f"trace {self.link_id}: non-finite sample")
        if self.samples.min() < schema.rssi_min or self.samples.max() > schema.rssi_max:
            raise SchemaError(
                f"trace {self.link_id}: sample outside "
                f"[{schema.rssi_min}, {schema.rssi_max}]")


@dataclass
class RawLinkLog:
    """Parsed records of one link section: (sequence number, rssi) pairs."""

    link_id: str
    records: list[tuple[int, float]]
    noise_level: str = ""


def ingest_raw_log(source, schema: TraceSchema = DEFAULT_SCHEMA) -> list[RawLinkLog]:
    """Parse raw link-log text (a string or text stream) into per-link logs.

    Raises ParseError with the offending line number for malformed input and
    SchemaError for out-of-range RSSI values.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    logs: list[RawLinkLog] = []
    current: RawLinkLog | None = None
    last_seq: int | None = None
    for line_no, line in enumerate(source, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            fields = text[1:].split()
            if len(fields) != 3 or fields[0] != "link" or not fields[2].startswith("noise="):
                raise ParseError(line_no, f"malformed link header {text!r}")
            current = RawLinkLog(link_id=fields[1], records=[],
                                 noise_level=fields[2][len("noise="):])
            logs.append(current)
            last_seq = None
            continue
        if current is None:
            raise ParseError(line_no, "record before any link header")
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(line_no, f"malformed record {text!r}")
        try:
            seq = int(parts[0])
            rssi = float(parts[1])
        except ValueError:
            raise ParseError(line_no, f"malformed record {text!r}") from None
        if last_seq is not None and seq <= last_seq:
            raise ParseError(line_no, f"sequence number {seq} not increasing")
        if not (schema.rssi_min <= rssi <= schema.rssi_max):
            raise SchemaError(
                f"line {line_no}: rssi {rssi} outside "
                f"[{schema.rssi_min}, {schema.rssi_max}]")
        current.records.append((seq, rssi))
        last_seq = seq
    return logs


def filter_complete(logs: list[RawLinkLog],
                    schema: TraceSchema = DEFAULT_SCHEMA) -> list[RssiTrace]:
    """Keep only links whose sequence numbers form a gap-free run of the
    expected length; a gap means packet loss, and the link is dropped."""
    traces = []
    for log in logs:
        if len(log.records) != schema.expected_length:
            continue
        seqs = np.array([seq for seq, _ in log.records], dtype=np.int64)
        if np.any(np.diff(seqs) != 1):
            continue
        samples = np.array([rssi for _, rssi in log.records], dtype=np.float64)
        traces.append(RssiTrace(link_id=log.link_id, samples=samples))
    return traces


@dataclass(frozen=True)
class SynthesisProfile:
    """Clean-trace generator: per-link constant baseline plus integer jitter."""

    baseline_range: tuple[int, int] = (20, 60)
    jitter: int = 2

    def __post_init__(self):
        if self.baseline_range[0] > self.baseline_range[1]:
            raise ConfigError("empty baseline range")
        if self.jitter < 0:
            raise ConfigError("jitter must be >= 0")


DEFAULT_PROFILE = SynthesisProfile()


def synthesize_clean(count: int, schema: TraceSchema = DEFAULT_SCHEMA,
                     rng: np.random.Generator | None = None,
                     profile: SynthesisProfile = DEFAULT_PROFILE) -> list[RssiTrace]:
    """Generate clean traces: baseline drawn per link, jitter drawn per sample,
    clamped to the schema bounds. Deterministic for a fixed generator state."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    lo, hi = profile.baseline_range
    n = schema.expected_length
    baselines = rng.integers(lo, hi + 1, size=count)
    jitter = rng.integers(-profile.jitter, profile.jitter + 1, size=(count, n))
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


# ---------------------------------------------------------------------------
# trace CSV: header line then one row per sample

_CSV_HEADER = "link_id,idx,rssi"
_CSV_ROW = np.dtype([("link_id", object), ("idx", np.int64), ("rssi", np.float64)])


def write_traces_csv(path, traces: list[RssiTrace]) -> None:
    """Write traces as CSV, one ``write`` per trace. An integral sample
    prints as an integer, any other as its shortest round-tripping repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER + "\n")
        for t in traces:
            fh.write("".join([f"{t.link_id},{i},{int(v) if v.is_integer() else v!r}\n"
                              for i, v in enumerate(t.samples.tolist())]))


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
            if len(parts) != 3:
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
