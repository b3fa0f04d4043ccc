"""RSSI trace types, raw-log ingestion, synthesis and normalization.

Raw link logs are UTF-8 text: a header line ``# link <id> noise=<label>``
followed by one ``<seq>,<rssi>`` record per line. Trace files are CSV with
header ``link_id,idx,rssi``.
"""
from __future__ import annotations

import io
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


# ---------------------------------------------------------------------------
# trace CSV: header line then one row per sample

def _fmt_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_traces_csv(path, traces: list[RssiTrace]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("link_id,idx,rssi\n")
        for t in traces:
            for i, v in enumerate(t.samples):
                fh.write(f"{t.link_id},{i},{_fmt_value(v)}\n")


def read_traces_csv(path) -> list[RssiTrace]:
    """Read a trace CSV; a link's n rows carry the indices 0..n-1 in any order."""
    rows: dict[str, dict[int, tuple[float, int]]] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "link_id,idx,rssi":
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
        for idx, (_, line_no) in link.items():
            if not 0 <= idx < n:
                raise ParseError(line_no, f"link {link_id} has {n} rows, "
                                 f"index {idx} is outside 0..{n - 1}")
        traces.append(RssiTrace(link_id=link_id,
                                samples=np.array([link[i][0] for i in range(n)])))
    return traces
