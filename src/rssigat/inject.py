"""Synthetic link-layer anomaly injection with per-point ground-truth labels.

Four anomaly kinds are supported: a permanent sudden drop (SuddenD), a sudden
drop with recovery (SuddenR), isolated single-sample drops (InstaD), and a
gradual linear decline (SlowD). Index ranges are configured as 1-based
ordinals ("the 200th sample") and converted to 0-based indices when drawn;
both ends are inclusive.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from enum import Enum
from typing import Mapping

import numpy as np

from .trace import (DEFAULT_SCHEMA, ConfigError, RssiTrace, TraceError,
                    TraceSchema)


class CapacityError(Exception):
    pass


class DatasetError(Exception):
    pass


class AnomalyKind(str, Enum):
    SUDDEN_D = "SuddenD"
    SUDDEN_R = "SuddenR"
    INSTA_D = "InstaD"
    SLOW_D = "SlowD"
    NONE = "None"


ANOMALOUS_KINDS = (AnomalyKind.SUDDEN_D, AnomalyKind.SUDDEN_R,
                   AnomalyKind.INSTA_D, AnomalyKind.SLOW_D)

# ordinal ranges below were designed for 300-sample traces
REFERENCE_LENGTH = 300


@dataclass(frozen=True)
class InjectionParams:
    suddend_onset_range: tuple[int, int] = (200, 280)
    suddenr_onset_range: tuple[int, int] = (25, 275)
    suddenr_duration_range: tuple[int, int] = (5, 20)
    instad_fraction: float = 0.01
    slowd_onset_range: tuple[int, int] = (1, 20)
    slowd_duration_range: tuple[int, int] = (150, 180)
    slowd_slope_range: tuple[float, float] = (0.5, 1.5)
    drop_floor: float = 0.0

    def __post_init__(self):
        for name in ("suddend_onset_range", "suddenr_onset_range",
                     "suddenr_duration_range", "slowd_onset_range",
                     "slowd_duration_range", "slowd_slope_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name} is empty: {lo} > {hi}")
        if self.suddend_onset_range[0] < 1 or self.suddenr_onset_range[0] < 1 \
                or self.slowd_onset_range[0] < 1:
            raise ConfigError("onset ordinals are 1-based and must be >= 1")
        if self.slowd_duration_range[0] < 1 or self.suddenr_duration_range[0] < 1:
            raise ConfigError("durations must be >= 1")

    def check_fits(self, kind: AnomalyKind, n: int) -> None:
        """ConfigError unless every ``kind`` injection fits n samples."""
        if kind is AnomalyKind.SUDDEN_D and self.suddend_onset_range[1] > n:
            raise ConfigError("SuddenD onset range exceeds trace length")
        if kind is AnomalyKind.SUDDEN_R and (self.suddenr_onset_range[1] - 1
                                             + self.suddenr_duration_range[1] > n):
            raise ConfigError("SuddenR onset+duration can exceed trace length")
        if kind is AnomalyKind.SLOW_D and (self.slowd_onset_range[1] - 1
                                           + self.slowd_duration_range[1] > n):
            raise ConfigError("SlowD onset+duration can exceed trace length")
        if kind is AnomalyKind.INSTA_D and self.instad_fraction <= 0:
            raise ConfigError("instad_fraction must be positive")
        if kind is AnomalyKind.INSTA_D and round(self.instad_fraction * n) < 1:
            raise ConfigError("instad_fraction too small for this trace length")

    def validate_for_length(self, n: int) -> None:
        for kind in ANOMALOUS_KINDS:
            self.check_fits(kind, n)

    @classmethod
    def scaled_to_length(cls, n: int) -> "InjectionParams":
        """Rescale the reference ordinal ranges proportionally to length n."""
        s = n / REFERENCE_LENGTH
        base = cls()

        def scale_range(rng_pair, minimum=1):
            lo = max(minimum, round(rng_pair[0] * s))
            hi = max(lo, round(rng_pair[1] * s))
            return (lo, hi)

        params = cls(
            suddend_onset_range=scale_range(base.suddend_onset_range),
            suddenr_onset_range=scale_range(base.suddenr_onset_range),
            suddenr_duration_range=scale_range(base.suddenr_duration_range),
            # keep the reference fraction but never below one dropped sample
            instad_fraction=max(base.instad_fraction, 1.0 / n),
            slowd_onset_range=scale_range(base.slowd_onset_range),
            slowd_duration_range=scale_range(base.slowd_duration_range),
            slowd_slope_range=base.slowd_slope_range,
            drop_floor=base.drop_floor,
        )
        params.validate_for_length(n)
        return params


DEFAULT_PARAMS = InjectionParams()


@dataclass(frozen=True)
class AnomalyDescriptor:
    """Record of everything drawn for one injection, for reproducibility."""

    kind: str
    onset: int | None = None
    duration: int | None = None
    slope: float | None = None
    indices: tuple[int, ...] | None = None

    def anomalous_indices(self, n: int) -> np.ndarray:
        if self.kind == AnomalyKind.NONE.value:
            return np.zeros(0, dtype=np.int64)
        if self.indices is not None:
            return np.asarray(self.indices, dtype=np.int64)
        end = n if self.duration is None else self.onset + self.duration
        return np.arange(self.onset, end, dtype=np.int64)


@dataclass
class LabeledTrace:
    trace: RssiTrace
    labels: np.ndarray
    kind: AnomalyKind
    descriptor: AnomalyDescriptor

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.labels.shape != (self.trace.length,):
            raise ConfigError("need one label per sample")

    def validate(self) -> None:
        n = self.trace.length
        desc = self.descriptor
        if desc.kind != self.kind.value:
            raise ConfigError("descriptor kind disagrees with kind")
        if not all(type(v) is int and 0 <= v <= n
                   for v in (desc.onset, desc.duration) if v is not None):
            raise ConfigError(f"descriptor onset and duration must be "
                              f"integers in [0, {n}]")
        idx = desc.anomalous_indices(n)
        if idx.size and not (0 <= idx.min() and idx.max() < n):
            raise ConfigError("descriptor indices out of range")
        marked = np.zeros(n, dtype=np.int8)
        marked[idx] = 1
        if not np.array_equal(marked, self.labels):
            raise ConfigError("labels disagree with descriptor")
        if (self.kind is AnomalyKind.NONE) != bool(self.labels.sum() == 0):
            raise ConfigError("kind None must mean all-zero labels")


def _draw_ordinal(rng: np.random.Generator, ordinal_range: tuple[int, int]) -> int:
    """Uniform draw over an inclusive 1-based ordinal range, as 0-based index."""
    return int(rng.integers(ordinal_range[0], ordinal_range[1] + 1)) - 1


def inject_suddend(trace: RssiTrace, params: InjectionParams = DEFAULT_PARAMS,
                   rng: np.random.Generator | None = None,
                   schema: TraceSchema = DEFAULT_SCHEMA) -> LabeledTrace:
    """Permanent drop: everything from a drawn onset to the end goes to the floor."""
    rng = rng if rng is not None else np.random.default_rng()
    n = trace.length
    params.check_fits(AnomalyKind.SUDDEN_D, n)
    onset = _draw_ordinal(rng, params.suddend_onset_range)
    samples = trace.samples.copy()
    samples[onset:] = params.drop_floor
    labels = np.zeros(n, dtype=np.int8)
    labels[onset:] = 1
    desc = AnomalyDescriptor(kind=AnomalyKind.SUDDEN_D.value, onset=onset,
                             duration=n - onset)
    return LabeledTrace(RssiTrace(trace.link_id, samples), labels,
                        AnomalyKind.SUDDEN_D, desc)


def inject_suddenr(trace: RssiTrace, params: InjectionParams = DEFAULT_PARAMS,
                   rng: np.random.Generator | None = None,
                   schema: TraceSchema = DEFAULT_SCHEMA) -> LabeledTrace:
    """Drop for a bounded window, after which the original values resume."""
    rng = rng if rng is not None else np.random.default_rng()
    n = trace.length
    params.check_fits(AnomalyKind.SUDDEN_R, n)
    onset = _draw_ordinal(rng, params.suddenr_onset_range)
    duration = int(rng.integers(params.suddenr_duration_range[0],
                                params.suddenr_duration_range[1] + 1))
    samples = trace.samples.copy()
    samples[onset:onset + duration] = params.drop_floor
    labels = np.zeros(n, dtype=np.int8)
    labels[onset:onset + duration] = 1
    desc = AnomalyDescriptor(kind=AnomalyKind.SUDDEN_R.value, onset=onset,
                             duration=duration)
    return LabeledTrace(RssiTrace(trace.link_id, samples), labels,
                        AnomalyKind.SUDDEN_R, desc)


def inject_instad(trace: RssiTrace, params: InjectionParams = DEFAULT_PARAMS,
                  rng: np.random.Generator | None = None,
                  schema: TraceSchema = DEFAULT_SCHEMA) -> LabeledTrace:
    """Single-sample drops at round(fraction * length) distinct indices."""
    rng = rng if rng is not None else np.random.default_rng()
    n = trace.length
    params.check_fits(AnomalyKind.INSTA_D, n)
    k = int(round(params.instad_fraction * n))
    idx = np.sort(rng.choice(n, size=k, replace=False))
    samples = trace.samples.copy()
    samples[idx] = params.drop_floor
    labels = np.zeros(n, dtype=np.int8)
    labels[idx] = 1
    desc = AnomalyDescriptor(kind=AnomalyKind.INSTA_D.value,
                             indices=tuple(int(i) for i in idx))
    return LabeledTrace(RssiTrace(trace.link_id, samples), labels,
                        AnomalyKind.INSTA_D, desc)


def inject_slowd(trace: RssiTrace, params: InjectionParams = DEFAULT_PARAMS,
                 rng: np.random.Generator | None = None,
                 schema: TraceSchema = DEFAULT_SCHEMA) -> LabeledTrace:
    """Linear decline over a drawn window:
    sample(x) <- clamp(sample(x) + min(0, -slope * (x - onset)), schema bounds).
    """
    rng = rng if rng is not None else np.random.default_rng()
    n = trace.length
    params.check_fits(AnomalyKind.SLOW_D, n)
    onset = _draw_ordinal(rng, params.slowd_onset_range)
    duration = int(rng.integers(params.slowd_duration_range[0],
                                params.slowd_duration_range[1] + 1))
    slope = float(rng.uniform(params.slowd_slope_range[0],
                              params.slowd_slope_range[1]))
    samples = trace.samples.copy()
    x = np.arange(onset, onset + duration)
    offset = np.minimum(0.0, -slope * (x - onset))
    samples[x] = np.clip(samples[x] + offset, schema.rssi_min, schema.rssi_max)
    labels = np.zeros(n, dtype=np.int8)
    labels[x] = 1
    desc = AnomalyDescriptor(kind=AnomalyKind.SLOW_D.value, onset=onset,
                             duration=duration, slope=slope)
    return LabeledTrace(RssiTrace(trace.link_id, samples), labels,
                        AnomalyKind.SLOW_D, desc)


_INJECTORS = {
    AnomalyKind.SUDDEN_D: inject_suddend,
    AnomalyKind.SUDDEN_R: inject_suddenr,
    AnomalyKind.INSTA_D: inject_instad,
    AnomalyKind.SLOW_D: inject_slowd,
}


def _as_clean(trace: RssiTrace) -> LabeledTrace:
    return LabeledTrace(RssiTrace(trace.link_id, trace.samples.copy()),
                        np.zeros(trace.length, dtype=np.int8),
                        AnomalyKind.NONE,
                        AnomalyDescriptor(kind=AnomalyKind.NONE.value))


def build_dataset(clean: list[RssiTrace],
                  composition: Mapping[AnomalyKind, int],
                  params: InjectionParams = DEFAULT_PARAMS,
                  rng: np.random.Generator | None = None,
                  schema: TraceSchema = DEFAULT_SCHEMA) -> list[LabeledTrace]:
    """Assemble a labeled dataset with the requested per-kind counts.

    Each source trace is used at most once; per-trace generators are spawned
    from the master generator so results are reproducible and order-stable.
    """
    rng = rng if rng is not None else np.random.default_rng()
    counts = {kind: int(composition.get(kind, 0)) for kind in AnomalyKind}
    if any(c < 0 for c in counts.values()):
        raise ConfigError("composition counts must be >= 0")
    total = sum(counts.values())
    if total > len(clean):
        raise CapacityError(
            f"need {total} clean traces, have {len(clean)} "
            f"(short by {total - len(clean)})")
    source_order = rng.permutation(len(clean))
    kinds: list[AnomalyKind] = []
    for kind in (*ANOMALOUS_KINDS, AnomalyKind.NONE):
        kinds.extend([kind] * counts[kind])
    child_rngs = rng.spawn(total)
    out: list[LabeledTrace] = []
    for i, kind in enumerate(kinds):
        src = clean[source_order[i]]
        if kind is AnomalyKind.NONE:
            out.append(_as_clean(src))
        else:
            out.append(_INJECTORS[kind](src, params, child_rngs[i], schema))
    shuffle = rng.permutation(total)
    return [out[j] for j in shuffle]


# ---------------------------------------------------------------------------
# dataset serialization: one JSON record per trace, bit-exact round trip

def labeled_to_record(item: LabeledTrace) -> dict:
    desc = {k: v for k, v in asdict(item.descriptor).items() if v is not None}
    if "indices" in desc:
        desc["indices"] = list(desc["indices"])
    return {
        "link_id": item.trace.link_id,
        "kind": item.kind.value,
        "descriptor": desc,
        "samples": item.trace.samples.tolist(),
        "labels": item.labels.tolist(),
    }


def labeled_from_record(rec: dict) -> LabeledTrace:
    """A record back as a validated ``LabeledTrace``, or DatasetError."""
    try:
        desc = rec["descriptor"]
        descriptor = AnomalyDescriptor(
            kind=desc["kind"],
            onset=desc.get("onset"),
            duration=desc.get("duration"),
            slope=desc.get("slope"),
            indices=tuple(desc["indices"]) if "indices" in desc else None,
        )
        item = LabeledTrace(
            trace=RssiTrace(rec["link_id"],
                            np.asarray(rec["samples"], dtype=np.float64)),
            labels=np.asarray(rec["labels"], dtype=np.int8),
            kind=AnomalyKind(rec["kind"]),
            descriptor=descriptor,
        )
        item.validate()
    except KeyError as exc:
        raise DatasetError(f"record lacks key {exc}") from None
    except TraceError as exc:
        raise DatasetError(str(exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"malformed record: {exc}") from None
    return item


def write_dataset(path, items: list[LabeledTrace]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(json.dumps(labeled_to_record(item)) + "\n")


def read_dataset(path) -> list[LabeledTrace]:
    """Every record of a dataset file; DatasetError names ``path:line``."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(labeled_from_record(json.loads(line)))
                except (DatasetError, json.JSONDecodeError) as exc:
                    raise DatasetError(f"{path}:{lineno}: {exc}") from None
    return out
