"""Synthetic link-layer anomaly injection with per-point ground-truth labels.

Four anomaly kinds are supported: a permanent sudden drop (SuddenD), a sudden
drop with recovery (SuddenR), isolated single-sample drops (InstaD), and a
gradual linear decline (SlowD). ``draw_descriptor`` draws one injection into
an ``AnomalyDescriptor``, whose ``anomalous_indices`` are the points it marks;
``inject_anomaly`` applies it: drops go to the schema's ``rssi_min``, SlowD
declines clamped to the schema's bounds. A ``LabeledTrace`` derives its kind
and labels from its descriptor, so only records read from outside are
checked for agreement. Index ranges are configured as 1-based ordinals ("the
200th sample") and converted to 0-based indices when drawn; both ends are
inclusive.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
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
        )
        params.validate_for_length(n)
        return params


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
    """A trace and the anomaly injected into it. ``kind`` and the per-point
    ``labels`` are derived from the descriptor when the object is built."""

    trace: RssiTrace
    descriptor: AnomalyDescriptor
    kind: AnomalyKind = field(init=False)
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        self.kind = AnomalyKind(self.descriptor.kind)
        self.labels = np.zeros(self.trace.length, dtype=np.int8)
        self.labels[self.descriptor.anomalous_indices(self.trace.length)] = 1


def _draw_inclusive(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def draw_descriptor(kind: AnomalyKind, n: int, params: InjectionParams,
                    rng: np.random.Generator) -> AnomalyDescriptor:
    """Draw everything random about one ``kind`` injection into n samples.
    Onsets are drawn as 1-based ordinals and stored as 0-based indices."""
    params.check_fits(kind, n)
    if kind is AnomalyKind.SUDDEN_D:
        onset = _draw_inclusive(rng, params.suddend_onset_range) - 1
        return AnomalyDescriptor(kind.value, onset=onset, duration=n - onset)
    if kind is AnomalyKind.SUDDEN_R:
        onset = _draw_inclusive(rng, params.suddenr_onset_range) - 1
        return AnomalyDescriptor(
            kind.value, onset=onset,
            duration=_draw_inclusive(rng, params.suddenr_duration_range))
    if kind is AnomalyKind.INSTA_D:
        k = int(round(params.instad_fraction * n))
        idx = np.sort(rng.choice(n, size=k, replace=False))
        return AnomalyDescriptor(kind.value, indices=tuple(int(i) for i in idx))
    if kind is AnomalyKind.SLOW_D:
        onset = _draw_inclusive(rng, params.slowd_onset_range) - 1
        duration = _draw_inclusive(rng, params.slowd_duration_range)
        slope = float(rng.uniform(*params.slowd_slope_range))
        return AnomalyDescriptor(kind.value, onset=onset, duration=duration,
                                 slope=slope)
    return AnomalyDescriptor(kind.value)


def inject_anomaly(trace: RssiTrace, kind: AnomalyKind,
                   params: InjectionParams = InjectionParams(),
                   rng: np.random.Generator | None = None,
                   schema: TraceSchema = DEFAULT_SCHEMA) -> LabeledTrace:
    """A copy of ``trace`` with one drawn ``kind`` anomaly. A drop sets the
    marked samples to ``schema.rssi_min``; SlowD declines them linearly,
    sample(x) <- clip(sample(x) - slope * (x - onset), schema bounds)."""
    rng = rng if rng is not None else np.random.default_rng()
    desc = draw_descriptor(kind, trace.length, params, rng)
    x = desc.anomalous_indices(trace.length)
    samples = trace.samples.copy()
    if desc.slope is None:
        samples[x] = schema.rssi_min
    else:
        offset = np.minimum(0.0, -desc.slope * (x - desc.onset))
        samples[x] = np.clip(samples[x] + offset, schema.rssi_min,
                             schema.rssi_max)
    return LabeledTrace(RssiTrace(trace.link_id, samples), desc)


def build_dataset(clean: list[RssiTrace],
                  composition: Mapping[AnomalyKind, int],
                  params: InjectionParams = InjectionParams(),
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
    out = [inject_anomaly(clean[source_order[i]], kind, params, child_rngs[i],
                          schema) for i, kind in enumerate(kinds)]
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
    """A record back as a ``LabeledTrace``, or DatasetError. Its ``kind`` and
    ``labels`` must be the ones its descriptor gives, and an anomalous
    descriptor must mark at least one point."""
    try:
        desc = rec["descriptor"]
        descriptor = AnomalyDescriptor(
            kind=desc["kind"],
            onset=desc.get("onset"),
            duration=desc.get("duration"),
            slope=desc.get("slope"),
            indices=tuple(desc["indices"]) if "indices" in desc else None,
        )
        trace = RssiTrace(rec["link_id"],
                          np.asarray(rec["samples"], dtype=np.float64))
        labels = np.asarray(rec["labels"], dtype=np.int8)
        kind = AnomalyKind(rec["kind"])
        n = trace.length
        if labels.shape != (n,):
            raise DatasetError("need one label per sample")
        if descriptor.kind != kind.value:
            raise DatasetError("descriptor kind disagrees with kind")
        if not all(type(v) is int and 0 <= v <= n
                   for v in (descriptor.onset, descriptor.duration)
                   if v is not None):
            raise DatasetError(f"descriptor onset and duration must be "
                               f"integers in [0, {n}]")
        if not all(type(i) is int for i in descriptor.indices or ()):
            raise DatasetError("descriptor indices must be integers")
        idx = descriptor.anomalous_indices(n)
        if idx.size and not (0 <= idx.min() and idx.max() < n):
            raise DatasetError("descriptor indices out of range")
        if kind is AnomalyKind.SLOW_D and not (
                type(descriptor.slope) is float and math.isfinite(descriptor.slope)):
            raise DatasetError("SlowD descriptor slope must be a finite float")
        item = LabeledTrace(trace, descriptor)
    except KeyError as exc:
        raise DatasetError(f"record lacks key {exc}") from None
    except TraceError as exc:
        raise DatasetError(str(exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"malformed record: {exc}") from None
    if not np.array_equal(item.labels, labels):
        raise DatasetError("labels disagree with descriptor")
    if kind is not AnomalyKind.NONE and not labels.any():
        raise DatasetError("kind None must mean all-zero labels")
    return item


def write_dataset(path, items: list[LabeledTrace]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(json.dumps(labeled_to_record(item)) + "\n")


def read_dataset(path) -> list[LabeledTrace]:
    """Every record of a dataset file; DatasetError names ``path:line``."""
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(labeled_from_record(json.loads(line.decode("utf-8"))))
                except (DatasetError, ValueError, RecursionError) as exc:
                    raise DatasetError(f"{path}:{lineno}: {exc}") from None
    return out
