"""Synthetic link-layer anomaly injection with per-point ground-truth labels.

Four anomaly kinds are supported: a permanent sudden drop (SuddenD), a sudden
drop with recovery (SuddenR), isolated single-sample drops (InstaD), and a
gradual linear decline (SlowD). ``draw_descriptor`` draws one injection into
an ``AnomalyDescriptor``, whose ``anomalous_indices`` are the points it marks;
``inject_anomaly`` applies it: drops go to the schema's ``rssi_min``, SlowD
declines clamped to the schema's bounds. A ``LabeledTrace`` derives its kind
and labels from its descriptor, so a dataset record stores no labels, and
reading one checks that its descriptor carries only its kind's fields. The
ranges are the paper's 1-based ordinals ("the 200th sample") in a
300-sample trace; ``InjectionParams`` rescales them to the trace's length,
and draws are converted to 0-based indices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .trace import (DEFAULT_SCHEMA, ConfigError, RssiTrace, TraceError,
                    TraceSchema, json_numbers, read_json_lines,
                    write_json_lines)


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

# The paper's ranges, designed for REFERENCE_LENGTH-sample traces: onsets and
# durations as 1-based ordinals, both ends inclusive, then the SlowD slope
# and the share of samples InstaD drops.
REFERENCE_LENGTH = 300
SUDDEND_ONSET = (200, 280)
SUDDENR_ONSET = (25, 275)
SUDDENR_DURATION = (5, 20)
SLOWD_ONSET = (1, 20)
SLOWD_DURATION = (150, 180)
SLOWD_SLOPE = (0.5, 1.5)
INSTAD_FRACTION = 0.01


@dataclass(frozen=True)
class InjectionParams:
    """The reference ranges scaled to traces of ``length`` samples. Each
    scaled range is non-empty and starts at 1 or later, and InstaD drops at
    least one sample, so every window fits a trace of that length."""

    length: int = REFERENCE_LENGTH

    def __post_init__(self):
        if self.length < 2:
            raise ConfigError("length must be >= 2")

    @classmethod
    def scaled_to_length(cls, n: int) -> "InjectionParams":
        """The same as ``InjectionParams(n)``."""
        return cls(n)

    def scaled(self, reference: tuple[int, int]) -> tuple[int, int]:
        """A reference ordinal range rescaled proportionally to ``length``."""
        s = self.length / REFERENCE_LENGTH
        lo = max(1, round(reference[0] * s))
        return lo, max(lo, round(reference[1] * s))

    @property
    def instad_count(self) -> int:
        """Samples InstaD drops: the reference share, at least one."""
        n = self.length
        return int(round(max(INSTAD_FRACTION, 1.0 / n) * n))


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
    """Draw everything random about one ``kind`` injection into n samples,
    which must be ``params.length``. Onsets are drawn as 1-based ordinals and
    stored as 0-based indices."""
    if params.length != n:
        raise ConfigError(f"injection params are for {params.length}-sample "
                          f"traces, the trace has {n} samples")
    if kind is AnomalyKind.SUDDEN_D:
        onset = _draw_inclusive(rng, params.scaled(SUDDEND_ONSET)) - 1
        return AnomalyDescriptor(kind.value, onset=onset, duration=n - onset)
    if kind is AnomalyKind.SUDDEN_R:
        onset = _draw_inclusive(rng, params.scaled(SUDDENR_ONSET)) - 1
        return AnomalyDescriptor(
            kind.value, onset=onset,
            duration=_draw_inclusive(rng, params.scaled(SUDDENR_DURATION)))
    if kind is AnomalyKind.INSTA_D:
        idx = np.sort(rng.choice(n, size=params.instad_count, replace=False))
        return AnomalyDescriptor(kind.value, indices=tuple(int(i) for i in idx))
    if kind is AnomalyKind.SLOW_D:
        onset = _draw_inclusive(rng, params.scaled(SLOWD_ONSET)) - 1
        duration = _draw_inclusive(rng, params.scaled(SLOWD_DURATION))
        slope = float(rng.uniform(*SLOWD_SLOPE))
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
# dataset serialization: one JSON record per trace, bit-exact round trip. A
# record stores its trace and descriptor; the labels follow from the
# descriptor, so they are not stored.

# The descriptor fields of each kind, the ones ``labeled_to_record`` writes
# for the descriptors ``draw_descriptor`` draws.
DESCRIPTOR_FIELDS = {
    AnomalyKind.SUDDEN_D: {"kind", "onset", "duration"},
    AnomalyKind.SUDDEN_R: {"kind", "onset", "duration"},
    AnomalyKind.INSTA_D: {"kind", "indices"},
    AnomalyKind.SLOW_D: {"kind", "onset", "duration", "slope"},
    AnomalyKind.NONE: {"kind"},
}


def labeled_to_record(item: LabeledTrace) -> dict:
    d = item.descriptor
    desc = {k: v for k, v in (("kind", d.kind), ("onset", d.onset),
                              ("duration", d.duration), ("slope", d.slope),
                              ("indices", d.indices)) if v is not None}
    if "indices" in desc:
        desc["indices"] = list(desc["indices"])
    return {
        "link_id": item.trace.link_id,
        "kind": item.kind.value,
        "descriptor": desc,
        "samples": item.trace.samples.tolist(),
    }


def labeled_from_record(rec: dict) -> LabeledTrace:
    """A record back as a ``LabeledTrace``, or DatasetError. Its ``kind``
    must be its descriptor's, the descriptor may carry only the fields of
    that kind (``DESCRIPTOR_FIELDS``), and an anomalous descriptor must mark
    at least one point. The link id must be a string and the samples JSON
    numbers. A record that also stores ``labels``, as datasets written
    before the labels were dropped do, must store the descriptor's."""
    try:
        desc = rec["descriptor"]
        descriptor = AnomalyDescriptor(
            kind=desc["kind"],
            onset=desc.get("onset"),
            duration=desc.get("duration"),
            slope=desc.get("slope"),
            indices=tuple(desc["indices"]) if "indices" in desc else None,
        )
        link_id = rec["link_id"]
        if not isinstance(link_id, str):
            raise ValueError("link_id must be a string")
        trace = RssiTrace(link_id, json_numbers(
            rec["samples"], "samples must be a list of numbers"))
        kind = AnomalyKind(rec["kind"])
        n = trace.length
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
        foreign = desc.keys() - DESCRIPTOR_FIELDS[kind]
        if foreign:
            raise DatasetError(f"{kind.value} descriptor carries "
                               f"{', '.join(sorted(foreign))}, which its "
                               f"kind does not use")
        item = LabeledTrace(trace, descriptor)
        if "labels" in rec:
            labels = np.asarray(rec["labels"], dtype=np.int8)
            if labels.shape != (n,):
                raise DatasetError("need one label per sample")
            if not np.array_equal(item.labels, labels):
                raise DatasetError("labels disagree with descriptor")
    except KeyError as exc:
        raise DatasetError(f"record lacks key {exc}") from None
    except TraceError as exc:
        raise DatasetError(str(exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"malformed record: {exc}") from None
    if kind is not AnomalyKind.NONE and not idx.size:
        raise DatasetError(f"{kind.value} descriptor marks no point")
    return item


def write_dataset(path, items: list[LabeledTrace]) -> None:
    write_json_lines(path, items, labeled_to_record)


def read_dataset(path) -> list[LabeledTrace]:
    """Every record of a dataset file; DatasetError names ``path:line``."""
    return read_json_lines(path, labeled_from_record, DatasetError)
