"""Span recording from outside the package, and the arithmetic over spans.

A span is (name, start, end, parent, op id). Spans are kept in memory for
the whole run; ``Tracer.dump`` writes them out at the end.

Wrappers are installed where callers look functions up: every loaded
``rssigat`` module attribute that *is* the original function is replaced,
so ``cli``'s by-name import of ``transform_many`` is wrapped as well as
``mtf_graph.transform_many``. Methods are wrapped on their class.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Public functions of each layer that get a span. tensor_core's primitive
# ops are not wrapped (78 per step would swamp the step); its tape is read
# at ``backward`` instead. Names absent from the module are skipped, so the
# list can outlive a rename.
WRAPPED = {
    "trace": ("synthesize_clean", "read_traces_csv", "write_traces_csv"),
    "inject": ("build_dataset", "write_dataset", "read_dataset"),
    "mtf_graph": ("transform", "transform_many", "write_graphs", "read_graphs"),
    "gat_model": ("prepare_graph", "model_forward", "predict"),
    "tensor_core": ("backward",),
    "train": ("run_cross_validation", "prepare_dataset", "fit",
              "evaluate_split", "weighted_bce", "class_weights",
              "AdamOptimizer.step"),
    "metrics": ("split_metrics", "aggregate", "anomalous_runs"),
    "cli": ("main", "cmd_synth", "cmd_inject", "cmd_transform",
            "write_manifest"),
}
LAYERS = tuple(WRAPPED)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``active``; wrappers are no-ops otherwise.

    ``op`` is the id of the current operation (a trace, or a training step)
    and is stamped on every span opened while it is set.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # callbacks run on (span, args, kwargs, result) after a wrapped call
        self.observers: dict[str, Callable] = {}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = Span(name, time.perf_counter(),
                        parent=tracer._stack[-1] if tracer._stack else -1,
                        op=tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package: str = "rssigat") -> None:
        """Wrap every function in WRAPPED wherever a loaded module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for layer, names in WRAPPED.items():
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{qualname}", original)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op, **s.counts}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the part of the span name before '.')."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + t
    return totals


def root_time(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent < 0)


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def tail_percentile(n_samples: int, beyond: int = 10) -> float | None:
    """Highest percentile in TAIL_PERCENTILES with at least ``beyond``
    samples above it, or None when even the median has fewer."""
    for p in TAIL_PERCENTILES:
        if n_samples * (100.0 - p) / 100.0 >= beyond - 1e-9:
            return p
    return None

