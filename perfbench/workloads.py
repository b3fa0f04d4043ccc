"""The benchmark's three workloads.

Each is a closed loop with one client in one process: the next job starts
when the previous one has finished. A workload has a set-up, which builds
its inputs from the seed, a timed job, and checks that run after the job,
outside the timed section. The tracer, when there is one, records spans
only inside the timed sections. Between jobs a fixed probe measures the
machine's current speed, and reported times are scaled to a reference speed.

- train-desk: cross-validated training at trace length 100. Operations are
  training steps.
- pipeline-paper: ``rssigat synth | inject | transform`` at length 300, then
  reading the graphs back and preparing each one. Operations are traces.
- predict-stream: the per-trace body of ``rssigat predict`` at length 300.
  Operations are traces.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rssigat import cli, gat_model, inject, metrics, mtf_graph, train, trace
from rssigat.inject import ANOMALOUS_KINDS, AnomalyKind

from spans import Tracer, tail_percentile

clock = time.perf_counter

# The probe's time at the reference speed: its fast-phase time on a 2-vCPU
# Intel Xeon VM (numpy 2.4.6, OpenBLAS 0.3.31). Timings are scaled to it.
REFERENCE_S = 0.040


class Probe:
    """A fixed kernel owned by the benchmark, timed between jobs to track the
    speed of a shared machine, which drifts by tens of percent over minutes.

    It mixes the kinds of work the workloads do: small numpy ops driven from
    Python, JSON encoding of edge triples, and sorting. It calls nothing in
    rssigat, so a change to the program cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.matrix = rng.random((16, 16))
        self.keys = rng.integers(0, 300, 40000)
        self.triples = [[int(a), int(b), float(w)] for a, b, w in
                        zip(self.keys[:8000], self.keys[::-1], rng.random(8000))]
        self()  # the first call pays for cold caches

    def __call__(self) -> float:
        t0 = clock()
        a = self.matrix
        total = 0.0
        for i in range(1500):
            total += float((a @ a[:, :1]).sum()) + i
        json.dumps(self.triples)
        for _ in range(3):
            np.lexsort((self.keys, self.keys[::-1]))
            np.unique(self.keys * 300 + self.keys[::-1])
        return clock() - t0


@dataclass
class Measured:
    """What one call of ``measure`` saw. Times are raw; ``factor`` holds, per
    job, the reference speed over the machine's speed during that job, and
    the ``scaled`` methods multiply by it."""

    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0
    job_s: list[float] = field(default_factory=list)
    job_ops: list[int] = field(default_factory=list)
    factor: list[float] = field(default_factory=list)
    # per-workload samples: per-trace latencies, load times, F1, ...
    samples: dict[str, list[float]] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def scaled_s(self, times: list[float] | None = None) -> list[float]:
        """Per-job times (``job_s`` by default) at the reference speed."""
        times = self.job_s if times is None else times
        return [t * f for t, f in zip(times, self.factor)]

    def rate_per_s(self, key: str | None = None) -> float:
        """Median over jobs of operations per second of job time (or of the
        per-job time sample ``key``), at the reference speed."""
        times = self.scaled_s(None if key is None else self.samples[key])
        return statistics.median(n / t for n, t in zip(self.job_ops, times))


class Timer:
    """Wall time of the timed sections; switches the tracer on inside them."""

    def __init__(self, tracer: Tracer | None, measured: Measured):
        self.tracer = tracer
        self.measured = measured
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        if self.tracer is not None:
            self.tracer.active = True
        self._t0 = clock()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = clock() - self._t0
        if self.tracer is not None:
            self.tracer.active = False
        self.measured.timed_s += self.elapsed
        return False


def labeled_traces(rng: np.random.Generator, length: int, each: int,
                   clean: int) -> list:
    """``each`` traces of every anomaly kind plus ``clean`` clean ones."""
    schema = trace.TraceSchema(expected_length=length)
    total = 4 * each + clean
    clean_traces = trace.synthesize_clean(total, schema, rng)
    params = (inject.InjectionParams() if length == 300
              else inject.InjectionParams.scaled_to_length(length))
    counts = {kind: each for kind in ANOMALOUS_KINDS}
    counts[AnomalyKind.NONE] = clean
    return inject.build_dataset(clean_traces, counts, params, rng, schema)


class Workload:
    name = ""
    # the fewest jobs one measure call runs, whatever the time budget
    min_jobs = 1

    def setup(self, seed: int, work: Path):
        """Build the inputs from the seed; ``work`` is an empty directory."""
        raise NotImplementedError

    def job(self, state, tracer: Tracer | None, m: Measured) -> None:
        raise NotImplementedError

    def observe(self, tracer: Tracer, state) -> None:
        """Register span observers for this workload's per-layer counts."""

    def final_check(self, state) -> int:
        """Checks too costly for every job; returns the failed operations."""
        return 0

    def measure(self, state, seconds: float) -> Measured:
        m = Measured()
        self._run(state, seconds, [(m, None)])
        return m

    def measure_traced(self, state, seconds: float,
                       tracer: Tracer) -> tuple[Measured, Measured]:
        """Untraced and traced jobs in turn, so a slow spell of the machine
        falls on both; the wrappers are installed for traced jobs only."""
        plain, traced = Measured(), Measured()
        self._run(state, seconds, [(plain, None), (traced, tracer)])
        return plain, traced

    def _run(self, state, seconds: float, slots) -> None:
        """Jobs in turn over ``slots`` of (Measured, tracer or None) until
        ``seconds`` have passed and each slot has ``min_jobs`` jobs. The probe
        runs between jobs; a job's factor uses the probes on either side."""
        probe = Probe()
        before = probe()
        deadline = clock() + seconds
        while (min(len(m.job_s) for m, _ in slots) < self.min_jobs
               or clock() < deadline):
            for m, tracer in slots:
                if tracer is not None:
                    tracer.install()
                try:
                    self.job(state, tracer, m)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                after = probe()
                m.factor.append(2 * REFERENCE_S / (before + after))
                before = after

    def end_to_end(self, m: Measured) -> tuple[float, float]:
        """(operations per second, seconds per job), both medians over jobs
        at the reference speed."""
        return m.rate_per_s(), statistics.median(m.scaled_s())

    def table(self, m: Measured) -> list[tuple[str, float, str]]:
        """The workload's own named end-to-end metrics, for the report."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

@dataclass
class TrainDeskState:
    dataset: list
    schema: object
    cfg: object
    steps: int
    reference: tuple | None = None
    tape: dict = field(default_factory=dict)


class TrainDesk(Workload):
    """``train.run_cross_validation`` on 50 desk-composition traces
    (1:1:1:1:6 anomaly kinds to clean), one worker. 50 traces keep a job
    near one second, so a run has a few dozen jobs to take a median of."""

    name = "train-desk"
    min_jobs = 2  # the second job is the same-seed rerun the check compares
    length = 100
    each, clean = 5, 30
    splits, epochs = 3, 3

    def setup(self, seed, work):
        rng = np.random.default_rng([seed, 1])
        dataset = labeled_traces(rng, self.length, self.each, self.clean)
        cfg = train.TrainConfig(n_splits=self.splits, epochs=self.epochs,
                                seed=seed)
        steps = self.epochs * sum(
            len(tr) for tr, _ in train.stratified_shuffle_split(dataset, cfg))
        return TrainDeskState(dataset, trace.TraceSchema(self.length), cfg,
                              steps)

    def job(self, state, tracer, m):
        steps = state.steps
        if tracer is not None:
            tracer.op = m.attempted
        result = None
        with Timer(tracer, m) as t:
            try:
                result = train.run_cross_validation(state.dataset, state.cfg,
                                                    state.schema)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted
                print(f"train-desk: job failed: {exc!r}")
        m.attempted += steps
        m.job_s.append(t.elapsed)
        m.job_ops.append(steps)
        if result is None or not self._check(state, result, m):
            m.failed += steps

    @staticmethod
    def _check(state, result, m) -> bool:
        curves = result.loss_curves
        if not all(np.isfinite(v) for curve in curves for v in curve):
            print("train-desk: check failed: non-finite loss")
            return False
        f1 = result.report.averages["anomalous"].f1
        digest = hashlib.sha256(
            (json.dumps([[repr(v) for v in c] for c in curves])
             + result.report.to_json()).encode()).hexdigest()
        m.add("anomalous_f1", f1)
        if state.reference is None:
            state.reference = (digest, f1)
            return True
        if state.reference != (digest, f1):
            print("train-desk: check failed: rerun differs from first run")
            return False
        return True

    def observe(self, tracer, state):
        tape = state.tape

        def on_backward(span, args, kwargs, result):
            ops = next((a.ops for a in (*args, *kwargs.values())
                        if hasattr(a, "ops")), None)
            if ops is None:
                return
            tape["steps"] = tape.get("steps", 0) + 1
            tape["ops"] = tape.get("ops", 0) + len(ops)
            tape["bytes"] = tape.get("bytes", 0) + sum(
                rec.out.data.nbytes for rec in ops)
            for rec in ops:
                key = "op." + rec.name
                tape[key] = tape.get(key, 0) + 1

        def on_step(span, args, kwargs, result):
            tracer.op += 1

        def on_fit(span, args, kwargs, result):
            span.counts["steps"] = result.steps

        tracer.observers["tensor_core.backward"] = on_backward
        tracer.observers["train.AdamOptimizer.step"] = on_step
        tracer.observers["train.fit"] = on_fit

    def table(self, m):
        rate, job = self.end_to_end(m)
        return [("train_steps_per_s", rate, "1/s"),
                ("cv_wall_s", job, "s"),
                ("anomalous_f1", m.samples.get("anomalous_f1", [0.0])[0], "1")]


# ---------------------------------------------------------------------------

@dataclass
class PipelineState:
    work: Path
    seed: int
    bytes_per_trace: float = 0.0


class PipelinePaper(Workload):
    """The path of ``scripts/make_paper_scale_dataset.py`` through
    ``rssigat.cli.main``, with the paper composition (700:700:700:700:5692)
    scaled down, then the graph load ``train`` and ``eval`` do."""

    name = "pipeline-paper"
    length = 300
    each, clean = 1, 8

    def setup(self, seed, work):
        return PipelineState(work, seed)

    def job(self, state, tracer, m):
        w = state.work
        traces, dataset, graphs = (str(w / "traces.csv"), str(w / "dataset.jsonl"),
                                   str(w / "graphs.jsonl"))
        total = 4 * self.each + self.clean
        commands = [
            ["synth", "--count", str(total), "--length", str(self.length),
             "--seed", str(state.seed), "-o", traces],
            ["inject", "-i", traces, "--each", str(self.each),
             "--clean", str(self.clean), "--seed", str(state.seed + 1),
             "-o", dataset],
            ["transform", "-i", dataset, "-o", graphs],
        ]
        if tracer is not None:
            tracer.op = -1  # batch commands span every trace
        codes = []
        with Timer(tracer, m) as pipe, contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        read, prepared = [], []
        if codes == [0, 0, 0]:
            with Timer(tracer, m) as load:
                read = mtf_graph.read_graphs(graphs)
                for i, g in enumerate(read):
                    if tracer is not None:
                        tracer.op = m.attempted + i
                    prepared.append(gat_model.prepare_graph(g))
            m.add("load_s", load.elapsed)
            state.bytes_per_trace = Path(graphs).stat().st_size / total
        else:
            m.add("load_s", float("nan"))
        m.attempted += total
        m.job_s.append(pipe.elapsed)
        m.job_ops.append(total)
        m.failed += total - self._check(dataset, read, prepared)

    def _check(self, dataset_path, read, prepared) -> int:
        """Count the graphs that match a fresh transform of their trace:
        same link id and edges, weights equal to 9 significant digits."""
        if not read:
            return 0
        items = inject.read_dataset(dataset_path)
        if len(items) != len(read) or len(prepared) != len(read):
            return 0
        schema = trace.TraceSchema(expected_length=self.length)
        ok = 0
        for item, g in zip(items, read):
            fresh = mtf_graph.transform(item.trace, schema)
            try:
                ok += (g.link_id == fresh.link_id and g.n_nodes == fresh.n_nodes
                       and np.array_equal(g.edge_src, fresh.edge_src)
                       and np.array_equal(g.edge_dst, fresh.edge_dst)
                       and weights_match_9_digits(g.edge_weights,
                                                  fresh.edge_weights))
            except AttributeError as exc:
                print(f"pipeline-paper: check failed: {exc!r}")
        if ok != len(read):
            print(f"pipeline-paper: check failed on {len(read) - ok} graphs")
        return ok

    def end_to_end(self, m):
        passes = [p + l for p, l in zip(m.job_s, m.samples["load_s"])]
        return m.rate_per_s(), statistics.median(m.scaled_s(passes))

    def table(self, m):
        rate, job = self.end_to_end(m)
        return [("pipeline_traces_per_s", rate, "1/s"),
                ("graph_load_traces_per_s", m.rate_per_s("load_s"), "1/s"),
                ("pass_wall_s", job, "s")]


def weights_match_9_digits(read: np.ndarray, fresh: np.ndarray) -> bool:
    """True when ``read`` is ``fresh`` rounded to 9 significant digits: each
    differs by at most half a unit in the 9th digit."""
    if read.shape != fresh.shape:
        return False
    if read.size == 0:
        return True
    mag = np.abs(fresh)
    exponent = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
    tol = 0.5 * 10.0 ** (exponent - 8) * (1 + 1e-9)
    return bool(np.all(np.abs(read - fresh) <= tol))


# ---------------------------------------------------------------------------

@dataclass
class PredictState:
    model: object
    rng: np.random.Generator
    schema: object
    first_block: list = field(default_factory=list)


class PredictStream(Workload):
    """One trace at a time: transform, predict, anomalous runs. Every trace
    is new, so nothing is reused across operations."""

    name = "predict-stream"
    length = 300
    each, clean = 8, 68  # 100 traces a block, about the paper's 1:1:1:1:8
    equivalence_traces = 2

    def setup(self, seed, work):
        model = gat_model.build_model(seed=seed)
        gat_model.save_checkpoint(work / "checkpoint", model)
        model = gat_model.load_checkpoint(work / "checkpoint")
        return PredictState(model, np.random.default_rng([seed, 3]),
                            trace.TraceSchema(expected_length=self.length))

    def job(self, state, tracer, m):
        block = labeled_traces(state.rng, self.length, self.each, self.clean)
        outputs = []
        block_s = 0.0
        for item in block:
            if tracer is not None:
                tracer.op = m.attempted
            m.attempted += 1
            try:
                with Timer(tracer, m) as t:
                    graph = mtf_graph.transform(item.trace, state.schema)
                    labels = gat_model.predict(graph, state.model)
                    runs = metrics.anomalous_runs(labels)
            except Exception as exc:  # noqa: BLE001 - a failed trace is counted
                print(f"predict-stream: trace failed: {exc!r}")
                m.failed += 1
                continue
            block_s += t.elapsed
            m.add("latency_s", t.elapsed)
            m.add("latency_job", len(m.job_s))
            outputs.append((labels, runs))
        m.job_s.append(block_s)
        m.job_ops.append(len(outputs))
        m.failed += sum(not runs_match(labels, runs, self.length)
                        for labels, runs in outputs)
        if not state.first_block:
            state.first_block = block[:self.equivalence_traces]

    def final_check(self, state):
        """The collapsed forward equals the per-node one on a few traces.
        The per-node graph of a length-300 trace takes a few hundred MB, so
        this runs after peak RSS is read."""
        return sum(not self._collapse_is_exact(state, item.trace)
                   for item in state.first_block)

    @staticmethod
    def _collapse_is_exact(state, rssi_trace) -> bool:
        graph = mtf_graph.transform(rssi_trace, state.schema)
        fast = gat_model.model_forward(gat_model.prepare_graph(graph),
                                       state.model).data
        try:
            plain = gat_model.model_forward(
                gat_model.prepare_graph(graph, collapse=False),
                state.model).data
        except TypeError as exc:
            print(f"predict-stream: check failed: {exc!r}")
            return False
        if fast.shape == plain.shape and np.max(np.abs(fast - plain)) <= 1e-10:
            return True
        print("predict-stream: check failed: collapsed forward differs")
        return False

    def table(self, m):
        rate, _ = self.end_to_end(m)
        factor = np.asarray(m.factor)[np.asarray(m.samples["latency_job"])]
        lat_ms = np.asarray(m.samples["latency_s"]) * factor * 1e3
        rows = [("predict_traces_per_s", rate, "1/s"),
                ("predict_p50_ms", float(np.median(lat_ms)), "ms")]
        p = tail_percentile(lat_ms.size)
        if p is not None and p > 50:
            rows.append((f"predict_p{p:g}_ms", float(np.percentile(lat_ms, p)),
                         "ms"))
        rows.append(("predict_samples", lat_ms.size, "count"))
        return rows


def runs_match(labels: np.ndarray, runs, length: int) -> bool:
    """The runs cover exactly the positive labels of a full-length trace."""
    if labels.shape != (length,):
        return False
    rebuilt = np.zeros(length, dtype=bool)
    for start, n in runs:
        rebuilt[start:start + n] = True
    return bool(np.array_equal(rebuilt, labels.astype(bool)))


WORKLOADS = {w.name: w for w in (TrainDesk, PipelinePaper, PredictStream)}
