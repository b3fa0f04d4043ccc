#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it are a readable report and the environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS thread pools are fixed at one thread so a run uses one core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("train-desk", "pipeline-paper", "predict-stream")
WORK_DIR = ".bench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(root: Path) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    src = hashlib.sha256()
    for path in sorted((root / "src" / "rssigat").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_rev": rev or "unknown",
        "src_sha256": src.hexdigest(),
    }


def import_seconds(root: Path) -> float:
    """Median wall time of a fresh interpreter importing ``rssigat.cli``,
    which imports numpy and every layer: the start-up every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rssigat.cli"], env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rssigat" / "__init__.py").is_file():
        print("perfbench: src/rssigat not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]()
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probe = workloads.Probe()
        before = probe()
        import_s = import_seconds(root)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, work)
            setups.append(time.perf_counter() - t0)
        setup_factor = 2 * workloads.REFERENCE_S / (before + probe())
        setup_s = (import_s + statistics.median(setups)) * setup_factor

        if args.trace == 0:
            m = workload.measure(state, args.seconds)
            rss = peak_rss_mb()
            m.failed += workload.final_check(state)
            rate, job = workload.end_to_end(m)
            metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"),
                       "throughput_per_s": (rate, "1/s"), "job_s": (job, "s")}
            print(f"# {args.workload} seed={args.seed}: {len(m.job_s)} jobs, "
                  f"{m.attempted} operations, {m.timed_s:.2f} s timed")
            rows = workload.table(m) + [
                ("setup_s", setup_s, "s"), ("peak_rss_mb", rss, "MB"),
                ("failed_share", m.failed / max(m.attempted, 1), "1"),
                ("speed_factor", statistics.median(m.factor), "1")]
            for name, value, unit in rows:
                print(f"{name:<28}{value:>14.6g} {unit}")
            print("# raw job seconds: "
                  + " ".join(f"{t:.4f}" for t in m.job_s))
            print("# job factors: " + " ".join(f"{f:.4f}" for f in m.factor))
        else:
            tracer = Tracer()
            layers.observe_graphs(tracer)
            workload.observe(tracer, state)
            plain, m = workload.measure_traced(state, args.seconds, tracer)
            plain_rate, plain_job = workload.end_to_end(plain)
            rate, job = workload.end_to_end(m)
            overhead_pct = 100.0 * (job - plain_job) / plain_job
            values = layers.per_layer(
                tracer.spans, m.attempted, getattr(state, "tape", {}),
                getattr(state, "bytes_per_trace", 0.0), overhead_pct)
            metrics = {name: (values[name], unit)
                       for name, unit, _ in layers.PER_LAYER}
            print(f"# {args.workload} seed={args.seed}: {len(m.job_s)} traced "
                  f"and {len(plain.job_s)} untraced jobs, {len(tracer.spans)} "
                  f"spans")
            print("# self time in the traced jobs")
            for row in layers.self_time_table(tracer.spans, m.timed_s,
                                              m.attempted):
                print(row)
            print("# tracing overhead: traced minus untraced jobs")
            print(f"throughput_per_s {rate - plain_rate:+.6g} 1/s "
                  f"({rate:.6g} vs {plain_rate:.6g})")
            print(f"job_s {job - plain_job:+.6g} s "
                  f"({job:.6g} vs {plain_job:.6g}, {overhead_pct:+.2f}%)")
            print("# per-layer metrics")
            for name, (value, unit) in metrics.items():
                print(f"{name:<36}{value:>14.6g} {unit}")
            spans_path = root / WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            print(f"# spans written to {spans_path.relative_to(root)}")
            m.attempted += plain.attempted
            m.failed += plain.failed + workload.final_check(state)
        print("# env " + json.dumps(environment(root), sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": m.failed == 0 and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
