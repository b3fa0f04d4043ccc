#!/usr/bin/env python3
"""End-to-end desk-scale experiment through the CLI.

Synthesizes 600 clean traces of length 100, injects 60 anomalies of each
kind, writes their class graphs to graphs.jsonl for inspection, runs 5-split
cross-validated training (which builds the same graphs from the dataset),
and predicts on the dataset. Everything lands under --out (default
runs/desk).
"""
import argparse
import sys
from pathlib import Path

from rssigat.cli import main as cli


def run(out_dir: Path, seed: int, splits: int, epochs: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = out_dir / "traces.csv"
    dataset = out_dir / "dataset.jsonl"
    graphs = out_dir / "graphs.jsonl"
    run_dir = out_dir / "run"
    steps = [
        ["synth", "--count", "600", "--length", "100", "--seed", str(seed),
         "-o", str(traces)],
        ["inject", "-i", str(traces), "--each", "60", "--clean", "360",
         "--seed", str(seed + 1), "-o", str(dataset)],
        ["transform", "-i", str(dataset), "-o", str(graphs)],
        ["train", "--dataset", str(dataset),
         "--splits", str(splits), "--epochs", str(epochs),
         "--seed", str(seed + 2), "-o", str(run_dir)],
        ["predict", "--checkpoint", str(run_dir / "checkpoint_0"),
         "-i", str(dataset), "-o", str(out_dir / "predictions.jsonl")],
        ["report", "--run", str(run_dir)],
    ]
    for argv in steps:
        print(f"$ rssigat {' '.join(argv)}")
        code = cli(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("runs/desk"))
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--splits", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args()
    sys.exit(run(args.out, args.seed, args.splits, args.epochs))
