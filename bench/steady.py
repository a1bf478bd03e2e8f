#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/steady.py --workload two-term --seeds 1-10 --seconds 36 [--trace 1]

Runs `bench/run.py` once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles (statistics.quantiles,
n=4) and the interquartile range as a share of the median, which is the
spread BENCHMARK.json bounds.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in seed_list(args.seeds):
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", args.trace], capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        values_line = " ".join(f"{name}={metric['value']:.4g}"
                               for name, metric in list(doc["metrics"].items())[:8])
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']} {values_line}", flush=True)
        shares.add(doc["failed"] / doc["attempted"])
        for name, metric in doc["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"failed share: {sorted(shares)}")
    print(f"{'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:44s} {units[name]:6s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
