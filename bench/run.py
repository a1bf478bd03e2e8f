#!/usr/bin/env python3
"""Benchmark of homlie2: one workload, one seed, one run.

    python3 bench/run.py --workload cohomology|two-term|search \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/` and its
CLI is run as `python -m homlie2.cli` with PYTHONPATH=src, one subprocess
at a time.  Every timing is process CPU time (`time.process_time` in this
process, RUSAGE_CHILDREN for the CLI).

A run repeats whole rounds of the workload until S seconds of wall clock
have passed.  A round is one pass over the in-process operations followed
by the CLI commands.  Before each round the run sets up twice (import,
inputs, model files, one warm-up call); `setup_s` is the median of all the
set-ups.  After the last round every answer of every round is checked
against the oracles, and the last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; each time is a sum over
operations of the operation's median over the rounds.
With --trace 1 untraced rounds alternate with traced rounds, in which the
tracer is installed and the CLI commands are replayed in process through
`homlie2.cli.main`; the metrics are the per-layer ones, and the spans of
the first traced round are written to bench/_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUPS_PER_ROUND = 2
IMPORT_REPEATS = 3
CLI_TIMEOUT = 120


def fresh_import():
    """Import homlie2 and its CLI module anew (the bytecode cache stays warm)."""
    for key in [k for k in sys.modules if k == "homlie2" or k.startswith("homlie2.")]:
        del sys.modules[key]
    hl = importlib.import_module("homlie2")
    importlib.import_module("homlie2.cli")
    return hl


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(argv) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "homlie2.cli", *argv], cwd=ROOT, env=cli_env(),
                          capture_output=True, text=True, timeout=CLI_TIMEOUT)
    return proc.returncode, proc.stdout


def run_cli_in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = sys.modules["homlie2.cli"].main(argv)
    return rc, out.getvalue()


def import_cpu() -> float:
    """CPU time of `import homlie2.cli` in a fresh interpreter."""
    code = ("import time; t = time.process_time(); import homlie2.cli; "
            "print(time.process_time() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(),
                          capture_output=True, text=True, timeout=CLI_TIMEOUT, check=True)
    return float(proc.stdout.strip())


class Round:
    """What one pass over the workload recorded."""

    def __init__(self):
        self.solve = 0.0
        self.cli = 0.0
        self.op_times: list[float] = []
        self.cli_times: list[float] = []
        self.answers: dict[str, tuple[bool, object]] = {}   # name -> (raised, value)
        self.cli_results: list[tuple[int, str] | str] = []
        self.layers: dict[str, float] = {}


def run_round(plan, cli_in_process: bool) -> Round:
    rnd = Round()
    clock = time.process_time
    wall = time.perf_counter()
    for op in plan.ops:
        t0 = clock()
        try:
            value, raised = op.fn(), False
        except Exception as exc:  # an operation that raises is counted as failed
            value, raised = f"{type(exc).__name__}: {exc}", True
        rnd.op_times.append(clock() - t0)
        rnd.answers[op.name] = (raised, value)
    for cmd in plan.cli:
        c0 = child_cpu()
        try:
            rnd.cli_results.append(run_cli_in_process(cmd.argv) if cli_in_process
                                   else run_cli(cmd.argv))
        except Exception as exc:  # a CLI command that raises or hangs is counted as failed
            rnd.cli_results.append(f"{type(exc).__name__}: {exc}")
        rnd.cli_times.append(child_cpu() - c0)
    rnd.solve, rnd.cli = sum(rnd.op_times), sum(rnd.cli_times)
    print(f"round: solve {rnd.solve:.4f} s, cli {rnd.cli:.4f} s of CPU, "
          f"{time.perf_counter() - wall:.4f} s of wall clock", file=sys.stderr)
    return rnd


def sum_of_medians(samples: list[list[float]], keep=None) -> float:
    """Sum over positions of the median over rounds: a slow spell in one
    round moves only the operations it overlapped, and the median drops it."""
    return sum(statistics.median(column) for i, column in enumerate(zip(*samples))
               if keep is None or keep[i])


def paired_overhead(untraced: list[Round], traced: list[Round]) -> float:
    """Sum over operations of the median, over back-to-back pairs of rounds,
    of the traced time minus the untraced time."""
    columns = zip(zip(*[r.op_times for r in untraced]), zip(*[r.op_times for r in traced]))
    return sum(statistics.median(t - u for u, t in zip(us, ts)) for us, ts in columns)


def verify(plan, rounds) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, messages) over every round."""
    attempted = failed = 0
    correct = True
    messages: list[str] = []
    for rnd in rounds:
        bad: dict[str, str] = {}
        wrong: set[str] = set()
        for op in plan.ops:
            raised, value = rnd.answers[op.name]
            if raised:
                bad[op.name] = value
                continue
            try:
                err = op.verify(value)
            except Exception as exc:  # an answer the oracle cannot read is wrong
                err = f"unreadable answer: {type(exc).__name__}: {exc}"
            if err:
                bad[op.name] = err
                wrong.add(op.name)
        for family in plan.families:
            for lower, upper in zip(family, family[1:]):
                lo, hi = rnd.answers[lower][1], rnd.answers[upper][1]
                if lower in bad or upper in bad:
                    continue
                if lo[0] - lo[1] != hi[2]:
                    bad[upper] = f"C-Z={lo[0] - lo[1]} at {lower} but B={hi[2]}"
                    wrong.add(upper)
        for cmd, result in zip(plan.cli, rnd.cli_results):
            name = "cli " + " ".join(cmd.argv[:2])
            if isinstance(result, str):
                bad[name] = result
                continue
            try:
                err = cmd.verify(*result)
            except Exception as exc:  # an output the oracle cannot read is wrong
                err = f"unreadable output: {type(exc).__name__}: {exc}"
            if err:
                bad[name] = err
                wrong.add(name)
        attempted += len(plan.ops) + len(plan.cli)
        failed += len(bad)
        correct = correct and not wrong
        messages += [f"{name}: {err}" for name, err in bad.items()]
    return attempted, failed, correct, messages


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracer as tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homlie2" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/homlie2; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work, workloads, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, work, workloads, tracing) -> dict:
    fresh_import()
    setup: list[float] = []
    rounds: list[Round] = []
    traced: list[Round] = []
    tracer = None
    import_s = 0.0
    if args.trace:
        import_s = median([import_cpu() for _ in range(IMPORT_REPEATS)])
        tracer = tracing.Tracer()
    start = time.monotonic()
    while True:
        # set up anew before every round, so the set-up times are spread
        # over the run like the rounds; the round uses the last plan built
        for _ in range(SETUPS_PER_ROUND):
            # drop the previous plan and its modules before the clock
            # starts, so no set-up pays for tearing down the one before it
            plan = hl = None
            gc.collect()
            t0 = time.process_time()
            hl = fresh_import()
            plan = workloads.BUILDERS[args.workload](hl, args.seed, work)
            plan.warmup()
            setup.append(time.process_time() - t0)
        gc.collect()
        rounds.append(run_round(plan, cli_in_process=False))
        if len(rounds) == 1:
            # later rounds repeat the same work and only add the answers
            # kept for checking, whose number depends on the run's length
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            # each untraced round is followed by a traced one, so the two
            # run at nearly the same CPU speed and differ by the tracing cost
            gc.collect()
            tracer.reset_round()
            tracer.keep_spans = not traced
            tracer.install()
            try:
                rnd = run_round(plan, cli_in_process=True)
            finally:
                tracer.uninstall()
            rnd.layers = tracer.round_values()
            traced.append(rnd)
        if time.monotonic() - start >= args.seconds:
            break
    print("setup: " + " ".join(f"{t:.4f}" for t in setup) + " s of CPU", file=sys.stderr)

    attempted, failed, correct, messages = verify(plan, rounds + traced)
    for line in messages[:20]:
        print(f"failed: {line}", file=sys.stderr)

    if not args.trace:
        metrics = {
            "setup_s": (median(setup), "s"),
            "solve_s": (sum_of_medians([r.op_times for r in rounds]), "s"),
            "top_s": (sum_of_medians([r.op_times for r in rounds],
                                     [op.top for op in plan.ops]), "s"),
            "cli_s": (sum_of_medians([r.cli_times for r in rounds]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {}
        for name, unit in tracing.per_layer_names():
            if unit == "s":
                metrics[name] = (median([r.layers.get(name, 0.0) for r in traced]), unit)
            else:
                first = traced[0].layers.get(name, 0)
                if any(r.layers.get(name, 0) != first for r in traced):
                    print(f"count {name} differs between traced rounds", file=sys.stderr)
                    correct = False
                metrics[name] = (first, unit)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["trace.overhead_s"] = (paired_overhead(rounds, traced), "s")
        for err in tracer.case_errors[:20]:
            print(f"case count: {err}", file=sys.stderr)
        correct = correct and not tracer.case_errors
        write_spans(args, tracer.spans)

    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def write_spans(args, spans):
    path = WORK / f"trace-{args.workload}-{args.seed}.json"
    doc = {"workload": args.workload, "seed": args.seed, "clock": "process_time",
           "fields": ["name", "start", "end", "parent"], "spans": spans}
    path.write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
