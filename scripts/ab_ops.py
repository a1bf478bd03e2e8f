"""Paired in-process A/B of one benchmark workload's operations.

Loads two checkouts of this repository into one process, the first as the
package `homlie2_a` and the second as `homlie2_b`, so that each module's
relative imports, those inside functions too, stay in its own tree.  Every
round builds both trees' inputs anew with `bench/workloads.py` (seed 1, the
builders read-only, as `bench/run.py` builds them before each round), then
runs each operation on both trees back to back, alternating from round to
round which tree goes first.  CLI commands are not run.

It prints, per tree, `solve_s` and `top_s` as `bench/run.py` defines them:
the sum over operations of each operation's median process CPU time over
the rounds, `top_s` over the operations on the workload's largest input.
The % change is from the first tree to the second.  An operation whose
answers differ between the trees (compared as reprs, an exception as its
class and message) is named, and the script then exits 1.

    python3 scripts/ab_ops.py PARENT_CHECKOUT CHANGED_CHECKOUT cohomology 15
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tree(root: Path, name: str):
    """The package under `root`/src/homlie2, imported as `name`."""
    init = root / "src" / "homlie2" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path, help="checkout A, the baseline")
    parser.add_argument("second", type=Path, help="checkout B, the change")
    parser.add_argument("workload", choices=tuple(workloads.BUILDERS))
    parser.add_argument("rounds", type=int)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("rounds must be at least 1")
    for root in (args.first, args.second):
        if not (root / "src" / "homlie2" / "__init__.py").is_file():
            parser.error(f"no package at {root}/src/homlie2")
    trees = [load_tree(args.first, "homlie2_a"), load_tree(args.second, "homlie2_b")]
    build = workloads.BUILDERS[args.workload]

    times: list[list[list[float]]] = [[], []]   # tree -> round -> op
    differ: set[str] = set()
    with tempfile.TemporaryDirectory() as tmp:
        for rnd in range(args.rounds):
            plans = []
            for t, hl in enumerate(trees):
                work = Path(tmp, str(t))
                work.mkdir(exist_ok=True)
                plan = build(hl, 1, work)
                plan.warmup()
                plans.append(plan)
            gc.collect()
            order = (0, 1) if rnd % 2 == 0 else (1, 0)
            row: list[list[float]] = [[], []]
            for ops in zip(*(plan.ops for plan in plans)):
                answers = [None, None]
                for t in order:
                    t0 = time.process_time()
                    try:
                        answers[t] = repr(ops[t].fn())
                    except Exception as exc:  # an answer too, as bench/run.py counts it
                        answers[t] = f"{type(exc).__name__}: {exc}"
                    row[t].append(time.process_time() - t0)
                if answers[0] != answers[1]:
                    differ.add(ops[0].name)
            for t in (0, 1):
                times[t].append(row[t])
        top = [op.top for op in plans[0].ops]

    def sums(samples, keep):
        return sum(statistics.median(col) for col, k in zip(zip(*samples), keep) if k)

    everything = [True] * len(top)
    print(f"{args.workload}: {len(top)} operations, {args.rounds} rounds, process CPU time")
    for metric, keep in (("solve_s", everything), ("top_s", top)):
        a, b = sums(times[0], keep), sums(times[1], keep)
        change = f"{100 * (b - a) / a:+.1f} %" if a else "n/a"
        print(f"{metric}: A {a:.5f} s, B {b:.5f} s, {change}")
    for name in sorted(differ):
        print(f"answers differ: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
