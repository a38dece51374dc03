"""Benchmark of the SPARQL-log study: end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 20 --trace 0

``--trace 0`` times what a user waits for and prints every end-to-end
metric; ``--trace 1`` makes the separate traced run and prints every
per-layer metric.  Both check the system's outputs against references
computed for the seed.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md next to this
file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-tables", "streaks-sharded", "watch-serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources at {SOURCES}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))

    from bench_inputs import corpora
    from bench_report import end_to_end, print_result
    from bench_system import work_dir

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    seed_corpora = corpora(args.seed)
    work = work_dir(run_id)
    try:
        if args.trace:
            from bench_layers import traced_run

            metrics, attempted, failed, ok = traced_run(
                args.workload, seed_corpora[0], args.seconds, work
            )
        else:
            from bench_workloads import WORKLOADS

            outcome = WORKLOADS[args.workload](seed_corpora, args.seconds, work)
            metrics = end_to_end(args.workload, args.seed, seed_corpora, outcome)
            attempted, failed, ok = outcome.attempted, outcome.failed, True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = ok and failed == 0
    print_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
