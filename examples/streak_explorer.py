#!/usr/bin/env python3
"""Streak detection (§8): how users refine queries over time.

Generates a synthetic single-day DBpedia-style log containing
"refinement sessions" — a user starts from a seed query and gradually
edits it — then detects streaks with the paper's method (window 30,
normalized Levenshtein ≤ 0.25 after prefix stripping) through the
``repro.api`` facade, and prints the Table 6 length histogram plus the
longest streak found.

The facade runs streak detection as a *sequence pass* of the sharded
pipeline (``metrics=("streaks",)``), so the same call scales to worker
pools and snapshot merging.

Also sweeps the window size (``streak_window=w``) to show the paper's
observation that larger windows yield longer streaks.

Run: ``python examples/streak_explorer.py [n_queries]``
"""

import sys
from typing import Optional, Sequence

from repro import generate_day_log
from repro.api import analyze_corpora
from repro.reporting import render_text, table6_section


def main(argv: Optional[Sequence[str]] = None) -> None:
    argv = sys.argv[1:] if argv is None else list(argv)
    n_queries = int(argv[0]) if argv else 2000

    print(f"Generating a {n_queries}-query day log with refinement sessions…")
    log = generate_day_log(n_queries=n_queries, session_rate=0.3, seed=2016)

    print("Detecting streaks (window=30, threshold 25%)…")
    result = analyze_corpora({"day-log": log}, metrics=("streaks",))
    print(render_text(table6_section(result.study)))

    accumulator = result.study.datasets["day-log"].streaks
    print("(paper's longest at w=30 was 169)")
    if accumulator.chains:
        # The accumulator keeps lean chain records (founder, span, and
        # only head-region member positions — that bound is what makes
        # it mergeable); peek into the longest retained one.
        retained = max(accumulator.chains, key=lambda chain: chain.length)
        print(f"A retained {retained.length}-member streak's first members:")
        for index in retained.head_positions[:3] or [retained.start]:
            first_line = log[index].splitlines()[0]
            print(f"  [{index}] {first_line[:70]}")

    print("\nWindow-size sweep (paper: larger windows → longer streaks):")
    print(f"{'window':>7} {'#streaks':>9} {'longest':>8}")
    for window in (5, 15, 30, 60, 120):
        swept = analyze_corpora(
            {"day-log": log}, metrics=("streaks",), streak_window=window
        ).study.datasets["day-log"].streaks
        print(f"{window:>7} {swept.streak_count:>9} {swept.longest:>8}")


if __name__ == "__main__":
    main()
