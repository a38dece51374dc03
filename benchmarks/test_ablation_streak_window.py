"""Ablation — streak window size (§8).

The paper fixes w=30 and remarks that increasing the window still
yields longer streaks.  This bench sweeps the window and verifies the
monotone effect: larger windows never decrease the longest streak and
never increase the number of streaks.  Each window runs the product
path, ``analyze_corpora(..., metrics=("streaks",))``, and must agree
with the serial reference scan.
"""

from __future__ import annotations

from _bench_utils import banner

from oracles import streaks_reference

from repro.api import analyze_corpora
from repro.workload import generate_day_log

WINDOWS = (5, 15, 30, 60)


def test_ablation_streak_window(benchmark):
    log = generate_day_log(n_queries=600, session_rate=0.35, seed=8)

    def sweep():
        return {
            w: analyze_corpora(
                {"day": log}, metrics=("streaks",), streak_window=w
            ).study.datasets["day"].streaks
            for w in WINDOWS
        }

    by_window = benchmark.pedantic(sweep, rounds=1, iterations=1)

    banner("Ablation: streak window size (paper uses w=30)")
    print(f"{'window':>7} {'#streaks':>9} {'longest':>8}")
    stats = {}
    for window, accumulator in sorted(by_window.items()):
        stats[window] = (accumulator.streak_count, accumulator.longest)
        print(f"{window:>7} {accumulator.streak_count:>9} {accumulator.longest:>8}")
        reference = streaks_reference(log, window=window)
        assert stats[window] == (len(reference), max(len(s) for s in reference))

    # Monotonicity: wider windows merge streaks (fewer, not shorter).
    windows = sorted(stats)
    for small, large in zip(windows, windows[1:]):
        assert stats[large][0] <= stats[small][0]
        assert stats[large][1] >= stats[small][1]
