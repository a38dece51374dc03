"""Ablation — the streak similarity kernel, layer by layer (§8).

Streak discovery was "extremely resource-consuming" for the paper; the
similarity kernel is what makes it affordable here, and this bench
measures each of its layers against the one below, always verifying
identical decisions:

* **distance engines** — full O(n²) DP vs banded O(k·n) DP vs the
  Myers bit-parallel algorithm the kernel actually uses;
* **prefilters on/off** — the full filter chain
  (:func:`repro.analysis.streaks.prepared_similar`) vs the
  pre-prefilter kernel kept as the correctness oracle;
* **DP-decision memo on/off** — a streak scan with and without the
  scan state's memo of recent DP decisions;
* **stitch memo** — the memo of each merge of a chunked scan,
  counted (the DP runs it saves are its hits, so it has no off switch);
* **budget cutoff** — the Myers DP stopping once the final diagonal
  exceeds the budget vs running to the last column;
* **lean ingestion on/off** — a sequence-only ``streaks`` study with
  and without the full clean → parse → dedup pipeline.

Every comparison appends a row to ``BENCH_ablation.json``
(``REPRO_BENCH_ABLATION_JSON`` overrides the path) so CI can upload
the ablation table as an artifact; see docs/PERFORMANCE.md for how to
read it.
"""

from __future__ import annotations

import time

from _bench_utils import banner, record_ablation
from oracles import _levenshtein_banded, _levenshtein_full, _similar_reference

from repro.analysis import levenshtein
from repro.analysis.context import AnalysisOptions
from repro.analysis.parallel import build_query_logs_parallel
from repro.analysis.streaks import (
    SIMILARITY_COUNTERS,
    PreparedText,
    StreakAccumulator,
    prepared_similar,
    strip_prefixes,
)
from repro.analysis.study import study_corpus
from repro.workload import generate_day_log

#: Lookbehind used to build realistic comparison pairs: each query
#: against its predecessors, like the streak scan itself.
WINDOW = 30

#: Chunks the stitch-memo row cuts its scan into.
STITCH_CHUNKS = 16


def _speedup(baseline: float, optimized: float) -> float:
    return baseline / optimized if optimized > 0 else float("inf")


def test_ablation_levenshtein_engines(benchmark):
    """Full DP vs banded DP vs bit-parallel on consecutive-pair budgets."""
    log = [strip_prefixes(q) for q in generate_day_log(400, seed=4)]
    pairs = list(zip(log, log[1:]))

    def bitparallel_pass():
        decisions = []
        for a, b in pairs:
            budget = int(max(len(a), len(b)) * 0.25)
            decisions.append(levenshtein(a, b, max_distance=budget) is not None)
        return decisions

    def banded_pass():
        decisions = []
        for a, b in pairs:
            budget = int(max(len(a), len(b)) * 0.25)
            short, long = (a, b) if len(a) <= len(b) else (b, a)
            if len(long) - len(short) > budget:
                decisions.append(False)
            elif short == long:
                decisions.append(True)
            else:
                decisions.append(
                    _levenshtein_banded(short, long, budget) is not None
                )
        return decisions

    bit_decisions = benchmark.pedantic(bitparallel_pass, rounds=1, iterations=1)

    started = time.monotonic()
    full_decisions = []
    for a, b in pairs:
        budget = int(max(len(a), len(b)) * 0.25)
        distance = 0 if a == b else _levenshtein_full(a, b)
        full_decisions.append(distance <= budget)
    full_elapsed = time.monotonic() - started

    started = time.monotonic()
    banded_decisions = banded_pass()
    banded_elapsed = time.monotonic() - started

    started = time.monotonic()
    bitparallel_pass()
    bit_elapsed = time.monotonic() - started

    banner("Ablation: Levenshtein engines (full vs banded vs bit-parallel)")
    print(f"full DP:      {full_elapsed * 1e3:9.1f} ms over {len(pairs)} pairs")
    print(f"banded DP:    {banded_elapsed * 1e3:9.1f} ms")
    print(f"bit-parallel: {bit_elapsed * 1e3:9.1f} ms")
    if bit_elapsed > 0:
        print(f"speedup over full: {_speedup(full_elapsed, bit_elapsed):9.2f}x")

    # The optimizations must not change any similarity decision.
    assert banded_decisions == full_decisions
    assert bit_decisions == full_decisions
    # And the shipped engine should actually be faster.
    assert bit_elapsed <= full_elapsed * 1.2
    record_ablation(
        {
            "name": "levenshtein_engines",
            "pairs": len(pairs),
            "full_seconds": round(full_elapsed, 6),
            "banded_seconds": round(banded_elapsed, 6),
            "bitparallel_seconds": round(bit_elapsed, 6),
            "speedup_vs_full": round(_speedup(full_elapsed, bit_elapsed), 2),
        }
    )


def test_ablation_prefilters():
    """Filter chain on vs off over window-shaped pairs, same decisions."""
    log = [strip_prefixes(q) for q in generate_day_log(400, seed=4)]
    pairs = [
        (log[i], log[j])
        for i in range(len(log))
        for j in range(max(0, i - WINDOW), i)
    ]

    started = time.monotonic()
    reference = [_similar_reference(a, b) for a, b in pairs]
    off_elapsed = time.monotonic() - started

    SIMILARITY_COUNTERS.reset()
    started = time.monotonic()
    filtered = [
        prepared_similar(PreparedText(a), PreparedText(b)) for a, b in pairs
    ]
    on_elapsed = time.monotonic() - started
    counters = SIMILARITY_COUNTERS.to_dict()
    skip_rate = SIMILARITY_COUNTERS.dp_skip_rate

    banner("Ablation: similarity prefilters on vs off")
    print(f"prefilters off: {off_elapsed * 1e3:9.1f} ms over {len(pairs)} pairs")
    print(f"prefilters on:  {on_elapsed * 1e3:9.1f} ms")
    print(f"speedup:        {_speedup(off_elapsed, on_elapsed):9.2f}x")
    print(
        f"DP skip rate:   {skip_rate:9.1%}  "
        f"(length {counters['length_rejects']}, bag {counters['bag_rejects']}, "
        f"equal {counters['equal_accepts']}, trim {counters['trim_accepts']}, "
        f"DP {counters['dp_runs']})"
    )

    # The provable-lower-bound contract: not one decision may differ.
    assert filtered == reference
    record_ablation(
        {
            "name": "prefilters",
            "pairs": len(pairs),
            "off_seconds": round(off_elapsed, 6),
            "on_seconds": round(on_elapsed, 6),
            "speedup": round(_speedup(off_elapsed, on_elapsed), 2),
            "dp_skip_rate": round(skip_rate, 4),
            "counters": counters,
        }
    )


def test_ablation_dp_memo():
    """DP-decision memo on vs off over one scan: same state, fewer DPs."""
    log = generate_day_log(1600, session_rate=0.3, seed=6)
    runs = {}
    for memo_on in (False, True):
        accumulator = StreakAccumulator()
        if not memo_on:
            accumulator._memo = None
        SIMILARITY_COUNTERS.reset()
        started = time.monotonic()
        for text in log:
            accumulator.push(text)
        elapsed = time.monotonic() - started
        runs[memo_on] = (accumulator, elapsed, SIMILARITY_COUNTERS.to_dict())
    (off_acc, off_elapsed, off), (on_acc, on_elapsed, on) = runs[False], runs[True]

    banner("Ablation: DP-decision memo on vs off")
    print(f"memo off: {off_elapsed * 1e3:9.1f} ms, {off['dp_runs']} DP runs")
    print(f"memo on:  {on_elapsed * 1e3:9.1f} ms, {on['dp_runs']} DP runs")

    # The memo may only skip work: same accumulator, same decisions.
    assert on_acc == off_acc
    assert on_acc.to_dict() == off_acc.to_dict()
    assert on["comparisons"] == off["comparisons"]
    assert on["dp_runs"] + on["memo_hits"] == off["dp_runs"] + off["memo_hits"]
    record_ablation(
        {
            "name": "dp_memo",
            "queries": len(log),
            "identical_decisions": True,
            "off_dp_runs": off["dp_runs"],
            "on_dp_runs": on["dp_runs"],
            "off_seconds": round(off_elapsed, 6),
            "on_seconds": round(on_elapsed, 6),
            "speedup": round(_speedup(off_elapsed, on_elapsed), 2),
        }
    )


def test_ablation_stitch_memo():
    """Stitching a chunked scan: same state as serial, and each stitch's
    memo answers the pairs that chains sharing a tail ask again."""
    log = generate_day_log(1600, session_rate=0.3, seed=6)
    chunk_size = len(log) // STITCH_CHUNKS
    chunks = []
    for start in range(0, len(log), chunk_size):
        accumulator = StreakAccumulator()
        for text in log[start:start + chunk_size]:
            accumulator.push(text)
        chunks.append(accumulator)
    SIMILARITY_COUNTERS.reset()
    stitched = chunks[0]
    for chunk in chunks[1:]:
        stitched.merge(chunk)
    counters = SIMILARITY_COUNTERS.to_dict()
    serial = StreakAccumulator()
    for text in log:
        serial.push(text)

    banner("Ablation: stitch DP memo (per stitch)")
    print(
        f"{len(chunks)} chunks: {counters['dp_runs']} DP runs, "
        f"{counters['memo_hits']} memo hits "
        f"({counters['dp_runs'] + counters['memo_hits']} DP runs without the memo)"
    )

    identical = stitched == serial and stitched.to_dict() == serial.to_dict()
    assert identical
    assert counters["memo_hits"] > 0
    record_ablation(
        {
            "name": "stitch_memo",
            "chunks": len(chunks),
            "identical_decisions": identical,
            "dp_runs": counters["dp_runs"],
            "memo_hits": counters["memo_hits"],
        }
    )


def test_ablation_budget_cutoff():
    """Myers with the budget cutoff vs run to the end, same decisions."""
    log = [strip_prefixes(q) for q in generate_day_log(400, seed=4)]
    pairs = []
    for i in range(len(log)):
        for j in range(max(0, i - WINDOW), i):
            a, b = log[i], log[j]
            budget = int(max(len(a), len(b)) * 0.25)
            # The pairs the length bound leaves to the DP.
            if a != b and abs(len(a) - len(b)) <= budget:
                pairs.append((a, b, budget))

    started = time.monotonic()
    full = [levenshtein(a, b) <= budget for a, b, budget in pairs]
    full_elapsed = time.monotonic() - started

    started = time.monotonic()
    cutoff = [
        levenshtein(a, b, max_distance=budget) is not None
        for a, b, budget in pairs
    ]
    cutoff_elapsed = time.monotonic() - started

    banner("Ablation: Myers budget cutoff vs full distance")
    print(f"full distance: {full_elapsed * 1e3:9.1f} ms over {len(pairs)} pairs")
    print(f"budget cutoff: {cutoff_elapsed * 1e3:9.1f} ms")
    print(f"speedup:       {_speedup(full_elapsed, cutoff_elapsed):9.2f}x")

    assert cutoff == full
    record_ablation(
        {
            "name": "budget_cutoff",
            "pairs": len(pairs),
            "identical_decisions": True,
            "rejects": full.count(False),
            "full_seconds": round(full_elapsed, 6),
            "cutoff_seconds": round(cutoff_elapsed, 6),
            "speedup": round(_speedup(full_elapsed, cutoff_elapsed), 2),
        }
    )


def _streaks_study(log, lean):
    """A sequence-only streaks study through the drivers, with the
    clean → parse → dedup pipeline skipped (*lean*) or run in full."""
    options = AnalysisOptions(metrics=("streaks",), lean_ingestion=lean)
    logs = build_query_logs_parallel({"day": log}, options=options)
    return study_corpus(logs, options=options)


def test_ablation_lean_ingestion():
    """Lean vs full ingestion of a sequence-only streaks study."""
    log = generate_day_log(600, session_rate=0.3, seed=8)

    started = time.monotonic()
    full = _streaks_study(log, lean=False)
    full_elapsed = time.monotonic() - started

    started = time.monotonic()
    lean = _streaks_study(log, lean=True)
    lean_elapsed = time.monotonic() - started

    banner("Ablation: lean vs full ingestion (sequence-only study)")
    print(f"full ingestion: {full_elapsed * 1e3:9.1f} ms over {len(log)} queries")
    print(f"lean ingestion: {lean_elapsed * 1e3:9.1f} ms")
    print(f"speedup:        {_speedup(full_elapsed, lean_elapsed):9.2f}x")

    # Identical streak state — only Table 1's Valid/Unique differ
    # (0 in lean runs: the parse stage never ran).
    assert lean.datasets["day"].streaks == full.datasets["day"].streaks
    assert lean.datasets["day"].total == full.datasets["day"].total
    assert lean.datasets["day"].valid == 0
    record_ablation(
        {
            "name": "lean_ingestion",
            "queries": len(log),
            "full_seconds": round(full_elapsed, 6),
            "lean_seconds": round(lean_elapsed, 6),
            "speedup": round(_speedup(full_elapsed, lean_elapsed), 2),
        }
    )
