"""Table 6 — streak lengths in single-day logs.

The paper scans three single-day DBpedia logs (2014/2015/2016) with
window 30 and normalized Levenshtein ≤ 0.25.  What should hold: the
length histogram is heavily skewed to 1–10, decays monotonically-ish
through the buckets, and long streaks (> 100; paper's max was 169)
exist but are rare.

Also records a serial-vs-sharded wall-time comparison of the
mergeable :class:`~repro.analysis.streaks.StreakAccumulator` path into
``BENCH_passes.json`` (merged key-wise with the analyzer-pass
timings), so the cost of the paper's "extremely resource-consuming"
analysis is tracked per commit.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from _bench_utils import banner
from oracles import streak_histogram_reference

from repro.analysis.context import AnalysisOptions
from repro.analysis.parallel import (
    TransportStats,
    WorkerPool,
    build_query_logs_parallel,
)
from repro.analysis.streaks import SIMILARITY_COUNTERS, StreakAccumulator
from repro.reporting import render_table
from repro.workload import DATASET_PROFILES, generate_day_log

PAPER_TABLE6 = {
    "1-10": (42_272, 167_292, 199_375),
    "11-20": (3_732, 24_001, 37_402),
    "21-30": (2_425, 4_813, 17_749),
    "31-40": (884, 667, 5_849),
    ">100": (5, 0, 24),
}

DAY_LOG_SIZE = int(os.environ.get("REPRO_BENCH_DAYLOG", "800"))


def test_table6_streaks(benchmark):
    day_logs = {
        "DBP'14": generate_day_log(
            DAY_LOG_SIZE, session_rate=0.20, seed=14,
            profile=DATASET_PROFILES["DBpedia14"],
        ),
        "DBP'15": generate_day_log(
            DAY_LOG_SIZE, session_rate=0.30, seed=15,
            profile=DATASET_PROFILES["DBpedia15"],
        ),
        "DBP'16": generate_day_log(
            DAY_LOG_SIZE, session_rate=0.40, seed=16,
            profile=DATASET_PROFILES["DBpedia16"],
        ),
    }

    def detect_all():
        return {
            name: _detect_chunk(log).length_histogram()
            for name, log in day_logs.items()
        }

    histograms = benchmark.pedantic(detect_all, rounds=1, iterations=1)

    banner(f"Table 6: streak lengths ({DAY_LOG_SIZE}-query day logs)")
    names = list(histograms)
    print(render_table(
        "Table 6: Length of streaks in single-day log files",
        ("Streak length", *names),
        [(bucket, *(f"{histograms[name][bucket]:,}" for name in names))
         for bucket in histograms[names[0]]],
    ))
    print()
    print("Paper (day logs of 273MiB/803MiB/1004MiB):")
    for bucket, values in PAPER_TABLE6.items():
        print(f"  {bucket:<6} {values}")

    # Shape checks.
    for name, histogram in histograms.items():
        assert histogram["1-10"] == max(histogram.values()), name
        assert histogram["1-10"] > histogram["11-20"], name
    # Multi-query streaks exist (the refinement sessions).
    assert any(
        sum(v for k, v in histogram.items() if k != "1-10") > 0
        for histogram in histograms.values()
    )


def _detect_chunk(texts):
    accumulator = StreakAccumulator(window=30)
    for text in texts:
        accumulator.push(text)
    return accumulator


def test_table6_sharded_vs_serial_walltime():
    """Serial scan vs the sharded runtime's scan of one day log.

    The sharded side is the real product path — lean ingestion through
    :func:`build_query_logs_parallel` on a persistent
    :class:`WorkerPool` with the adaptive chunk schedule — so the
    recorded trajectory tracks what users actually run.  Both sides are
    timed best-of-``REPRO_BENCH_ROUNDS`` after a warm-up scan.  Asserts
    exactness (the sharded accumulator is the serial one) and merges
    the wall times plus the transport accounting into
    BENCH_passes.json for the CI artifact.  On a single-core runner the
    adaptive schedule collapses to a single in-process chunk, so the
    recorded speedup sits at parity rather than below it.
    """
    workers = min(4, os.cpu_count() or 1)
    rounds = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))
    log = generate_day_log(
        DAY_LOG_SIZE * 2, session_rate=0.30, seed=6,
        profile=DATASET_PROFILES["DBpedia15"],
    )

    SIMILARITY_COUNTERS.reset()
    serial = _detect_chunk(log)  # warm-up; also the counter snapshot scan
    # Kernel instrumentation for the serial scan: how much work each
    # prefilter stage absorbed before the DP ran (per-process counters,
    # so snapshot them before the sharded runs add their own).
    serial_counters = SIMILARITY_COUNTERS.to_dict()
    dp_skip_rate = SIMILARITY_COUNTERS.dp_skip_rate
    serial_seconds = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        _detect_chunk(log)
        serial_seconds = min(serial_seconds, time.perf_counter() - started)

    options = AnalysisOptions(metrics=("streaks",), lean_ingestion=True)
    with WorkerPool(workers) as pool:

        def run_sharded():
            stats = TransportStats()
            qlog = build_query_logs_parallel(
                {"day": log}, options=options, pool=pool, transport=stats,
            )["day"]
            return qlog.streaks, stats

        sharded, transport = run_sharded()  # warm-up (pool start-up)
        sharded_seconds = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            sharded, transport = run_sharded()
            sharded_seconds = min(sharded_seconds, time.perf_counter() - started)

    assert sharded == serial  # byte-identical, not just same histogram
    assert sharded.length_histogram() == streak_histogram_reference(
        log, window=30
    )

    out_path = Path(os.environ.get("REPRO_BENCH_PASSES_JSON", "BENCH_passes.json"))
    payload = {}
    if out_path.exists():
        payload = json.loads(out_path.read_text(encoding="utf-8"))
    payload["streaks"] = {
        "queries": len(log),
        "window": 30,
        "workers": workers,
        "chunk_size": "adaptive",
        "serial_seconds": round(serial_seconds, 6),
        "sharded_seconds": round(sharded_seconds, 6),
        "serial_vs_sharded_speedup": round(
            serial_seconds / sharded_seconds if sharded_seconds > 0 else 0.0, 3
        ),
        "chunks_shipped": transport.chunks_shipped,
        "shipped_bytes": transport.shipped_bytes,
        "merge_seconds": round(transport.merge_seconds, 6),
        "streak_count": serial.streak_count,
        "longest": serial.longest,
        "similarity_counters": serial_counters,
        "dp_skip_rate": round(dp_skip_rate, 4),
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    banner("Table 6: serial vs sharded streak scan")
    print(
        f"  {len(log)} queries, window 30: serial {serial_seconds:.3f}s, "
        f"sharded ({workers} workers) {sharded_seconds:.3f}s "
        f"(best of {rounds})"
    )
    print(
        f"  transport: {transport.chunks_shipped} chunks, "
        f"{transport.shipped_bytes} bytes shipped, "
        f"merge {transport.merge_seconds:.4f}s"
    )
    print(
        f"  kernel: {serial_counters['comparisons']} comparisons, "
        f"{serial_counters['dp_runs']} DP runs "
        f"({dp_skip_rate:.1%} settled by prefilters/memo)"
    )
    print(f"  wrote {out_path}")
