"""Metric declarations and the summary statistics the benchmark reports.

Every metric the runner can print is declared here once, with its unit;
``BENCHMARK.json`` lists the same names (the self-tests check both
agree and that names and units are well-formed).  Timings are
summarized as a median plus a *tail*: the highest percentile that still
has at least :data:`TAIL_BEYOND` samples beyond it, reported with its
percentile label and sample count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence, Tuple

#: Samples that must lie beyond a tail percentile for it to be reported.
TAIL_BEYOND = 10

#: End-to-end metrics, reported by every workload with ``--trace 0``:
#: name -> (unit, better, bound).  ``latency_*`` is what the workload's
#: user waits for: one ``repro analyze`` process (paper-tables,
#: streaks-sharded) or one ``repro serve`` GET while ``watch`` cycles
#: write (watch-serve).  ``entries_per_s`` is the write side of
#: watch-serve: appended entries over ``cycle()`` time.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "entries_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: Subpackages of ``repro`` whose import time is attributed separately;
#: ``core`` is the package root, ``cli``, ``api`` and the small modules.
IMPORT_GROUPS = (
    "analysis", "sparql", "rdf", "logs", "reporting",
    "engine", "warehouse", "workload", "core",
)

#: Service endpoints of the watch-serve mix, by metric stem.
ENDPOINTS = ("tables", "datasets", "report", "search", "streaks")

#: The analyzer passes, timed one at a time (``repro.analysis.PASS_NAMES``).
PASSES = ("shallow", "paths", "operators", "fragments", "structure")

#: Per-layer metrics, reported by every workload with ``--trace 1``:
#: name -> (unit, better).  README.md maps each to the end-to-end
#: metric it should move.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "cli.import_s": ("s", "lower"),
    **{f"cli.import_{group}_s": ("s", "lower") for group in IMPORT_GROUPS},
    "sources.read_s": ("s", "lower"),
    "sources.bytes": ("bytes", "lower"),
    "pipeline.ingest_s": ("s", "lower"),
    "pipeline.unique_share": ("ratio", "lower"),
    "pipeline.parse_cache_hit_rate": ("ratio", "higher"),
    "sparql.parse_s": ("s", "lower"),
    "sparql.invalid": ("count", "lower"),
    **{f"passes.{name}_s": ("s", "lower") for name in PASSES},
    "study.measure_s": ("s", "lower"),
    "passes.structure_cache_hit_rate": ("ratio", "higher"),
    "streaks.scan_s": ("s", "lower"),
    "streaks.comparisons": ("count", "lower"),
    "streaks.dp_runs": ("count", "lower"),
    "streaks.dp_skip_rate": ("ratio", "higher"),
    "parallel.pool_start_s": ("s", "lower"),
    "parallel.sharded_s": ("s", "lower"),
    "parallel.speedup": ("ratio", "higher"),
    "parallel.chunks_shipped": ("count", "lower"),
    "parallel.shipped_bytes": ("bytes", "lower"),
    "parallel.merge_s": ("s", "lower"),
    "snapshot.encode_s": ("s", "lower"),
    "snapshot.decode_s": ("s", "lower"),
    "snapshot.bytes": ("bytes", "lower"),
    "reporting.render_text_s": ("s", "lower"),
    "reporting.render_json_s": ("s", "lower"),
    "reporting.long_rows_s": ("s", "lower"),
    "incremental.cycle_s": ("s", "lower"),
    "incremental.cycle_nowh_s": ("s", "lower"),
    "incremental.checkpoint_bytes": ("bytes", "lower"),
    "incremental.entries_per_cycle": ("count", "higher"),
    "store.ingest_s": ("s", "lower"),
    "store.study_decode_s": ("s", "lower"),
    "store.render_s": ("s", "lower"),
    "store.table_cells_s": ("s", "lower"),
    "store.search_s": ("s", "lower"),
    "store.datasets_s": ("s", "lower"),
    "store.file_bytes": ("bytes", "lower"),
    **{f"service.{endpoint}_p50_ms": ("ms", "lower") for endpoint in ENDPOINTS},
    "service.overhead_ms": ("ms", "lower"),
    "service.fresh_p50_ms": ("ms", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass(frozen=True)
class Tail:
    """A tail percentile: its value, label (e.g. ``p97.3``) and sample count."""

    value: float
    label: str
    samples: int


def median(values: Sequence[float]) -> float:
    """The median of *values* (which must not be empty)."""
    return statistics.median(values)


#: Nominal seconds of the gauge task (``bench_gauge``): its process
#: form, and its in-process form over :data:`GAUGE_INLINE_LINES` lines.
#: They are about the task's times on a quiet 2-CPU host; any fixed
#: values would do, as long as they never change, since a normalized
#: time is ``measured * nominal / gauge``.
GAUGE_PROCESS_S = 0.1
GAUGE_INLINE_S = 0.02
GAUGE_INLINE_LINES = 150


def normalize(seconds: float, gauge: float, nominal: float = GAUGE_PROCESS_S) -> float:
    """*seconds* as they would read had the paired gauge task taken its
    *nominal* time: what the operation costs at a fixed host speed."""
    return seconds * nominal / gauge


def balanced_median(samples: Sequence[Tuple[Hashable, float]]) -> float:
    """The median of *samples* taken per placement, averaged over placements.

    Each sample is ``(placement, value)``; the placement is the CPU the
    operation was pinned to (``None`` when it was not pinned).  On a
    host whose CPUs run at different speeds, operations spread evenly
    over them give a two-humped distribution whose overall median jumps
    from one hump to the other; the mean of the per-CPU medians does not.
    """
    by_placement: Dict[Hashable, list] = {}
    for placement, value in samples:
        by_placement.setdefault(placement, []).append(value)
    return statistics.fmean(median(values) for values in by_placement.values())


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Optional[Tail]:
    """The highest percentile of *values* with at least *beyond* samples
    above it, by nearest rank; ``None`` when there are too few samples.

    With ``n`` sorted samples the value is the one at rank ``n - beyond``
    (1-based), and its percentile is ``100 * (n - beyond) / n``.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    rank = n - beyond
    percent = math.floor(1000 * rank / n) / 10
    return Tail(ordered[rank - 1], f"p{percent:g}", n)
