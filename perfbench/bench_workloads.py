"""The timed (untraced) workloads: what a user of ``repro`` waits for.

Each workload returns a :class:`Outcome`: the raw samples it measured
and how many of its operations it attempted and how many failed.  A
failure is a non-zero exit, a non-200 response or an output that does
not match the reference computed for the seed.

The host's speed is not steady (see ``bench_gauge``), so the
timings are taken in two ways that cancel most of its changes:

* Single-process operations take turns on the CPUs (see
  :func:`bench_system.placements`): the two CPUs can run at speeds
  twofold apart for minutes, and an unpinned process stays on whichever
  one the scheduler picked, so without turns a run's timings depend on
  where it landed.  Summaries are :func:`bench_stats.balanced_median`.
* Every timed operation is paired with the gauge task, run just
  before it on the same CPUs, and its time is also kept normalized to
  the task's nominal time (:func:`bench_stats.normalize`).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from bench_inputs import WATCH_METRICS, Inputs, ensure_newline, watch_plan
from bench_stats import GAUGE_INLINE_S, GAUGE_PROCESS_S, normalize
from bench_system import (
    ALL_CPUS, Reader, Server, get, inline_gauge_seconds, on_cpu, pin, placements,
    gauge_seconds, run_repro, time_cli_ready,
)

#: Analyze runs per run at least: enough for a tail with 10 samples beyond.
MIN_ANALYZE_RUNS = 11

#: Nominal seconds of one operation (gauge included) by workload: a run
#: makes :func:`operation_count` of them.  The count depends on
#: ``--seconds`` alone, not on how fast the host or the program runs, so
#: both commits of a comparison take their medians and tails over the
#: same number of samples (a tail's percentile depends on that number).
NOMINAL_OPERATION_S = {"paper-tables": 1.25, "streaks-sharded": 2.0, "watch-serve": 10.0}

#: Set-up repetitions of the analyze workloads, taking the CPUs in turn.
SETUP_REPEATS = 10

#: Watch-serve rounds per run at least.
MIN_WATCH_ROUNDS = 2


def operation_count(workload: str, seconds: float, minimum: int) -> int:
    """Operations a run of *workload* makes: *seconds* worth at the
    nominal operation time, and at least *minimum*."""
    return max(minimum, round(seconds / NOMINAL_OPERATION_S[workload]))

#: ``repro serve`` start-ups timed per watch-serve round, taking the CPUs in turn.
SERVE_STARTS = 2

#: The closed-loop reader's endpoint mix (one connection, in order).
READ_MIX = (
    "/tables/1", "/datasets", "/tables/3", "/report",
    "/search?q=SELECT", "/tables/6", "/streaks", "/tables/4",
)


#: A timing sample: the CPU the operation was pinned to (``None``: not
#: pinned), its seconds as measured, and its seconds normalized to the
#: gauge task's nominal time.
Sample = Tuple[Optional[int], float, float]


@dataclass
class Outcome:
    """Samples and operation counts of one workload run."""

    setup_s: List[Sample] = field(default_factory=list)
    latency_s: List[Sample] = field(default_factory=list)
    cycle_s: List[Sample] = field(default_factory=list)
    #: Entries each analyze run (or watch cycle) processed, in sample order.
    entries: List[int] = field(default_factory=list)
    gauge_s: List[Tuple[Optional[int], float]] = field(default_factory=list)
    #: Nominal seconds of the gauge behind :attr:`gauge_s`.
    gauge_nominal_s: float = GAUGE_PROCESS_S
    peak_rss_mb: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    findings: List[str] = field(default_factory=list)

    def record(self, ok: bool, note: str) -> None:
        """Count one operation; keep a note of what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def analyze_workload(
    corpora: List[Inputs], runs: int, work: Path, extra: List[str],
    references: List[str], pinned: bool = True,
) -> Outcome:
    """``repro analyze [EXTRA] FILES`` *runs* times back to back, taking
    the corpora in turn and, when *pinned*, the CPUs in turn; each run's
    stdout must equal its corpus's reference.  Set-up always takes the
    CPUs in turn: it is one process either way."""
    outcome = Outcome()
    cpus = placements()
    for repeat in range(SETUP_REPEATS):
        cpu = cpus[repeat % len(cpus)]
        with on_cpu(cpu):
            gauge = gauge_seconds()
            elapsed, ok = time_cli_ready()
        outcome.setup_s.append((cpu, elapsed, normalize(elapsed, gauge)))
        outcome.record(ok, "python -c 'import repro.cli' failed")
    # Unpinned runs use every CPU, so their gauge runs on every CPU at once.
    cpus, gauge_cpus = (cpus, (None,)) if pinned else ([None], sorted(ALL_CPUS))
    totals = [inputs.properties()["total"] for inputs in corpora]
    for done in range(runs):
        turn, cpu = done % len(corpora), cpus[done % len(cpus)]
        inputs, expected = corpora[turn], references[turn]
        with on_cpu(cpu):
            gauge = gauge_seconds(gauge_cpus)
            run = run_repro(["analyze", *extra, *map(str, inputs.files)],
                            work / "analyze.stderr")
        outcome.gauge_s.append((cpu, gauge))
        outcome.latency_s.append((cpu, run.wall_s, normalize(run.wall_s, gauge)))
        outcome.entries.append(totals[turn])
        outcome.peak_rss_mb.append(run.peak_rss_mb)
        ok = run.returncode == 0 and run.stdout == expected
        outcome.record(ok, f"analyze exit {run.returncode}, output matches: "
                           f"{run.stdout == expected}; {run.stderr.strip()[-200:]}")
    return outcome


def paper_tables(corpora: List[Inputs], seconds: float, work: Path) -> Outcome:
    """Tables 1-5 with one worker, checked against in-process ``study_corpus``."""
    references = [inputs.paper_tables_reference() for inputs in corpora]
    runs = operation_count("paper-tables", seconds, MIN_ANALYZE_RUNS)
    return analyze_workload(corpora, runs, work, [], references)


def streaks_sharded(corpora: List[Inputs], seconds: float, work: Path) -> Outcome:
    """Table 6 over two workers, checked against the one-worker output.
    Not pinned: the two workers need both CPUs."""
    references = [inputs.streaks_reference() for inputs in corpora]
    runs = operation_count("streaks-sharded", seconds, MIN_ANALYZE_RUNS)
    return analyze_workload(
        corpora, runs, work, ["--metrics", "streaks", "--workers", "2"], references,
        pinned=False,
    )


def watch_serve(corpora: List[Inputs], seconds: float, work: Path) -> Outcome:
    """Rounds of: a fresh log set grows batch by batch through
    ``WatchSession.cycle()`` (warehouse ingest on), while one reader
    thread keeps one keep-alive connection to ``repro serve`` busy.
    Rounds take the corpora in turn.  Writer and server sit on different
    CPUs and swap them every cycle."""
    outcome = Outcome(gauge_nominal_s=GAUGE_INLINE_S)
    plans = [(watch_plan(inputs), inputs.watch_reference()) for inputs in corpora]
    for round_number in range(operation_count("watch-serve", seconds, MIN_WATCH_ROUNDS)):
        (initial, batches), expected = plans[round_number % len(plans)]
        watch_round(outcome, work / f"round-{round_number}", initial, batches, expected)
    return outcome


def grow(logs: Path, batch) -> None:
    """Append one batch of lines to the watched logs."""
    by_file: Dict[str, List[str]] = {}
    for name, line in batch:
        by_file.setdefault(name, []).append(line)
    for name, lines in by_file.items():
        with (logs / name).open("a", encoding="utf-8") as handle:
            handle.write("".join(lines))


def start_round(directory: Path, initial: Dict[str, str]) -> List[Path]:
    """Write a round's initial logs; returns the watched files."""
    shutil.rmtree(directory, ignore_errors=True)
    logs = directory / "logs"
    logs.mkdir(parents=True)
    for name, text in initial.items():
        (logs / name).write_text(text, encoding="utf-8")
    return [logs / name for name in initial]


def warehouse_finding(rendered: str, checkpoint) -> List[str]:
    """Whether the warehouse the cycles fed renders like the checkpoint.

    No stated invariant promises this (the warehouse merges per-cycle
    deltas, the checkpoint per-dataset studies), and on some seeds tied
    rows come out in another order, so a difference is reported as a
    finding rather than counted as a failed operation."""
    from repro.reporting import render_report

    if rendered == ensure_newline(render_report(checkpoint)):
        return []
    return ["warehouse report differs from the checkpoint's (row order of ties)"]


def check_round(outcome: Outcome, session, server: Server, warehouse: Path, reference: str) -> None:
    """End-of-round checks: the checkpoint equals one-shot analysis of
    the grown logs (invariant 12) and ``/report`` equals the warehouse's
    own render (invariant 11)."""
    from repro.analysis.snapshot import load_study, study_to_dict
    from repro.warehouse import StudyWarehouse

    checkpoint = load_study(session.study_path)
    outcome.record(
        json.dumps(study_to_dict(checkpoint)) == reference,
        "watch checkpoint study differs from one-shot analysis",
    )
    connection = server.connect()
    try:
        status, served = get(connection, "/report")
    finally:
        connection.close()
    with StudyWarehouse.open(warehouse, readonly=True) as handle:
        rendered = ensure_newline(handle.render())
    outcome.record(status == 200 and served.decode() == rendered,
                   "/report differs from StudyWarehouse.render()")
    outcome.findings.extend(warehouse_finding(rendered, checkpoint))


def watch_round(
    outcome: Outcome, directory: Path, initial: Dict[str, str], batches, expected: str
) -> None:
    """One round of the watch-serve workload, from empty state to fully grown logs."""
    from repro.analysis.incremental import WatchSession

    files = start_round(directory, initial)
    warehouse = directory / "warehouse.sqlite"
    opened = time.perf_counter()
    session = WatchSession(files, directory / "state", metrics=WATCH_METRICS,
                           warehouse_path=warehouse)
    open_s = time.perf_counter() - opened
    session.cycle()  # bulk load of the initial logs: not a steady-state cycle
    cpus = placements()
    for start in range(SERVE_STARTS):
        cpu = cpus[start % len(cpus)]
        with on_cpu(cpu):
            gauge = gauge_seconds()
            launched = time.perf_counter()
            server = Server.start(warehouse, directory / f"serve-{start}.stderr")
            elapsed = open_s + time.perf_counter() - launched
        outcome.setup_s.append((cpu, elapsed, normalize(elapsed, gauge)))
        if start < SERVE_STARTS - 1:
            server.stop()
    try:
        reader = Reader(server, READ_MIX)
        reader.start()
        try:
            for number, batch in enumerate(batches):
                cpu = cpus[number % len(cpus)]
                if cpu is not None:  # the writer (and reader) here, the server on the next CPU
                    pin(os.getpid(), {cpu})
                    pin(server.process.pid, {cpus[(number + 1) % len(cpus)]})
                grow(files[0].parent, batch)
                gauge = inline_gauge_seconds()
                began = time.perf_counter()
                session.cycle()
                elapsed = time.perf_counter() - began
                outcome.gauge_s.append((cpu, gauge))
                outcome.cycle_s.append(
                    (cpu, elapsed, normalize(elapsed, gauge, GAUGE_INLINE_S))
                )
                outcome.entries.append(len(batch))
                outcome.attempted += 1
        finally:
            reader.halt()
            reader.join(timeout=120)
            pin(os.getpid(), ALL_CPUS)
        # GET latency is not normalized: a timer, not the CPU, sets most of it.
        outcome.latency_s.extend((None, latency, latency) for latency in reader.latencies)
        outcome.attempted += len(reader.latencies) + (reader.error is not None)
        outcome.failed += reader.failures
        if reader.failures:
            outcome.notes.append(f"{reader.failures} reader failures ({reader.error})")
        check_round(outcome, session, server, warehouse, expected)
        outcome.peak_rss_mb.append(server.peak_rss_mb())
    finally:
        server.stop()
    shutil.rmtree(directory, ignore_errors=True)


WORKLOADS: Dict[str, Callable[[Inputs, float, Path], Outcome]] = {
    "paper-tables": paper_tables,
    "streaks-sharded": streaks_sharded,
    "watch-serve": watch_serve,
}
