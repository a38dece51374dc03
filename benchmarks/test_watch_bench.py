"""Watch mode: incremental cycle cost vs full re-analysis.

Builds a deterministic single-day log, checkpoints most of it once,
then times a series of small watch cycles — each with a *fresh*
``WatchSession`` so resume (cursor verification, checkpoint load) and
the atomic checkpoint write are inside the measured window.  A final
one-shot ``analyze_corpora`` over the complete log is timed for
comparison.  Writes ``BENCH_watch.json`` (path overridable via
``REPRO_BENCH_WATCH_JSON``) with both timings, the speedup, and the
byte-identity verdict between the checkpointed study and the one-shot
study (invariant 12).  The CI bench-smoke job uploads the file and
asserts the speedup floor, so a watch cycle that silently degrades to
re-analysing the whole log fails the build.

A second leg runs the same cycles on *one* held session with a
warehouse, the way ``repro watch --warehouse`` runs, and records under
``watch_held`` how often the warehouse decoded its stored study after
the first cycle (the held handle keeps what it wrote, so: never) and
whether the held handle renders exactly like a fresh read-only handle
(invariant 11).  This leg runs every metric, streaks included, and
also records how many streak similarity comparisons and DP runs the
warehouse writes made after the first cycle: each write stores the
session's study as it is and stitches nothing, so: none.  It records
what the session itself did after the first cycle: ``parse_query``
calls, the distinct texts of each slice the dataset had not counted
(a steady cycle parses exactly those), ``StreakAccumulator.merge``
calls (new entries extend the live streak scan, so: none) and the
streak similarity comparisons.  After its timed cycles the leg runs
one idle cycle, and it records what each cycle wrote: how often the
combined study was encoded and flattened to long rows (once per
changed cycle, not at all on an idle one), and how many ``cells`` rows
the warehouse inserted, replaced or deleted (exactly the cells the
cycle diffs report as added, changed or removed).  CI asserts these;
they are counts and identities, so they hold on any runner.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

from _bench_utils import banner
import repro.logs.pipeline as pipeline
from repro.analysis import snapshot
from repro.analysis.passes import PASS_NAMES, SEQUENCE_PASS_NAMES
from repro.analysis.streaks import SIMILARITY_COUNTERS, StreakAccumulator
from repro.api import WatchSession, analyze_corpora, load_study
from repro.reporting import reporters
from repro.warehouse import StudyWarehouse, store
from repro.workload import generate_day_log

ENTRIES = int(os.environ.get("REPRO_BENCH_WATCH_ENTRIES", "2400"))
CYCLES = 8
SLICE = 24
SPEEDUP_FLOOR = 3.0


def _append(path: Path, texts) -> None:
    with path.open("a", encoding="utf-8") as handle:
        for text in texts:
            handle.write(text.replace("\n", "\\n") + "\n")


def _study_bytes(study) -> str:
    return json.dumps(study.to_dict(), sort_keys=True)


def _record(payload: dict) -> None:
    """Merge *payload* key-wise into ``BENCH_watch.json``, the same
    contract as the other bench artifacts."""
    out_path = Path(os.environ.get("REPRO_BENCH_WATCH_JSON", "BENCH_watch.json"))
    if out_path.exists():
        merged = json.loads(out_path.read_text(encoding="utf-8"))
        merged.update(payload)
        payload = merged
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _record_arguments(monkeypatch, function):
    """Route every ``repro`` module's binding of *function* through a
    wrapper; returns the list of the arguments it is called with."""
    calls = []

    def recorded(argument):
        calls.append(argument)
        return function(argument)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, recorded)
    return calls


def test_watch_artifact(tmp_path):
    texts = generate_day_log(n_queries=ENTRIES, seed=7)
    base = len(texts) - CYCLES * SLICE
    assert base > 0, "bench log too small for the cycle schedule"
    log = tmp_path / "day.log"
    state = tmp_path / "watch-state"

    # Seed the checkpoint with the bulk of the log; this first fold is
    # the expensive one and stays outside the measured cycles.
    _append(log, texts[:base])
    WatchSession([str(log)], state).cycle()

    cycle_seconds = []
    for index in range(CYCLES):
        start_entry = base + index * SLICE
        _append(log, texts[start_entry : start_entry + SLICE])
        start = time.perf_counter()
        outcome = WatchSession([str(log)], state).cycle(
            drain=index == CYCLES - 1
        )
        cycle_seconds.append(time.perf_counter() - start)
        assert outcome.total_new == SLICE

    start = time.perf_counter()
    reference = analyze_corpora({"day": texts}).study
    one_shot_seconds = time.perf_counter() - start

    checkpointed = load_study(state / "study.json")
    identical = _study_bytes(checkpointed) == _study_bytes(reference)
    mean_cycle = sum(cycle_seconds) / len(cycle_seconds)
    speedup = one_shot_seconds / mean_cycle

    payload = {
        "watch": {
            "entries": len(texts),
            "cycles": CYCLES,
            "entries_per_cycle": SLICE,
            "one_shot_seconds": round(one_shot_seconds, 6),
            "mean_cycle_seconds": round(mean_cycle, 6),
            "max_cycle_seconds": round(max(cycle_seconds), 6),
            "speedup": round(speedup, 2),
            "identical_study": identical,
        }
    }
    _record(payload)

    banner("Watch mode: incremental cycle vs full re-analysis")
    print(
        f"  one-shot: {len(texts):,} entries in {one_shot_seconds:8.4f}s; "
        f"cycle: {SLICE} entries in {mean_cycle:8.4f}s mean "
        f"(max {max(cycle_seconds):8.4f}s)"
    )
    print(f"  speedup: {speedup:,.1f}x; identical study: {identical}")

    assert identical, "checkpointed study must match one-shot analysis"
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental cycle only {speedup:.1f}x faster than re-analysis "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def test_watch_held_session_artifact(tmp_path, monkeypatch):
    texts = generate_day_log(n_queries=ENTRIES, seed=7)
    base = len(texts) - CYCLES * SLICE
    log = tmp_path / "day.log"
    warehouse = tmp_path / "warehouse.sqlite"
    decodes = []
    decode = store._decode_study

    def counted_decode(*args):
        decodes.append(args[0])
        return decode(*args)

    monkeypatch.setattr(store, "_decode_study", counted_decode)
    writes = []
    replace_part = StudyWarehouse.replace_part

    def counted_replace_part(*args, **kwargs):
        before = SIMILARITY_COUNTERS.to_dict()
        try:
            return replace_part(*args, **kwargs)
        finally:
            writes.append(SIMILARITY_COUNTERS.delta_since(before))

    monkeypatch.setattr(StudyWarehouse, "replace_part", counted_replace_part)
    parses = []
    parse_query = pipeline.parse_query

    def counted_parse_query(*args, **kwargs):
        parses.append(args[0])
        return parse_query(*args, **kwargs)

    monkeypatch.setattr(pipeline, "parse_query", counted_parse_query)
    merges = []
    merge = StreakAccumulator.merge

    def counted_merge(self, other):
        merges.append(other.length)
        return merge(self, other)

    monkeypatch.setattr(StreakAccumulator, "merge", counted_merge)
    encoded = _record_arguments(monkeypatch, snapshot.study_to_dict)
    flattened = _record_arguments(monkeypatch, reporters.study_long_rows)
    cell_writes = []

    def count_cell_write(statement):
        if statement.startswith(
            ("INSERT OR REPLACE INTO cells", "DELETE FROM cells WHERE")
        ):
            cell_writes.append(statement)

    _append(log, texts[:base])
    cycle_seconds = []
    with WatchSession(
        [str(log)], tmp_path / "watch-state",
        metrics=PASS_NAMES + SEQUENCE_PASS_NAMES, warehouse_path=warehouse,
    ) as session:
        session.cycle()
        session._warehouse._connection.set_trace_callback(count_cell_write)
        decodes.clear()
        writes.clear()
        parses.clear()
        merges.clear()
        flattened.clear()
        unseen_texts = 0
        outcomes = []
        combined_encodes = 0
        before = SIMILARITY_COUNTERS.to_dict()
        for index in range(CYCLES):
            start_entry = base + index * SLICE
            batch = texts[start_entry : start_entry + SLICE]
            counted = session._seen["day"]
            unseen_texts += len({
                text for text in batch
                if hashlib.sha256(text.encode("utf-8")).hexdigest() not in counted
            })
            _append(log, batch)
            encoded.clear()
            start = time.perf_counter()
            outcome = session.cycle(drain=index == CYCLES - 1)
            cycle_seconds.append(time.perf_counter() - start)
            assert outcome.total_new == SLICE
            outcomes.append(outcome)
            combined_encodes += sum(study is session.study for study in encoded)
        encoded.clear()
        outcomes.append(session.cycle())  # idle: nothing new
        combined_encodes += sum(study is session.study for study in encoded)
        changed_cycles = sum(outcome.changed for outcome in outcomes)
        # Cell lines of the diffs: "  + added", "    changed: a -> b", "  - removed".
        diff_cells = sum(
            line.startswith("  ")
            for outcome in outcomes
            for line in outcome.diff.splitlines()
        )
        session_comparisons = SIMILARITY_COUNTERS.delta_since(before)["comparisons"]
        stored_study_decodes = len(decodes)
        warehouse_comparisons = sum(write["comparisons"] for write in writes)
        warehouse_dp_runs = sum(write["dp_runs"] for write in writes)
        held = session._warehouse.render()
    with StudyWarehouse.open(warehouse, readonly=True) as fresh:
        identical = held == fresh.render()
    mean_cycle = sum(cycle_seconds) / len(cycle_seconds)

    _record(
        {
            "watch_held": {
                "entries": len(texts),
                "cycles": CYCLES,
                "entries_per_cycle": SLICE,
                "mean_cycle_seconds": round(mean_cycle, 6),
                "stored_study_decodes": stored_study_decodes,
                "warehouse_comparisons": warehouse_comparisons,
                "warehouse_dp_runs": warehouse_dp_runs,
                "warehouse_identical": identical,
                "session_parses": len(parses),
                "session_unseen_texts": unseen_texts,
                "session_streak_merges": len(merges),
                "session_comparisons": session_comparisons,
                "changed_cycles": changed_cycles,
                "combined_encodes": combined_encodes,
                "long_rows_calls": len(flattened),
                "cells_written": len(cell_writes),
                "diff_cells": diff_cells,
            }
        }
    )

    banner("Watch mode: one held session with a warehouse")
    print(
        f"  cycle: {SLICE} entries in {mean_cycle:8.4f}s mean; "
        f"stored-study decodes after the first cycle: {stored_study_decodes}; "
        f"warehouse write comparisons / DP runs: "
        f"{warehouse_comparisons} / {warehouse_dp_runs}; "
        f"held render == fresh render: {identical}"
    )
    print(
        f"  session after the first cycle: {len(parses)} parses of "
        f"{unseen_texts} uncounted texts; {len(merges)} streak stitches; "
        f"{session_comparisons} similarity comparisons"
    )
    print(
        f"  {changed_cycles} changed cycles and 1 idle: {combined_encodes} "
        f"combined-study encodes, {len(flattened)} long-row flattenings, "
        f"{len(cell_writes)} cells written for {diff_cells} changed cells"
    )

    assert stored_study_decodes == 0, "the held handle decoded its study again"
    assert len(writes) == CYCLES, "the session wrote its part once per cycle"
    assert warehouse_comparisons == 0, "the warehouse write compared query texts"
    assert warehouse_dp_runs == 0, "the warehouse re-ran the session's stitch DP"
    assert identical, "held-handle render must equal a fresh read-only render"
    assert len(parses) == unseen_texts, "a steady cycle parsed a counted text"
    assert not merges, "a steady cycle stitched a streak accumulator"
    assert changed_cycles == CYCLES, "every timed cycle grew the study"
    assert combined_encodes == changed_cycles, "the combined study was encoded again"
    assert len(flattened) == changed_cycles, "the combined study was flattened again"
    assert len(cell_writes) == diff_cells, "the warehouse rewrote unchanged cells"
