"""The traced run: per-layer times, counts and ratios.

One *sweep* drives every layer through its public calls, each call
inside a span: the three workloads' operations in-process
(``workload.*`` spans), plus probes that isolate single layers (one
analyzer pass at a time, a serial streak scan, snapshot codec, direct
warehouse reads, the HTTP service).  Spans named ``harness.*`` are the
benchmark's own work (writing the growing logs, starting the server,
comparing outputs) and count as accounted.  Sweeps repeat for the run's
seconds and every metric is the median over sweeps.

The traced run fails when the spans' self times cover less than
:data:`MIN_COVERAGE` of a sweep's wall time, or when an output check
fails.  Its overhead is the traced wall time of the selected workload's
operation minus the same operation run untraced.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from bench_inputs import WATCH_METRICS, Inputs, ensure_newline, watch_plan
from bench_report import layer_lines, metric, print_inputs
from bench_stats import ENDPOINTS, IMPORT_GROUPS, PASSES, PER_LAYER, median
from bench_system import DATA, Server, body_ok, get, import_times
from bench_trace import NullTracer, Tracer
from bench_workloads import Outcome, grow, start_round, warehouse_finding

#: Least share of a sweep's wall time the spans must account for.
MIN_COVERAGE = 0.9

#: Calls per direct store read and per service endpoint in one sweep.
REPEATS = 7

#: Warehouse ingests timed per sweep (each a distinct 24-entry study).
INGESTS = 5

#: The service request standing for each endpoint metric, and the
#: direct read-handle call that answers the same request.
ENDPOINT_CALLS: Dict[str, Tuple[str, Callable]] = {
    "tables": ("/tables/1", lambda handle: handle.table_cells(1)),
    "datasets": ("/datasets", lambda handle: handle.datasets()),
    "report": ("/report", lambda handle: handle.render()),
    "search": ("/search?q=SELECT", lambda handle: handle.search("SELECT")),
    "streaks": ("/streaks", lambda handle: handle.streak_histograms()),
}

STREAK_OPTIONS = {"metrics": ("streaks",), "lean_ingestion": True}


# -- the workloads' operations, in-process --------------------------------


def op_paper_tables(tr, inputs: Inputs) -> dict:
    """``repro analyze`` of Tables 1-5 in-process: read, ingest, measure, render."""
    from repro.analysis.study import study_corpus
    from repro.logs import ParseCache, dataset_name, process_entries, read_entries
    from repro.reporting import render_report

    with tr.span("sources.read"):
        texts = {dataset_name(path): read_entries(path) for path in inputs.files}
    cache = ParseCache()
    with tr.span("pipeline.ingest"):
        logs = {
            name: process_entries(entries, cache=cache).to_query_log(name)
            for name, entries in texts.items()
        }
    with tr.span("study.measure"):
        study = study_corpus(logs)
    with tr.span("reporting.render_text"):
        text = ensure_newline(render_report(study))
    return {"texts": texts, "logs": logs, "cache": cache, "study": study, "text": text}


def op_streaks_sharded(tr, texts) -> Tuple[str, object]:
    """``repro analyze --metrics streaks --workers 2`` in-process."""
    from repro.analysis import AnalysisOptions, build_query_logs_parallel
    from repro.analysis.parallel import TransportStats, WorkerPool
    from repro.analysis.study import study_corpus
    from repro.reporting import render_report

    options = AnalysisOptions(**STREAK_OPTIONS)
    transport = TransportStats()
    pool = WorkerPool(2)
    try:
        with tr.span("parallel.pool_start"):
            pool.executor().submit(int, 0).result()
        with tr.span("parallel.sharded"):
            logs = build_query_logs_parallel(
                texts, workers=2, options=options, pool=pool, transport=transport
            )
            study = study_corpus(
                logs, workers=2, options=options, pool=pool, transport=transport
            )
        with tr.span("reporting.render_streaks"):
            text = ensure_newline(render_report(study))
    finally:
        with tr.span("parallel.pool_stop"):
            pool.close()
    return text, transport


def op_watch(tr, directory: Path, plan, warehouse: bool, cycle_span: str):
    """A watch round from empty state to fully grown logs."""
    from repro.analysis.incremental import WatchSession

    initial, batches = plan
    with tr.span("harness.round"):
        files = start_round(directory, initial)
    path = directory / "warehouse.sqlite" if warehouse else None
    with tr.span("incremental.open"):
        session = WatchSession(files, directory / "state", metrics=WATCH_METRICS,
                               warehouse_path=path)
    with tr.span("incremental.preload"):
        session.cycle()
    for batch in batches:
        with tr.span("harness.append"):
            grow(files[0].parent, batch)
        with tr.span(cycle_span):
            session.cycle()
    return session


def run_op(tracer, workload: str, inputs: Inputs, texts, work: Path, plan):
    """*workload*'s in-process operation under *tracer*, in its workload span."""
    with tracer.span(f"workload.{workload}"):
        if workload == "paper-tables":
            return op_paper_tables(tracer, inputs)
        if workload == "streaks-sharded":
            return op_streaks_sharded(tracer, texts)
        return op_watch(tracer, work / workload, plan, True, "incremental.cycle")


def tracing_overhead(workload: str, inputs: Inputs, work: Path) -> Tuple[float, float]:
    """Median wall of the workload's operation traced and untraced, run in
    alternating pairs (fewer pairs for the long watch round)."""
    texts, plan = inputs.entries(), watch_plan(inputs)
    traced, untraced = [], []
    for pair in range(1 if workload == "watch-serve" else 3):
        order = [(traced, Tracer("overhead")), (untraced, NullTracer())]
        for samples, tracer in order[::-1] if pair % 2 else order:
            start = time.perf_counter()
            run_op(tracer, workload, inputs, texts, work, plan)
            samples.append(time.perf_counter() - start)
    return median(traced), median(untraced)


# -- one sweep ---------------------------------------------------------------


def sweep(tr: Tracer, inputs: Inputs, work: Path, checks: Outcome) -> Dict[str, float]:
    """Drive every layer once under *tr*; returns this sweep's metric values."""
    from repro.analysis import AnalysisOptions, build_query_logs_parallel
    from repro.analysis.snapshot import load_study, study_from_dict, study_to_dict
    from repro.analysis.streaks import SIMILARITY_COUNTERS
    from repro.analysis.study import study_corpus
    from repro.api import analyze_corpora
    from repro.exceptions import SparqlSyntaxError
    from repro.rdf.namespaces import WELL_KNOWN_PREFIXES
    from repro.reporting import render_report
    from repro.reporting.reporters import study_long_rows
    from repro.sparql import parse_query
    from repro.warehouse import StudyWarehouse

    plan = watch_plan(inputs)
    entries = inputs.entries()
    largest = max(entries, key=lambda name: len(entries[name]))
    deltas = [
        analyze_corpora({largest: entries[largest][24 * i:24 * (i + 1)]},
                        metrics=WATCH_METRICS).study
        for i in range(INGESTS)
    ]
    streak_options = AnalysisOptions(**STREAK_OPTIONS)
    values: Dict[str, float] = {}

    with tr.span("trace") as root:
        with tr.span("cli.import"):
            total, groups = import_times()
        values["cli.import_s"] = total
        for group in IMPORT_GROUPS:
            values[f"cli.import_{group}_s"] = groups.get(group, 0.0)

        state = run_op(tr, "paper-tables", inputs, None, work, plan)
        with tr.span("harness.check"):
            checks.record(state["text"] == inputs.paper_tables_reference(),
                          "in-process Tables 1-5 differ from the reference")
        logs, cache, study = state["logs"], state["cache"], state["study"]

        distinct = list(dict.fromkeys(t for texts in state["texts"].values() for t in texts))
        prefixes = dict(WELL_KNOWN_PREFIXES)
        invalid = 0
        with tr.span("sparql.parse"):
            for text in distinct:
                try:
                    parse_query(text, extra_prefixes=prefixes)
                except (SparqlSyntaxError, RecursionError):
                    invalid += 1
        values["sparql.invalid"] = invalid

        for name in PASSES:
            with tr.span(f"passes.{name}"):
                study_corpus(logs, options=AnalysisOptions(metrics=(name,)))
        with tr.span("passes.profiled"):
            profile = study_corpus(logs, options=AnalysisOptions(profile=True)).pass_profile

        with tr.span("snapshot.encode"):
            document = json.dumps(study_to_dict(study))
        with tr.span("snapshot.decode"):
            study_from_dict(json.loads(document))
        with tr.span("reporting.render_json"):
            render_report(study, "json")
        with tr.span("reporting.long_rows"):
            study_long_rows(study)

        SIMILARITY_COUNTERS.reset()
        with tr.span("streaks.scan"):
            lean = build_query_logs_parallel(state["texts"], workers=1, options=streak_options)
            serial = study_corpus(lean, workers=1, options=streak_options)
        counters = SIMILARITY_COUNTERS.to_dict()
        values["streaks.dp_skip_rate"] = SIMILARITY_COUNTERS.dp_skip_rate
        with tr.span("reporting.render_streaks"):
            serial_text = ensure_newline(render_report(serial))
        sharded_text, transport = run_op(tr, "streaks-sharded", inputs, state["texts"], work, plan)
        with tr.span("harness.check"):
            checks.record(serial_text == inputs.streaks_reference(),
                          "serial streaks report differs from the reference")
            checks.record(sharded_text == serial_text,
                          "sharded streaks report differs from the serial one")

        op_watch(tr, work / "nowh", plan, False, "incremental.cycle_nowh")
        session = run_op(tr, "watch-serve", inputs, None, work, plan)
        warehouse = work / "watch-serve" / "warehouse.sqlite"
        with tr.span("harness.check"):
            checkpoint = load_study(session.study_path)
            checks.record(json.dumps(study_to_dict(checkpoint)) == inputs.watch_reference(),
                          "watch checkpoint differs from one-shot analysis")
            with StudyWarehouse.open(warehouse, readonly=True) as handle:
                checks.findings += warehouse_finding(ensure_newline(handle.render()), checkpoint)

        with StudyWarehouse.open(warehouse) as writable:
            for delta in deltas:
                with tr.span("store.ingest"):
                    writable.ingest(delta, source="perfbench")
        for _ in range(3):
            with tr.span("store.open"):
                handle = StudyWarehouse.open(warehouse, readonly=True)
            with handle:
                with tr.span("store.study_decode"):
                    handle.study()
                for _ in range(REPEATS):
                    for endpoint, (_, call) in ENDPOINT_CALLS.items():
                        with tr.span(f"store.{endpoint}"):
                            call(handle)
                with tr.span("harness.check"):
                    report = ensure_newline(handle.render())

        with tr.span("harness.serve_start"):
            server = Server.start(warehouse, work / "serve.stderr")
        try:
            connection = server.connect()
            try:
                for endpoint, (path, _) in ENDPOINT_CALLS.items():
                    for _ in range(REPEATS):
                        with tr.span(f"service.{endpoint}"):
                            status, body = get(connection, path)
                        checks.record(status == 200 and body_ok(path, body),
                                      f"GET {path} answered {status}")
                for endpoint, (path, _) in ENDPOINT_CALLS.items():
                    for _ in range(REPEATS):
                        fresh = server.connect()
                        with tr.span("service.fresh"):
                            status, body = get(fresh, path)
                        fresh.close()
                        checks.record(status == 200 and body_ok(path, body),
                                      f"GET {path} on a fresh connection answered {status}")
                with tr.span("harness.check"):
                    status, served = get(connection, "/report")
                    checks.record(status == 200 and served.decode() == report,
                                  "/report differs from StudyWarehouse.render()")
            finally:
                connection.close()
        finally:
            with tr.span("harness.serve_stop"):
                server.stop()

    def p50(name: str) -> float:
        return median(tr.durations(name))

    values.update({
        "sources.read_s": p50("sources.read"),
        "sources.bytes": sum(path.stat().st_size for path in inputs.files),
        "pipeline.ingest_s": p50("pipeline.ingest"),
        "pipeline.unique_share": sum(log.unique for log in logs.values())
        / sum(log.total for log in logs.values()),
        "pipeline.parse_cache_hit_rate": cache.hits / (cache.hits + cache.misses),
        "sparql.parse_s": p50("sparql.parse"),
        **{f"passes.{name}_s": p50(f"passes.{name}") for name in PASSES},
        "study.measure_s": p50("study.measure"),
        "passes.structure_cache_hit_rate": profile.cache_hit_rate,
        "streaks.scan_s": p50("streaks.scan"),
        "streaks.comparisons": counters["comparisons"],
        "streaks.dp_runs": counters["dp_runs"],
        "parallel.pool_start_s": p50("parallel.pool_start"),
        "parallel.sharded_s": p50("parallel.sharded"),
        "parallel.speedup": p50("streaks.scan") / p50("parallel.sharded"),
        "parallel.chunks_shipped": transport.chunks_shipped,
        "parallel.shipped_bytes": transport.shipped_bytes,
        "parallel.merge_s": transport.merge_seconds,
        "snapshot.encode_s": p50("snapshot.encode"),
        "snapshot.decode_s": p50("snapshot.decode"),
        "snapshot.bytes": len(document.encode()),
        "reporting.render_text_s": p50("reporting.render_text"),
        "reporting.render_json_s": p50("reporting.render_json"),
        "reporting.long_rows_s": p50("reporting.long_rows"),
        "incremental.cycle_s": p50("incremental.cycle"),
        "incremental.cycle_nowh_s": p50("incremental.cycle_nowh"),
        "incremental.checkpoint_bytes": session.checkpoint_path.stat().st_size,
        "incremental.entries_per_cycle": median([len(batch) for batch in plan[1]]),
        "store.ingest_s": p50("store.ingest"),
        "store.study_decode_s": p50("store.study_decode"),
        "store.render_s": p50("store.report"),
        "store.table_cells_s": p50("store.tables"),
        "store.search_s": p50("store.search"),
        "store.datasets_s": p50("store.datasets"),
        "store.file_bytes": sum(
            path.stat().st_size for path in warehouse.parent.glob("warehouse.sqlite*")
        ),
    })
    overheads = []
    for endpoint in ENDPOINTS:
        client_ms = p50(f"service.{endpoint}") * 1e3
        values[f"service.{endpoint}_p50_ms"] = client_ms
        overheads.append(client_ms - p50(f"store.{endpoint}") * 1e3)
    values["service.overhead_ms"] = median(overheads)
    values["service.fresh_p50_ms"] = p50("service.fresh") * 1e3
    values["trace.wall_s"] = tr.duration(root)
    values["trace.coverage"] = tr.coverage(root)
    return values


def traced_run(workload: str, inputs: Inputs, seconds: float, work: Path):
    """Sweep for *seconds* (at least once); print and return the per-layer
    metrics with the check counts and whether coverage held."""
    print_inputs(inputs)
    checks = Outcome()
    tracers: List[Tracer] = []
    sweeps: List[Dict[str, float]] = []
    start = time.perf_counter()
    while not sweeps or time.perf_counter() - start < seconds:
        tracer = Tracer(f"{workload}-seed{inputs.seed}-sweep{len(sweeps)}")
        directory = work / f"sweep-{len(sweeps)}"
        sweeps.append(sweep(tracer, inputs, directory, checks))
        tracers.append(tracer)
        shutil.rmtree(directory, ignore_errors=True)
    traced, untraced = tracing_overhead(workload, inputs, work)
    values = {name: median([values[name] for values in sweeps]) for name in sweeps[0]}
    values["trace.overhead_s"] = traced - untraced
    values = {name: values[name] for name in PER_LAYER}

    spans = DATA / "traces" / f"{workload}-seed{inputs.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.write_text(json.dumps([tracer.export() for tracer in tracers]) + "\n")
    covered = min(values["trace.coverage"] for values in sweeps)
    wall = sum(tracer.duration(tracer.spans[0]) for tracer in tracers)
    layer_self: Dict[str, float] = {}
    for tracer in tracers:
        for layer, own in tracer.layer_self_times().items():
            layer_self[layer] = layer_self.get(layer, 0.0) + own
    print(f"{workload} traced run (corpus seed {inputs.seed}, {len(sweeps)} sweeps):")
    layer_lines(values, layer_self, wall, [
        f"coverage: {covered:.1%} of traced wall time in layer spans (minimum over sweeps;"
        f" needs {MIN_COVERAGE:.0%})",
        f"tracing overhead: {values['trace.overhead_s'] * 1e3:.2f} ms on workload.{workload}"
        f" ({traced:.4f} s traced vs {untraced:.4f} s untraced)",
        f"spans: {spans.relative_to(DATA.parent)}",
        f"error_rate: {checks.failed} of {checks.attempted} checks failed",
        *(f"failure: {note}" for note in checks.notes),
        *(f"finding: {finding}" for finding in checks.findings),
    ])
    metrics = {name: metric(name, value) for name, value in values.items()}
    return metrics, checks.attempted, checks.failed, covered >= MIN_COVERAGE
