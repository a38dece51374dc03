"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze FILE [FILE...]`` — run the paper's full study over files of
  SPARQL queries (one query per line with ``\\n`` escapes, blank-line
  separated blocks, or Apache access-log lines) and report it in any
  registered format (``--format``); ``--save-study`` checkpoints the
  study as a portable JSON snapshot.
* ``merge STUDY.json [STUDY.json...]`` — combine saved study snapshots
  (e.g. from different machines or shards) into one.
* ``report STUDY.json`` — render a saved snapshot in any format.
* ``corpus --scale S --out DIR`` — generate the calibrated synthetic
  corpus, one ``.log`` file of access-log lines per dataset.
* ``figure3 [--nodes N] [--timeout T]`` — run the chain/cycle engine
  experiment and print Figure 3.
* ``streaks FILE|--synthetic N`` — detect streaks (Table 6) in an
  ordered query log.
* ``watch FILE [FILE...] --state DIR`` — incremental always-on
  analysis: tail growing logs with resumable cursors, fold each new
  suffix into a checkpointed study, and print a diff report per cycle
  (what changed in Tables 1–6); killing and restarting resumes from
  the last durable checkpoint.
* ``warehouse ingest|query|stats`` — maintain and query a persistent
  study warehouse (a SQLite file study snapshots are upserted into);
  queries are answered from the warehouse without re-running analysis.
* ``serve WAREHOUSE`` — serve a warehouse over HTTP with paginated
  JSON endpoints (stdlib ``http.server``; no extra dependencies).

The CLI is a thin veneer over :mod:`repro.api`; every command is
covered by the test suite through :func:`main`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .analysis.context import DEFAULT_SHAPE_NODE_LIMIT, DEFAULT_STRUCTURE_CACHE_SIZE
from .analysis.passes import PASS_NAMES, SEQUENCE_PASS_NAMES, resolve_passes
from .analysis.streaks import DEFAULT_STREAK_THRESHOLD, DEFAULT_STREAK_WINDOW
from .api import (
    AnalysisRequest,
    AnalysisSession,
    CorpusStudy,
    load_study,
    save_study,
)
from .exceptions import (
    StudySnapshotError,
    WarehouseError,
    WatchStateError,
    WorkloadError,
)
from .logs import encode_access_log_line
from .reporting import (
    get_reporter,
    render_figure3,
    render_pass_profile,
    render_report,
    render_text,
    reporter_names,
    table6_section,
)

# Verb-specific layers (engine, workload, warehouse, the watch session)
# are imported inside the verbs that use them: every spawned ``repro``
# process pays for each module it imports.

__all__ = ["main"]


def _emit(output: str) -> None:
    """Write a rendered report to stdout with exactly one trailing newline."""
    if not output.endswith("\n"):
        output += "\n"
    sys.stdout.write(output)


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        get_reporter(args.format)
    except ValueError as error:
        print(f"analyze: {error}", file=sys.stderr)
        return 2
    request = AnalysisRequest(
        inputs=tuple(args.files),
        dedup=not args.keep_duplicates,
        metrics=args.metrics,
        shape_node_limit=args.shape_node_limit,
        cache_size=args.cache_size,
        profile=args.profile_passes,
        workers=args.workers,
        chunk_size=args.chunk_size,
        streak_window=args.streak_window,
        streak_threshold=args.streak_threshold,
    )
    try:
        with AnalysisSession() as session:
            result = session.run(request)
    except (ValueError, OSError) as error:
        # Bad options and unreadable inputs exit the same way: code 2
        # with a one-line message, never a traceback.
        print(f"analyze: {error}", file=sys.stderr)
        return 2
    if args.save_study:
        try:
            result.save(args.save_study)
        except OSError as error:
            print(f"analyze: cannot write study snapshot: {error}", file=sys.stderr)
            return 2
    _emit(result.render(args.format))
    if args.profile_passes and result.profile is not None and args.format == "text":
        print()
        print(render_pass_profile(result.profile))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    # Load-and-merge one snapshot at a time (same semantics and bytes
    # as `merge_studies`, bounded memory) so every failure names the
    # offending file: with a dozen shards on the command line, "schema
    # version 99" alone is not actionable.
    merged: Optional[CorpusStudy] = None
    for path in args.studies:
        try:
            study = load_study(path)
        except (StudySnapshotError, OSError) as error:
            print(f"merge: {path}: {error}", file=sys.stderr)
            return 2
        try:
            if merged is None:
                merged = CorpusStudy(dedup=study.dedup)
            merged.merge(study)
        except ValueError as error:
            print(f"merge: {path}: {error}", file=sys.stderr)
            return 2
    if args.out:
        try:
            save_study(merged, args.out)
        except OSError as error:
            print(f"merge: cannot write {args.out}: {error}", file=sys.stderr)
            return 2
        print(
            f"wrote merged study of {len(merged.datasets)} dataset(s) "
            f"to {args.out}"
        )
    else:
        # The registry's json reporter IS the snapshot format; going
        # through it keeps `repro merge` stdout byte-identical to
        # `repro report --format json` by construction.
        _emit(render_report(merged, "json"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        reporter = get_reporter(args.format)
    except ValueError as error:
        print(f"report: {error}", file=sys.stderr)
        return 2
    try:
        study = load_study(args.study)
    except (StudySnapshotError, OSError) as error:
        print(f"report: {error}", file=sys.stderr)
        return 2
    _emit(reporter.render(study))
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .workload import generate_corpus

    corpus = generate_corpus(scale=args.scale, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, queries in corpus.items():
        safe = name.replace("/", "_")
        path = out_dir / f"{safe}.log"
        with path.open("w", encoding="utf-8") as handle:
            for query in queries:
                handle.write(encode_access_log_line(query) + "\n")
        print(f"wrote {len(queries):>6} entries to {path}")
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from .engine import IndexedEngine, NestedLoopEngine
    from .workload import bib_schema, generate_graph, generate_workload

    schema = bib_schema()
    workloads = []
    try:
        # Every workload before any engine runs: a length the generator
        # rejects (cycles need >= 3) fails at once, not minutes in.
        for length in args.lengths:
            for shape in ("chain", "cycle"):
                workload = generate_workload(
                    schema, shape, length, args.queries, seed=length
                )
                workloads.append((f"{shape}-W{length}", [q.text for q in workload]))
    except WorkloadError as error:
        print(f"figure3: {error}", file=sys.stderr)
        return 2
    graph = generate_graph(schema, args.nodes, seed=args.seed)
    print(f"graph: {len(graph):,} triples")
    engines = {
        "BG": IndexedEngine(graph, timeout=args.timeout),
        "PG": NestedLoopEngine(graph, timeout=args.timeout),
    }
    results = []
    for label, texts in workloads:
        for engine in engines.values():
            results.append(engine.run_workload(texts, label=label))
    print(render_figure3(results))
    return 0


def _cmd_streaks(args: argparse.Namespace) -> int:
    """Thin wrapper over the facade: ``repro streaks`` is ``repro
    analyze --metrics streaks`` printing only the Table 6 block."""
    common = dict(
        metrics=("streaks",),
        streak_window=args.window,
        streak_threshold=args.threshold,
        workers=args.workers,
        chunk_size=args.chunk_size,
    )
    if args.synthetic:
        from .workload import generate_day_log

        queries: Sequence[str] = generate_day_log(
            n_queries=args.synthetic, seed=args.seed
        )
        name = f"synthetic-{args.synthetic}"
        request = AnalysisRequest(corpora={name: queries}, **common)  # type: ignore[arg-type]
    else:
        if not args.file:
            print("streaks: provide FILE or --synthetic N", file=sys.stderr)
            return 2
        request = AnalysisRequest(inputs=(args.file,), **common)  # type: ignore[arg-type]
    try:
        with AnalysisSession() as session:
            result = session.run(request)
    except (ValueError, OSError) as error:
        print(f"streaks: {error}", file=sys.stderr)
        return 2
    blocks = table6_section(result.study)
    if not blocks:  # pragma: no cover - the metric always attaches state
        print("streaks: no streak state was produced", file=sys.stderr)
        return 2
    print(render_text(blocks))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Incremental always-on analysis over growing logs."""
    from .analysis.incremental import WatchSession

    try:
        session = WatchSession(
            tuple(args.files),
            args.state,
            metrics=args.metrics,
            streak_window=args.streak_window,
            streak_threshold=args.streak_threshold,
            shape_node_limit=args.shape_node_limit,
            warehouse_path=args.warehouse,
        )
    except (ValueError, WatchStateError, OSError) as error:
        print(f"watch: {error}", file=sys.stderr)
        return 2
    remaining = args.cycles  # 0 means: run until interrupted
    try:
        while True:
            drain = remaining == 1 and not args.no_drain
            outcome = session.cycle(drain=drain)
            print(
                f"cycle {outcome.generation}: "
                f"{outcome.total_new} new entries"
                + (" (drained)" if drain else "")
            )
            if outcome.diff:
                _emit(outcome.diff)
            if remaining:
                remaining -= 1
                if not remaining:
                    break
            if args.interval > 0:
                time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    except (
        ValueError, WatchStateError, StudySnapshotError, WarehouseError, OSError
    ) as error:
        print(f"watch: {error}", file=sys.stderr)
        return 2
    finally:
        session.close()
    print(f"study checkpoint: {session.study_path}")
    return 0


def _emit_page(total: int, items: List[dict]) -> None:
    """Print one page of warehouse query results as indented JSON."""
    _emit(json.dumps({"total": total, "items": items}, indent=2))


def _cmd_warehouse_ingest(args: argparse.Namespace) -> int:
    from .warehouse import StudyWarehouse

    try:
        with StudyWarehouse.open(args.store) as warehouse:
            for path in args.studies:
                try:
                    study = load_study(path)
                except (StudySnapshotError, OSError) as error:
                    print(f"warehouse: {path}: {error}", file=sys.stderr)
                    return 2
                outcome = warehouse.ingest(study, source=str(path))
                print(f"{outcome:>9}  {path}")
            stats = warehouse.stats()
    except WarehouseError as error:
        print(f"warehouse: {error}", file=sys.stderr)
        return 2
    print(
        f"warehouse holds {stats['datasets']} dataset(s) "
        f"from {stats['ingests']} snapshot(s)"
    )
    return 0


def _cmd_warehouse_query(args: argparse.Namespace) -> int:
    if args.dataset is not None and args.table is None:
        print("warehouse: --dataset requires --table", file=sys.stderr)
        return 2
    try:
        get_reporter(args.format)
    except ValueError as error:
        print(f"warehouse: {error}", file=sys.stderr)
        return 2
    from .warehouse import StudyWarehouse

    try:
        with StudyWarehouse.open(args.store, readonly=True) as warehouse:
            if args.search is not None:
                total, items = warehouse.search(
                    args.search, limit=args.limit, offset=args.offset
                )
                _emit_page(total, items)
            elif args.datasets:
                total, items = warehouse.datasets(
                    limit=args.limit, offset=args.offset
                )
                _emit_page(total, items)
            elif args.streaks:
                total, items = warehouse.streak_histograms(
                    limit=args.limit, offset=args.offset
                )
                _emit_page(total, items)
            elif args.caveats:
                _emit(json.dumps(warehouse.caveats(), indent=2))
            elif args.table is not None:
                if args.dataset is not None:
                    total, items = warehouse.table_cells(
                        args.table,
                        dataset=args.dataset,
                        limit=args.limit,
                        offset=args.offset,
                    )
                    _emit_page(total, items)
                else:
                    # The corpus-wide text block is a byte-exact slice
                    # of the full `repro report` document.
                    _emit(warehouse.table_text(args.table))
            else:
                _emit(warehouse.render(args.format))
    except WarehouseError as error:
        print(f"warehouse: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_warehouse_stats(args: argparse.Namespace) -> int:
    from .warehouse import StudyWarehouse

    try:
        with StudyWarehouse.open(args.store, readonly=True) as warehouse:
            stats = warehouse.stats()
            log = warehouse.ingest_log()
    except WarehouseError as error:
        print(f"warehouse: {error}", file=sys.stderr)
        return 2
    print(f"warehouse:       {stats['path']}")
    print(f"schema:          {stats['warehouse_schema']}")
    print(f"generation:      {stats['generation']}")
    print(f"text search:     {stats['fts']}")
    print(f"corpus:          {stats['corpus'] or '(empty)'}")
    print(f"snapshots:       {stats['ingests']:,}")
    print(f"datasets:        {stats['datasets']:,}")
    print(f"table cells:     {stats['cells']:,}")
    print(f"query texts:     {stats['query_texts']:,}")
    print(f"size on disk:    {stats['size_bytes']:,} bytes")
    for entry in log:
        print(f"  [{entry['seq']}] {entry['source']}: "
              f"{', '.join(entry['datasets'])} ({entry['queries']:,} queries)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .warehouse.service import start_server

    try:
        server = start_server(
            args.store, host=args.host, port=args.port, verbose=args.verbose
        )
    except WarehouseError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"serve: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    print(f"serving {args.store} at {server.url} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.close()
    return 0


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if not (0 < number < math.inf):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {value}"
        )
    return number


def _interval_seconds(value: str) -> float:
    """``--interval``: seconds between watch cycles, 0 up to 1e9 (about
    31 years; ``time.sleep`` overflows not far above that)."""
    number = float(value)
    if not 0 <= number <= 1e9:  # also false for nan
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds from 0 to 1e9, got {value}"
        )
    return number


def _workers_arg(value: str):
    """``--workers``: a positive integer, or ``auto`` for all CPUs."""
    if value.strip().lower() == "auto":
        return "auto"
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 or 'auto', got {value}"
        ) from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 or 'auto', got {value}")
    return number


def _metrics_arg(value: str) -> Tuple[str, ...]:
    """``--metrics``: comma-separated known pass names, at least one."""
    metrics = tuple(name.strip() for name in value.split(",") if name.strip())
    if not metrics:
        raise argparse.ArgumentTypeError(
            f"selects no passes; available: "
            f"{', '.join(PASS_NAMES + SEQUENCE_PASS_NAMES)}"
        )
    try:
        resolve_passes(metrics)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return metrics


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return number


def _distribution_version() -> str:
    """Installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _add_format_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        default="text",
        metavar="FMT",
        help="report format: one of "
        f"{', '.join(reporter_names())} (default: text)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analytics for SPARQL query logs (VLDB 2017 reproduction).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_distribution_version()}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="run the full study on query files")
    analyze.add_argument(
        "files",
        nargs="+",
        help="query/log files (one log each; plain or gzip) or log directories",
    )
    analyze.add_argument(
        "--keep-duplicates",
        action="store_true",
        help="analyze the Valid corpus instead of the Unique one (appendix mode)",
    )
    analyze.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        metavar="N",
        help="worker processes for parsing and measuring, or 'auto' for "
        "all CPUs — the recommended setting on multi-core machines "
        "(output is identical to the serial pass)",
    )
    analyze.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="entries per shard (default: adaptive — inputs stream from "
        "disk in chunks that start small and grow to at most 1024)",
    )
    analyze.add_argument(
        "--metrics",
        type=_metrics_arg,
        default=None,
        metavar="PASS[,PASS...]",
        help="comma-separated analyzer passes to run "
        f"(default: all of {', '.join(PASS_NAMES)}); tables owned by "
        "unselected passes render with zero counts; sequence passes "
        f"({', '.join(SEQUENCE_PASS_NAMES)}) are opt-in by name and scan "
        "the ordered raw stream during ingestion — selected alone, they "
        "skip parsing (Valid/Unique then read 0)",
    )
    analyze.add_argument(
        "--streak-window",
        type=_positive_int,
        default=DEFAULT_STREAK_WINDOW,
        metavar="N",
        help="streak lookbehind window for `--metrics streaks` "
        f"(default {DEFAULT_STREAK_WINDOW}, the paper's setting)",
    )
    analyze.add_argument(
        "--streak-threshold",
        type=float,
        default=DEFAULT_STREAK_THRESHOLD,
        metavar="X",
        help="normalized-Levenshtein similarity threshold for "
        f"`--metrics streaks` (default {DEFAULT_STREAK_THRESHOLD})",
    )
    analyze.add_argument(
        "--shape-node-limit",
        type=_positive_int,
        default=DEFAULT_SHAPE_NODE_LIMIT,
        metavar="N",
        help="skip shape/treewidth analysis for canonical graphs with "
        f"more than N nodes (default {DEFAULT_SHAPE_NODE_LIMIT}; skipped "
        "queries are counted and reported)",
    )
    analyze.add_argument(
        "--cache-size",
        type=_nonnegative_int,
        default=DEFAULT_STRUCTURE_CACHE_SIZE,
        metavar="N",
        help="capacity of the in-memory structural-signature cache "
        f"(default {DEFAULT_STRUCTURE_CACHE_SIZE}; 0 disables it — the "
        "cache is transparent, so results are identical either way)",
    )
    analyze.add_argument(
        "--profile-passes",
        action="store_true",
        help="print per-pass wall time and structural-cache hit rate "
        "after the report (text format only)",
    )
    analyze.add_argument(
        "--save-study",
        default=None,
        metavar="PATH",
        help="also write the study as a versioned JSON snapshot — a "
        ".gz suffix gzip-compresses it (reload with `repro report`, "
        "combine with `repro merge`, ingest with `repro warehouse`)",
    )
    _add_format_option(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    merge = commands.add_parser(
        "merge", help="combine saved study snapshots into one"
    )
    merge.add_argument(
        "studies",
        nargs="+",
        metavar="STUDY.json",
        help="snapshots written by `repro analyze --save-study` (merged "
        "in argument order, which fixes tie-breaking in the tables)",
    )
    merge.add_argument(
        "--out",
        "-o",
        default=None,
        metavar="PATH",
        help="write the merged snapshot here (default: print JSON to stdout)",
    )
    merge.set_defaults(func=_cmd_merge)

    report = commands.add_parser(
        "report", help="render a saved study snapshot"
    )
    report.add_argument(
        "study",
        metavar="STUDY.json",
        help="a snapshot written by `repro analyze --save-study` or `repro merge`",
    )
    _add_format_option(report)
    report.set_defaults(func=_cmd_report)

    watch = commands.add_parser(
        "watch",
        help="incremental always-on analysis: tail growing logs into a "
        "checkpointed study with per-cycle diff reports",
    )
    watch.add_argument(
        "files",
        nargs="+",
        help="query/log files (plain or gzip) or log directories to tail "
        "(one dataset each, like `analyze`)",
    )
    watch.add_argument(
        "--state",
        required=True,
        metavar="DIR",
        help="state directory holding the resumable checkpoint "
        "(checkpoint.json + study.json; created on first use, resumed "
        "on every later run)",
    )
    watch.add_argument(
        "--cycles",
        type=_nonnegative_int,
        default=1,
        metavar="N",
        help="number of ingest cycles to run (default 1; 0 runs until "
        "interrupted)",
    )
    watch.add_argument(
        "--interval",
        type=_interval_seconds,
        default=2.0,
        metavar="SECONDS",
        help="sleep between cycles (default 2.0; ignored after the last)",
    )
    watch.add_argument(
        "--no-drain",
        action="store_true",
        help="leave an unterminated final line/block for the next run "
        "instead of consuming it on the last scheduled cycle",
    )
    watch.add_argument(
        "--metrics",
        type=_metrics_arg,
        default=None,
        metavar="PASS[,PASS...]",
        help="analyzer passes to run, fixed at the first checkpoint "
        f"(default: all of {', '.join(PASS_NAMES)}; resuming with a "
        "different selection is an error)",
    )
    watch.add_argument(
        "--streak-window",
        type=_positive_int,
        default=DEFAULT_STREAK_WINDOW,
        metavar="N",
        help="streak lookbehind window for `--metrics streaks` "
        f"(default {DEFAULT_STREAK_WINDOW})",
    )
    watch.add_argument(
        "--streak-threshold",
        type=float,
        default=DEFAULT_STREAK_THRESHOLD,
        metavar="X",
        help="normalized-Levenshtein similarity threshold for "
        f"`--metrics streaks` (default {DEFAULT_STREAK_THRESHOLD})",
    )
    watch.add_argument(
        "--shape-node-limit",
        type=_positive_int,
        default=DEFAULT_SHAPE_NODE_LIMIT,
        metavar="N",
        help="skip shape/treewidth analysis above N canonical-graph "
        f"nodes (default {DEFAULT_SHAPE_NODE_LIMIT})",
    )
    watch.add_argument(
        "--warehouse",
        default=None,
        metavar="PATH",
        help="also store the checkpointed study in this study warehouse "
        "(created if missing; the warehouse then renders the checkpoint)",
    )
    watch.set_defaults(func=_cmd_watch)

    warehouse = commands.add_parser(
        "warehouse",
        help="maintain and query a persistent study warehouse "
        "(a SQLite file of ingested study snapshots)",
    )
    warehouse_commands = warehouse.add_subparsers(
        dest="warehouse_command", required=True
    )

    wh_ingest = warehouse_commands.add_parser(
        "ingest",
        help="upsert study snapshots into a warehouse (idempotent per "
        "snapshot; the file is created on first use)",
    )
    wh_ingest.add_argument(
        "store",
        metavar="WAREHOUSE",
        help="the warehouse file (created if missing)",
    )
    wh_ingest.add_argument(
        "studies",
        nargs="+",
        metavar="STUDY.json",
        help="snapshots written by `repro analyze --save-study` or "
        "`repro merge --out` (plain or gzip)",
    )
    wh_ingest.set_defaults(func=_cmd_warehouse_ingest)

    wh_query = warehouse_commands.add_parser(
        "query",
        help="answer report/table/search queries from a warehouse "
        "without re-running any analysis",
    )
    wh_query.add_argument(
        "store", metavar="WAREHOUSE", help="a warehouse file"
    )
    selector = wh_query.add_mutually_exclusive_group()
    selector.add_argument(
        "--table",
        type=_positive_int,
        default=None,
        metavar="N",
        help="print one table (1-6): the byte-exact text block of the "
        "full report, or dataset-scoped JSON cells with --dataset",
    )
    selector.add_argument(
        "--datasets",
        action="store_true",
        help="list per-dataset pipeline counters as JSON",
    )
    selector.add_argument(
        "--streaks",
        action="store_true",
        help="print per-dataset streak histograms (Table 6 data) as JSON",
    )
    selector.add_argument(
        "--caveats",
        action="store_true",
        help="print coverage-caveat counters as JSON",
    )
    selector.add_argument(
        "--search",
        default=None,
        metavar="TERM",
        help="full-text search over the query texts the studies carry",
    )
    wh_query.add_argument(
        "--dataset",
        default=None,
        metavar="NAME",
        help="with --table: JSON cells scoped to one dataset",
    )
    wh_query.add_argument(
        "--limit",
        type=_positive_int,
        default=50,
        metavar="N",
        help="page size for list output (default 50)",
    )
    wh_query.add_argument(
        "--offset",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="page offset for list output (default 0)",
    )
    _add_format_option(wh_query)
    wh_query.set_defaults(func=_cmd_warehouse_query)

    wh_stats = warehouse_commands.add_parser(
        "stats", help="print warehouse-level facts and the ingest log"
    )
    wh_stats.add_argument(
        "store", metavar="WAREHOUSE", help="a warehouse file"
    )
    wh_stats.set_defaults(func=_cmd_warehouse_stats)

    serve = commands.add_parser(
        "serve",
        help="serve a study warehouse over HTTP (paginated JSON "
        "endpoints; stdlib http.server, no extra dependencies)",
    )
    serve.add_argument(
        "store", metavar="WAREHOUSE", help="a warehouse file"
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="HOST",
        help="address to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=_nonnegative_int,
        default=8080,
        metavar="PORT",
        help="port to bind (default 8080; 0 picks a free port)",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log each request to stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    corpus = commands.add_parser("corpus", help="generate the synthetic corpus")
    corpus.add_argument("--scale", type=_positive_float, default=1e-5)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--out", default="corpus-out")
    corpus.set_defaults(func=_cmd_corpus)

    figure3 = commands.add_parser("figure3", help="chain vs cycle engine experiment")
    figure3.add_argument("--nodes", type=_positive_int, default=1500)
    figure3.add_argument("--timeout", type=_positive_float, default=2.0)
    figure3.add_argument("--queries", type=_positive_int, default=5)
    figure3.add_argument(
        "--lengths", type=_positive_int, nargs="+", default=[3, 4, 5, 6]
    )
    figure3.add_argument("--seed", type=int, default=1)
    figure3.set_defaults(func=_cmd_figure3)

    streaks = commands.add_parser(
        "streaks",
        help="detect streaks (Table 6); shorthand for "
        "`analyze --metrics streaks`",
    )
    streaks.add_argument("file", nargs="?", help="ordered query log file")
    streaks.add_argument("--synthetic", type=_nonnegative_int, default=0, metavar="N")
    streaks.add_argument("--window", type=_positive_int, default=DEFAULT_STREAK_WINDOW)
    streaks.add_argument(
        "--threshold", type=float, default=DEFAULT_STREAK_THRESHOLD
    )
    streaks.add_argument("--seed", type=int, default=0)
    streaks.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        metavar="N",
        help="worker processes, or 'auto' for all CPUs (the sharded "
        "scan is byte-identical to the serial one)",
    )
    streaks.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="entries per shard (default: adaptive, sized to the input)",
    )
    streaks.set_defaults(func=_cmd_streaks)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse *argv* (default ``sys.argv``) and run the command."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
