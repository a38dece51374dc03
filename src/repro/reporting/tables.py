"""Paper-style table and figure renderers.

Every benchmark prints its result through one of these functions, so
the rows come out in the same shape as the paper's tables — experiment
id, row labels, absolute counts, relative percentages — making the
paper-vs-measured comparison in EXPERIMENTS.md mechanical.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from ..analysis.passes import PassProfile
from ..analysis.study import CorpusStudy
from ..logs.pipeline import QueryLog

__all__ = [
    "render_study",
    "render_table",
    "render_table1",
    "render_table1_from_study",
    "table1_rows",
    "render_table2",
    "render_figure1",
    "figure5_rows",
    "render_table3",
    "render_projection",
    "render_fragments",
    "render_figure5",
    "render_table4",
    "render_table5",
    "render_table6",
    "render_table6_from_study",
    "render_hypertree",
    "render_figure3",
    "render_coverage_caveats",
    "render_pass_profile",
]


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Monospace table with a title rule."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in materialized:
        lines.append(
            "  ".join(cell.rjust(widths[index]) if index else cell.ljust(widths[0])
                      for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_study(
    study: CorpusStudy, logs: Optional[Mapping[str, QueryLog]] = None
) -> str:
    """The full paper report for one study, as a single string.

    The output is a pure function of the study (plus the optional logs
    for Table 1), so serial and sharded runs can be compared
    byte-for-byte.
    """
    blocks: List[str] = []
    if logs is not None:
        blocks.append(render_table1(logs))
    blocks.extend(
        [
            render_table2(study),
            render_figure1(study),
            render_table3(study),
            render_projection(study),
            render_fragments(study),
            render_figure5(study),
            render_table4(study),
            render_hypertree(study),
            render_table5(study),
        ]
    )
    streaks = render_table6_from_study(study)
    if streaks is not None:
        blocks.append(streaks)
    caveats = render_coverage_caveats(study)
    if caveats is not None:
        blocks.append(caveats)
    return "\n\n".join(blocks)


def _pct(value: float) -> str:
    if 0 < value < 0.005:
        return "<0.01%"
    return f"{value:.2f}%"


def table1_rows(study: CorpusStudy) -> List[Tuple[str, int, int, int]]:
    """Table 1 `(source, total, valid, unique)` rows (with a Total row)
    from the per-dataset pipeline counters carried on the study."""
    rows = []
    total = valid = unique = 0
    for name, stats in study.datasets.items():
        rows.append((name, stats.total, stats.valid, stats.unique))
        total += stats.total
        valid += stats.valid
        unique += stats.unique
    rows.append(("Total", total, valid, unique))
    return rows


def _render_table1_rows(rows: Iterable[Tuple[str, int, int, int]]) -> str:
    return render_table(
        "Table 1: Sizes of query logs in our corpus",
        ("Source", "Total #Q", "Valid #Q", "Unique #Q"),
        [
            (name, f"{total:,}", f"{valid:,}", f"{unique:,}")
            for name, total, valid, unique in rows
        ],
    )


def render_table1(logs: Mapping[str, QueryLog]) -> str:
    """Table 1 from live :class:`QueryLog` objects."""
    rows = []
    total = valid = unique = 0
    for name, log in logs.items():
        rows.append((name, log.total, log.valid, log.unique))
        total += log.total
        valid += log.valid
        unique += log.unique
    rows.append(("Total", total, valid, unique))
    return _render_table1_rows(rows)


def render_table1_from_study(study: CorpusStudy) -> str:
    """Table 1 rendered from ``study.datasets`` instead of live logs.

    ``study_corpus`` copies the pipeline counters (Total/Valid/Unique)
    onto each :class:`DatasetStats`, so for any study the drivers
    produce this is byte-identical to :func:`render_table1` over the
    source logs — which is what lets a snapshot loaded from JSON render
    the exact same report with no :class:`QueryLog` objects around.
    """
    return _render_table1_rows(table1_rows(study))


def render_table2(study: CorpusStudy, title: str = "Table 2") -> str:
    """Table 2: keyword counts with relative shares."""
    rows = [
        (keyword, f"{absolute:,}", _pct(relative))
        for keyword, absolute, relative in study.keyword_table()
    ]
    return render_table(
        f"{title}: Keyword count in queries",
        ("Element", "Absolute", "Relative"),
        rows,
    )


def render_figure1(study: CorpusStudy, title: str = "Figure 1") -> str:
    """Figure 1: triple-count distribution, S/A share, Avg#T."""
    blocks: List[str] = []
    header = ["bucket"] + list(study.datasets)
    hist_rows: List[List[str]] = []
    buckets = [str(i) for i in range(11)] + ["11+"]
    per_dataset = {
        name: stats.triple_hist_percentages()
        for name, stats in study.datasets.items()
    }
    for bucket in buckets:
        row = [bucket] + [
            f"{per_dataset[name][bucket]:.1f}" for name in study.datasets
        ]
        hist_rows.append(row)
    blocks.append(
        render_table(
            f"{title}: % of S/A queries per number of triples", header, hist_rows
        )
    )
    summary_rows = [
        ["S/A"] + [
            f"{100.0 * stats.select_ask_share:.2f}%"
            for stats in study.datasets.values()
        ],
        ["Avg#T"] + [
            f"{stats.average_triples:.2f}" for stats in study.datasets.values()
        ],
    ]
    blocks.append(
        render_table(
            f"{title} (bottom): S/A share and average triples", header, summary_rows
        )
    )
    return "\n\n".join(blocks)


def render_table3(study: CorpusStudy, title: str = "Table 3") -> str:
    """Table 3: operator-set distribution with CPF increments."""
    rows = [
        (label, f"{count:,}", _pct(pct))
        for label, count, pct in study.operator_table()
    ]
    for letter, name in (("O", "CPF+O"), ("G", "CPF+G"), ("U", "CPF+U")):
        increment, pct = study.cpf_plus(letter)
        rows.append((name, f"+{increment:,}", f"+{pct:.2f}%"))
    rows.append(
        (
            "other combinations",
            f"{study.operator_other_combination:,}",
            _pct(100.0 * study.operator_other_combination
                 / (study.select_ask_count or 1)),
        )
    )
    rows.append(
        (
            "other features",
            f"{study.operator_other_features:,}",
            _pct(100.0 * study.operator_other_features
                 / (study.select_ask_count or 1)),
        )
    )
    return render_table(
        f"{title}: Sets of operators used in queries",
        ("Operator Set", "Absolute", "Relative"),
        rows,
    )


def render_projection(study: CorpusStudy) -> str:
    """Sec 4.4: subquery counts and projection bounds."""
    low, high = study.projection_bounds()
    subquery_pct = 100.0 * study.subquery_count / (study.query_count or 1)
    rows = [
        ("queries with subqueries", f"{study.subquery_count:,}", _pct(subquery_pct)),
        ("projection (definite)", f"{study.projection_true:,}", _pct(low)),
        (
            "projection (indeterminate, Bind)",
            f"{study.projection_indeterminate:,}",
            _pct(high - low),
        ),
        ("projection bounds", "", f"{low:.2f}%-{high:.2f}%"),
    ]
    return render_table(
        "Sec 4.4: Subqueries and projection",
        ("Measure", "Absolute", "Relative"),
        rows,
    )


def render_fragments(study: CorpusStudy) -> str:
    """Sec 5.2: fragment sizes relative to S/A and AOF."""
    sa = study.select_ask_count or 1
    aof = study.aof_count or 1
    rows = [
        ("AOF patterns", f"{study.aof_count:,}", _pct(100.0 * study.aof_count / sa)),
        ("CQ (of AOF)", f"{study.cq_count:,}", _pct(100.0 * study.cq_count / aof)),
        ("CQF (of AOF)", f"{study.cqf_count:,}", _pct(100.0 * study.cqf_count / aof)),
        (
            "well-designed (of AOF)",
            f"{study.well_designed_count:,}",
            _pct(100.0 * study.well_designed_count / aof),
        ),
        (
            "CQOF (of AOF)",
            f"{study.cqof_count:,}",
            _pct(100.0 * study.cqof_count / aof),
        ),
        (
            "interface width > 1",
            f"{study.wide_interface_count:,}",
            _pct(100.0 * study.wide_interface_count / aof),
        ),
    ]
    return render_table(
        "Sec 5.2: Query fragments",
        ("Fragment", "Absolute", "Relative"),
        rows,
    )


def figure5_rows(study: CorpusStudy) -> List[Tuple[str, str, str, str]]:
    """Figure 5 `(size, CQ%, CQF%, CQOF%)` rows, shared by renderers."""
    rows: List[Tuple[str, str, str, str]] = []

    def column(sizes, bucket_low: int, bucket_high: Optional[int]) -> str:
        """One Figure 5 percentage cell for a bucket of sizes."""
        multi = {k: v for k, v in sizes.items() if k >= 2}
        denominator = sum(multi.values()) or 1
        if bucket_high is None:
            count = sum(v for k, v in multi.items() if k >= bucket_low)
        else:
            count = sum(
                v for k, v in multi.items() if bucket_low <= k <= bucket_high
            )
        return f"{100.0 * count / denominator:.1f}%"

    for size in range(2, 11):
        rows.append(
            (
                str(size),
                column(study.cq_sizes, size, size),
                column(study.cqf_sizes, size, size),
                column(study.cqof_sizes, size, size),
            )
        )
    rows.append(
        (
            "11+",
            column(study.cq_sizes, 11, None),
            column(study.cqf_sizes, 11, None),
            column(study.cqof_sizes, 11, None),
        )
    )
    one_triple = []
    for sizes in (study.cq_sizes, study.cqf_sizes, study.cqof_sizes):
        total = sum(sizes.values()) or 1
        one_triple.append(f"{100.0 * sizes.get(1, 0) / total:.2f}%")
    rows.append(("(1 triple)", *one_triple))
    return rows


def render_figure5(study: CorpusStudy, title: str = "Figure 5") -> str:
    """Figure 5: size distribution of CQ-like queries."""
    return render_table(
        f"{title}: Size of CQ-like queries with at least two triples",
        ("size", "CQ", "CQF", "CQOF"),
        figure5_rows(study),
    )


def render_table4(study: CorpusStudy, title: str = "Table 4") -> str:
    """Table 4: cumulative shape analysis per fragment, plus girth."""
    blocks = []
    for fragment in ("CQ", "CQF", "CQOF"):
        rows = [
            (shape, f"{count:,}", _pct(pct))
            for shape, count, pct in study.shape_table(fragment)
        ]
        blocks.append(
            render_table(
                f"{title} ({fragment}): cumulative shape analysis",
                ("Shape", "#Queries", "Relative %"),
                rows,
            )
        )
    girth_rows = [
        (f"shortest cycle = {length}", f"{count:,}", "")
        for length, count in sorted(study.girth_hist.items())
    ]
    if girth_rows:
        blocks.append(
            render_table(
                f"{title} (cycles): shortest cycle lengths",
                ("Girth", "#Queries", ""),
                girth_rows,
            )
        )
    constants = study.single_edge_cq_with_constants
    total_single = study.single_edge_cq or 1
    blocks.append(
        f"Single-edge CQs using constants: {constants:,} "
        f"({100.0 * constants / total_single:.2f}% of single-edge CQs)"
    )
    return "\n\n".join(blocks)


def render_table5(study: CorpusStudy, title: str = "Table 5") -> str:
    """Table 5: the navigational property-path taxonomy."""
    rows = [
        (name, f"{count:,}", _pct(pct), k_range)
        for name, count, pct, k_range in study.path_table()
    ]
    preamble = [
        f"Property paths total: {study.property_path_total:,}",
        f"  simple !a: {study.simple_path_forms.get('!a', 0):,}",
        f"  simple ^a: {study.simple_path_forms.get('^a', 0):,}",
        f"  navigational: {sum(study.path_types.values()):,}",
        f"  not in Ctract: {len(study.non_ctract)} "
        f"{study.non_ctract[:3]!r}",
    ]
    return "\n".join(preamble) + "\n\n" + render_table(
        f"{title}: Structure of navigational property paths",
        ("Expression Type", "Absolute", "Relative", "k"),
        rows,
    )


def render_table6(histograms: Mapping[str, Mapping[str, int]]) -> str:
    """Table 6: streak-length histograms, one column per log."""
    names = list(histograms)
    buckets = list(next(iter(histograms.values())).keys()) if histograms else []
    rows = []
    for bucket in buckets:
        rows.append(
            (bucket, *(f"{histograms[name][bucket]:,}" for name in names))
        )
    return render_table(
        "Table 6: Length of streaks in single-day log files",
        ("Streak length", *names),
        rows,
    )


def render_table6_from_study(study: CorpusStudy) -> Optional[str]:
    """The Table 6 block of a study, or ``None`` when no dataset ran
    the ``streaks`` sequence metric.

    Rendered from the per-dataset accumulators carried on
    ``study.datasets`` — so a snapshot reloaded from JSON produces the
    same bytes as the run that detected the streaks, and ``repro
    streaks`` prints exactly this block.
    """
    histograms = study.streak_histograms()
    if not histograms:
        return None
    block = render_table6(histograms)
    longest = study.streak_longest()
    if longest:
        block += f"\n\nlongest streak: {longest} queries"
    return block


def render_hypertree(study: CorpusStudy) -> str:
    """Sec 6.2: hypertree widths of predicate-variable queries."""
    rows = [
        (f"hypertree width {width}", f"{count:,}", "")
        for width, count in sorted(study.hypertree_widths.items())
    ]
    node_rows = [
        (f"decomposition nodes = {nodes}", f"{count:,}", "")
        for nodes, count in sorted(study.decomposition_nodes.items())
    ]
    return render_table(
        "Sec 6.2: Hypertree width of predicate-variable CQOF queries",
        ("Measure", "#Queries", ""),
        rows + node_rows,
    )


def render_dataset_highlights(study: CorpusStudy) -> str:
    """Per-dataset keyword shares: the paper's §4.1 prose observations
    (BritM14's near-universal DISTINCT, BioPortal's GRAPH usage,
    SWDF13/LGD14's LIMIT-heavy traffic, Wikidata's ORDER BY, …)."""
    keywords = ("Distinct", "Limit", "Offset", "Order By", "Filter", "Graph", "Count")
    headers = ("Dataset", *keywords)
    rows = []
    for name, stats in study.datasets.items():
        total = stats.queries or 1
        rows.append(
            (
                name,
                *(
                    f"{100.0 * stats.keyword_counts.get(k, 0) / total:.1f}%"
                    for k in keywords
                ),
            )
        )
    return render_table(
        "Per-dataset keyword usage (paper sec 4.1 observations)",
        headers,
        rows,
    )


def render_coverage_caveats(study: CorpusStudy) -> Optional[str]:
    """Data dropped by analysis limits, or ``None`` when nothing was.

    Rendered (by :func:`render_study`) only when a limit actually bit,
    so reports over well-behaved corpora — including the pinned golden
    reports — are unchanged, while runs that silently used to lose data
    now say so.
    """
    if not (study.shape_limit_skipped or study.non_ctract_truncated):
        return None
    rows = [
        (
            "queries over the shape-node limit (structure pass skipped)",
            f"{study.shape_limit_skipped:,}",
        ),
        (
            "non-Ctract path expressions beyond the sample cap",
            f"{study.non_ctract_truncated:,}",
        ),
    ]
    return render_table(
        "Coverage caveats: data dropped by analysis limits",
        ("Limit", "Dropped"),
        rows,
    )


def render_pass_profile(profile: PassProfile) -> str:
    """Per-pass wall time and structural-cache statistics
    (``repro analyze --profile-passes``)."""
    total = profile.total_seconds or 1.0
    rows = [
        (name, f"{elapsed:.3f}s", f"{100.0 * elapsed / total:.1f}%")
        for name, elapsed in sorted(
            profile.seconds.items(), key=lambda item: item[1], reverse=True
        )
    ]
    rows.append(("total", f"{profile.total_seconds:.3f}s", "100.0%"))
    lookups = profile.cache_hits + profile.cache_misses
    summary = [
        f"queries measured: {profile.queries:,}",
        f"structural-cache lookups: {lookups:,} "
        f"(hits {profile.cache_hits:,}, misses {profile.cache_misses:,}, "
        f"hit rate {100.0 * profile.cache_hit_rate:.1f}%)",
    ]
    if profile.chunks_shipped:
        summary.append(
            f"shard transport: {profile.chunks_shipped:,} chunks, "
            f"{profile.shipped_bytes:,} bytes shipped, "
            f"merge {profile.merge_seconds:.3f}s"
        )
    return (
        render_table(
            "Analyzer passes: wall time per pass",
            ("Pass", "Wall time", "Share"),
            rows,
        )
        + "\n"
        + "\n".join(summary)
    )


def render_figure3(results: Iterable) -> str:
    """Figure 3 rows from WorkloadRunResult records."""
    rows = []
    for result in results:
        rows.append(
            (
                f"{result.workload} {result.engine}",
                f"{result.average_elapsed_ns:,.0f} ns",
                f"{result.timeout_count}/{len(result.runs)} t/o",
            )
        )
    return render_table(
        "Figure 3: chain/cycle workload runtimes",
        ("Workload", "Avg runtime", "Timeouts"),
        rows,
    )
