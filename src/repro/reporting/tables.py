"""The paper's tables as data, and their monospace text rendering.

Each report section (Table 1, Table 2, Figure 1, …, the coverage
caveats) is one function of the study.  It returns the section's
blocks in paper order: :class:`Table` values (title, headers and
formatted rows) and :class:`Note` lines.  :data:`REPORT_SECTIONS`
lists the sections in report order.  The text report, the markdown
report, the warehouse's per-table blocks and ``repro streaks`` all
render these blocks, so every table is derived in exactly one place.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from ..analysis.passes import PassProfile
from ..analysis.study import CorpusStudy

__all__ = [
    "Block",
    "Note",
    "REPORT_SECTIONS",
    "Table",
    "caveats_section",
    "figure1_section",
    "figure5_section",
    "fragments_section",
    "hypertree_section",
    "projection_section",
    "render_dataset_highlights",
    "render_figure3",
    "render_pass_profile",
    "render_table",
    "render_text",
    "report_blocks",
    "table1_rows",
    "table1_section",
    "table2_section",
    "table3_section",
    "table4_section",
    "table5_section",
    "table6_section",
]


class Table(NamedTuple):
    """One titled table: header cells and rows of formatted cells."""

    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple[str, ...]]


class Note(NamedTuple):
    """Prose lines printed among a section's tables."""

    lines: Tuple[str, ...]


Block = Union[Table, Note]


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


def render_text(blocks: Iterable[Block]) -> str:
    """Blocks as monospace text, one blank line between blocks."""
    return "\n\n".join(
        render_table(*block) if isinstance(block, Table) else "\n".join(block.lines)
        for block in blocks
    )


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


def table1_section(study: CorpusStudy) -> List[Block]:
    """Table 1: log sizes, from the pipeline counters on the study."""
    return [
        Table(
            "Table 1: Sizes of query logs in our corpus",
            ("Source", "Total #Q", "Valid #Q", "Unique #Q"),
            [
                (name, f"{total:,}", f"{valid:,}", f"{unique:,}")
                for name, total, valid, unique in table1_rows(study)
            ],
        )
    ]


def table2_section(study: CorpusStudy, title: str = "Table 2") -> List[Block]:
    """Table 2: keyword counts with relative shares."""
    return [
        Table(
            f"{title}: Keyword count in queries",
            ("Element", "Absolute", "Relative"),
            [
                (keyword, f"{absolute:,}", _pct(relative))
                for keyword, absolute, relative in study.keyword_table()
            ],
        )
    ]


def figure1_section(study: CorpusStudy) -> List[Block]:
    """Figure 1: triple-count distribution, S/A share, Avg#T."""
    header = ("bucket", *study.datasets)
    per_dataset = [
        stats.triple_hist_percentages() for stats in study.datasets.values()
    ]
    buckets = [str(i) for i in range(11)] + ["11+"]
    return [
        Table(
            "Figure 1: % of S/A queries per number of triples",
            header,
            [
                (bucket, *(f"{shares[bucket]:.1f}" for shares in per_dataset))
                for bucket in buckets
            ],
        ),
        Table(
            "Figure 1 (bottom): S/A share and average triples",
            header,
            [
                ("S/A", *(
                    f"{100.0 * stats.select_ask_share:.2f}%"
                    for stats in study.datasets.values()
                )),
                ("Avg#T", *(
                    f"{stats.average_triples:.2f}"
                    for stats in study.datasets.values()
                )),
            ],
        ),
    ]


def table3_section(study: CorpusStudy, title: str = "Table 3") -> List[Block]:
    """Table 3: operator-set distribution with CPF increments."""
    rows = [
        (label, f"{count:,}", _pct(pct))
        for label, count, pct in study.operator_table()
    ]
    for letter, name in (("O", "CPF+O"), ("G", "CPF+G"), ("U", "CPF+U")):
        increment, pct = study.cpf_plus(letter)
        rows.append((name, f"+{increment:,}", f"+{pct:.2f}%"))
    select_ask = study.select_ask_count or 1
    for label, count in (
        ("other combinations", study.operator_other_combination),
        ("other features", study.operator_other_features),
    ):
        rows.append((label, f"{count:,}", _pct(100.0 * count / select_ask)))
    return [
        Table(
            f"{title}: Sets of operators used in queries",
            ("Operator Set", "Absolute", "Relative"),
            rows,
        )
    ]


def projection_section(study: CorpusStudy) -> List[Block]:
    """Sec 4.4: subquery counts and projection bounds."""
    low, high = study.projection_bounds()
    subquery_pct = 100.0 * study.subquery_count / (study.query_count or 1)
    return [
        Table(
            "Sec 4.4: Subqueries and projection",
            ("Measure", "Absolute", "Relative"),
            [
                ("queries with subqueries", f"{study.subquery_count:,}",
                 _pct(subquery_pct)),
                ("projection (definite)", f"{study.projection_true:,}", _pct(low)),
                ("projection (indeterminate, Bind)",
                 f"{study.projection_indeterminate:,}", _pct(high - low)),
                ("projection bounds", "", f"{low:.2f}%-{high:.2f}%"),
            ],
        )
    ]


def fragments_section(study: CorpusStudy) -> List[Block]:
    """Sec 5.2: fragment sizes relative to S/A and AOF."""
    sa = study.select_ask_count or 1
    aof = study.aof_count or 1
    rows = [("AOF patterns", f"{study.aof_count:,}", _pct(100.0 * study.aof_count / sa))]
    for label, count in (
        ("CQ (of AOF)", study.cq_count),
        ("CQF (of AOF)", study.cqf_count),
        ("well-designed (of AOF)", study.well_designed_count),
        ("CQOF (of AOF)", study.cqof_count),
        ("interface width > 1", study.wide_interface_count),
    ):
        rows.append((label, f"{count:,}", _pct(100.0 * count / aof)))
    return [
        Table("Sec 5.2: Query fragments", ("Fragment", "Absolute", "Relative"), rows)
    ]


def figure5_section(study: CorpusStudy) -> List[Block]:
    """Figure 5: size distribution of CQ-like queries."""
    fragments = (study.cq_sizes, study.cqf_sizes, study.cqof_sizes)

    def share(sizes, low: int, high: float) -> str:
        """Percentage of multi-triple queries with low <= size <= high."""
        multi = {k: v for k, v in sizes.items() if k >= 2}
        count = sum(v for k, v in multi.items() if low <= k <= high)
        return f"{100.0 * count / (sum(multi.values()) or 1):.1f}%"

    rows = [
        (str(size), *(share(sizes, size, size) for sizes in fragments))
        for size in range(2, 11)
    ]
    rows.append(("11+", *(share(sizes, 11, float("inf")) for sizes in fragments)))
    rows.append(("(1 triple)", *(
        f"{100.0 * sizes.get(1, 0) / (sum(sizes.values()) or 1):.2f}%"
        for sizes in fragments
    )))
    return [
        Table(
            "Figure 5: Size of CQ-like queries with at least two triples",
            ("size", "CQ", "CQF", "CQOF"),
            rows,
        )
    ]


def table4_section(study: CorpusStudy) -> List[Block]:
    """Table 4: cumulative shape analysis per fragment, plus the
    girth and single-edge constants of Sec 6.1."""
    blocks: List[Block] = [
        Table(
            f"Table 4 ({fragment}): cumulative shape analysis",
            ("Shape", "#Queries", "Relative %"),
            [
                (shape, f"{count:,}", _pct(pct))
                for shape, count, pct in study.shape_table(fragment)
            ],
        )
        for fragment in ("CQ", "CQF", "CQOF")
    ]
    if study.girth_hist:
        blocks.append(
            Table(
                "Table 4 (cycles): shortest cycle lengths",
                ("Girth", "#Queries", ""),
                [
                    (f"shortest cycle = {length}", f"{count:,}", "")
                    for length, count in sorted(study.girth_hist.items())
                ],
            )
        )
    constants = study.single_edge_cq_with_constants
    blocks.append(Note((
        f"Single-edge CQs using constants: {constants:,} "
        f"({100.0 * constants / (study.single_edge_cq or 1):.2f}% "
        "of single-edge CQs)",
    )))
    return blocks


def hypertree_section(study: CorpusStudy) -> List[Block]:
    """Sec 6.2: hypertree widths of predicate-variable queries."""
    return [
        Table(
            "Sec 6.2: Hypertree width of predicate-variable CQOF queries",
            ("Measure", "#Queries", ""),
            [
                (f"hypertree width {width}", f"{count:,}", "")
                for width, count in sorted(study.hypertree_widths.items())
            ]
            + [
                (f"decomposition nodes = {nodes}", f"{count:,}", "")
                for nodes, count in sorted(study.decomposition_nodes.items())
            ],
        )
    ]


def table5_section(study: CorpusStudy) -> List[Block]:
    """Table 5: the navigational property-path taxonomy."""
    return [
        Note((
            f"Property paths total: {study.property_path_total:,}",
            f"  simple !a: {study.simple_path_forms.get('!a', 0):,}",
            f"  simple ^a: {study.simple_path_forms.get('^a', 0):,}",
            f"  navigational: {sum(study.path_types.values()):,}",
            f"  not in Ctract: {len(study.non_ctract)} {study.non_ctract[:3]!r}",
        )),
        Table(
            "Table 5: Structure of navigational property paths",
            ("Expression Type", "Absolute", "Relative", "k"),
            [
                (name, f"{count:,}", _pct(pct), k_range)
                for name, count, pct, k_range in study.path_table()
            ],
        ),
    ]


def table6_section(study: CorpusStudy) -> List[Block]:
    """Table 6: streak-length histograms, one column per log; empty
    when no dataset ran the ``streaks`` sequence metric."""
    histograms = study.streak_histograms()
    if not histograms:
        return []
    names = list(histograms)
    blocks: List[Block] = [
        Table(
            "Table 6: Length of streaks in single-day log files",
            ("Streak length", *names),
            [
                (bucket, *(f"{histograms[name][bucket]:,}" for name in names))
                for bucket in histograms[names[0]]
            ],
        )
    ]
    longest = study.streak_longest()
    if longest:
        blocks.append(Note((f"longest streak: {longest} queries",)))
    return blocks


def caveats_section(study: CorpusStudy) -> List[Block]:
    """Data dropped by analysis limits; empty when nothing was, so
    reports over well-behaved corpora carry no such section."""
    if not (study.shape_limit_skipped or study.non_ctract_truncated):
        return []
    return [
        Table(
            "Coverage caveats: data dropped by analysis limits",
            ("Limit", "Dropped"),
            [
                ("queries over the shape-node limit (structure pass skipped)",
                 f"{study.shape_limit_skipped:,}"),
                ("non-Ctract path expressions beyond the sample cap",
                 f"{study.non_ctract_truncated:,}"),
            ],
        )
    ]


#: The report's sections in report order, keyed like the long-format
#: sections of ``study_long_rows`` (``table1`` … ``table6`` are the
#: paper's numbered tables).
REPORT_SECTIONS: Dict[str, Callable[[CorpusStudy], List[Block]]] = {
    "table1": table1_section,
    "table2": table2_section,
    "figure1": figure1_section,
    "table3": table3_section,
    "sec4.4": projection_section,
    "sec5.2": fragments_section,
    "figure5": figure5_section,
    "table4": table4_section,
    "sec6.2": hypertree_section,
    "table5": table5_section,
    "table6": table6_section,
    "caveats": caveats_section,
}


def report_blocks(study: CorpusStudy) -> List[Block]:
    """Every block of the full report, in report order."""
    return [block for section in REPORT_SECTIONS.values() for block in section(study)]


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
