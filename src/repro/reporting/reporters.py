"""Pluggable multi-format study reporters.

A registry of :class:`Reporter` objects — ``text``, ``json``,
``jsonl``, ``csv``, ``markdown`` and ``diff`` out of the box — that
render a :class:`~repro.analysis.study.CorpusStudy` from the study
alone (Table 1 comes from the pipeline counters carried on
``study.datasets``), so a snapshot loaded from JSON reports exactly
like a freshly computed study.

Contracts:

* Text and markdown render the same report sections
  (:data:`~repro.reporting.tables.REPORT_SECTIONS`): the same tables,
  titles and cells, Table 1 first.  The text report is pinned by the
  golden tests.
* Every reporter is a pure function of the study: same study, same
  bytes, so serial/sharded/streamed/reloaded runs compare equal.
* Third-party formats plug in via :func:`register_reporter`; the CLI
  (``repro analyze --format``, ``repro report --format``) picks them
  up from the registry automatically.
"""

from __future__ import annotations

import csv
import io
import json
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..analysis.study import CorpusStudy
from ..exceptions import ReporterRegistrationError
from .tables import REPORT_SECTIONS, Table, render_text, report_blocks, table1_rows

__all__ = [
    "Reporter",
    "TextReporter",
    "JsonReporter",
    "JsonlReporter",
    "CsvReporter",
    "MarkdownReporter",
    "DiffReporter",
    "get_reporter",
    "register_reporter",
    "render_diff",
    "render_report",
    "render_rows_diff",
    "reporter_names",
    "study_long_rows",
]


@runtime_checkable
class Reporter(Protocol):
    """One output format for a corpus study.

    Implementations must be pure: ``render`` may not mutate the study
    and must return the same bytes for equal studies."""

    #: Registry key, the vocabulary of ``--format``.
    name: str
    #: One-line description for ``--help`` and error messages.
    description: str

    def render(self, study: CorpusStudy) -> str:
        """Render *study* to a complete output document."""
        ...


class TextReporter:
    """The paper-style monospace tables (the historical CLI output)."""

    name = "text"
    description = "paper-style monospace tables (default)"

    def render(self, study: CorpusStudy) -> str:
        """Render the monospace report (Table 1 + the paper tables)."""
        return render_text(report_blocks(study))


class JsonReporter:
    """The versioned snapshot itself: machine-readable, reloadable."""

    name = "json"
    description = "versioned JSON snapshot (loadable by `repro report`/`merge`)"

    def render(self, study: CorpusStudy) -> str:
        """Render the versioned JSON snapshot."""
        return json.dumps(study.to_dict(), indent=2) + "\n"


class JsonlReporter:
    """One JSON object per dataset: stream-friendly per-source stats."""

    name = "jsonl"
    description = "one JSON line per dataset (per-source counters + shares)"

    def render(self, study: CorpusStudy) -> str:
        """Render one JSON line per dataset."""
        lines = []
        for name, stats in study.datasets.items():
            record = {"dataset": name}
            data = stats.to_dict()
            del data["name"]
            # The raw accumulator is snapshot detail; per-dataset lines
            # get the digest (and nothing at all on streak-less runs,
            # keeping pre-streaks output byte-identical).
            del data["streaks"]
            record.update(data)
            record["select_ask_share"] = round(stats.select_ask_share, 6)
            record["average_triples"] = round(stats.average_triples, 6)
            if stats.streaks is not None:
                record["streaks"] = {
                    "count": stats.streaks.streak_count,
                    "longest": stats.streaks.longest,
                    "histogram": stats.streaks.length_histogram(),
                }
            lines.append(json.dumps(record))
        return "\n".join(lines) + "\n" if lines else ""


def study_long_rows(study: CorpusStudy) -> List[Tuple[str, str, str, str]]:
    """Every table of the study flattened to (section, row, column, value).

    The long format makes every measurement one addressable cell —
    trivially loadable into pandas/SQL — without inventing a schema per
    table.  Percentages are fixed to 4 decimals so output is stable.
    """
    rows: List[Tuple[str, str, str, str]] = []

    def pct(value: float) -> str:
        """Fixed four-decimal percentage (stable CSV bytes)."""
        return f"{value:.4f}"

    for name, total, valid, unique in table1_rows(study):
        rows.append(("table1", name, "total", str(total)))
        rows.append(("table1", name, "valid", str(valid)))
        rows.append(("table1", name, "unique", str(unique)))
    for keyword, absolute, relative in study.keyword_table():
        rows.append(("table2", keyword, "absolute", str(absolute)))
        rows.append(("table2", keyword, "relative_pct", pct(relative)))
    for name, stats in study.datasets.items():
        rows.append(("figure1", name, "select_ask_share_pct",
                     pct(100.0 * stats.select_ask_share)))
        rows.append(("figure1", name, "average_triples",
                     f"{stats.average_triples:.4f}"))
        for bucket, share in stats.triple_hist_percentages().items():
            rows.append(("figure1", name, f"triples_{bucket}_pct", pct(share)))
    for label, count, relative in study.operator_table():
        rows.append(("table3", label, "absolute", str(count)))
        rows.append(("table3", label, "relative_pct", pct(relative)))
    for letter, name in (("O", "CPF+O"), ("G", "CPF+G"), ("U", "CPF+U")):
        increment, relative = study.cpf_plus(letter)
        rows.append(("table3", name, "absolute", str(increment)))
        rows.append(("table3", name, "relative_pct", pct(relative)))
    rows.append(("table3", "other combinations", "absolute",
                 str(study.operator_other_combination)))
    rows.append(("table3", "other features", "absolute",
                 str(study.operator_other_features)))
    low, high = study.projection_bounds()
    rows.append(("sec4.4", "subqueries", "absolute", str(study.subquery_count)))
    rows.append(("sec4.4", "projection", "lower_pct", pct(low)))
    rows.append(("sec4.4", "projection", "upper_pct", pct(high)))
    for label, count in (
        ("AOF", study.aof_count),
        ("CQ", study.cq_count),
        ("CQF", study.cqf_count),
        ("CQOF", study.cqof_count),
        ("well-designed", study.well_designed_count),
        ("interface width > 1", study.wide_interface_count),
    ):
        rows.append(("sec5.2", label, "absolute", str(count)))
    for fragment, sizes in (
        ("CQ", study.cq_sizes),
        ("CQF", study.cqf_sizes),
        ("CQOF", study.cqof_sizes),
    ):
        for size, count in sizes.items():
            rows.append(("figure5", fragment, f"size_{size}", str(count)))
    for fragment in ("CQ", "CQF", "CQOF"):
        for shape, count, relative in study.shape_table(fragment):
            rows.append((f"table4:{fragment}", shape, "absolute", str(count)))
            rows.append((f"table4:{fragment}", shape, "relative_pct", pct(relative)))
    for length, count in sorted(study.girth_hist.items()):
        rows.append(("sec6.1", f"shortest_cycle_{length}", "absolute", str(count)))
    rows.append(("sec6.1", "single_edge_cq", "absolute", str(study.single_edge_cq)))
    rows.append(("sec6.1", "single_edge_cq_with_constants", "absolute",
                 str(study.single_edge_cq_with_constants)))
    for width, count in sorted(study.hypertree_widths.items()):
        rows.append(("sec6.2", f"hypertree_width_{width}", "absolute", str(count)))
    for nodes, count in sorted(study.decomposition_nodes.items()):
        rows.append(("sec6.2", f"decomposition_nodes_{nodes}", "absolute", str(count)))
    rows.append(("table5", "property_paths_total", "absolute",
                 str(study.property_path_total)))
    for form, count in study.simple_path_forms.items():
        rows.append(("table5", f"simple_{form}", "absolute", str(count)))
    for name, count, relative, k_range in study.path_table():
        rows.append(("table5", name, "absolute", str(count)))
        rows.append(("table5", name, "relative_pct", pct(relative)))
        if k_range:
            rows.append(("table5", name, "k_range", k_range))
    for name, histogram in study.streak_histograms().items():
        for bucket, count in histogram.items():
            rows.append(("table6", bucket, name, str(count)))
        stats = study.datasets[name]
        rows.append(("table6", "total streaks", name,
                     str(stats.streaks.streak_count)))
        rows.append(("table6", "longest streak", name,
                     str(stats.streaks.longest)))
    rows.append(("coverage", "shape_limit_skipped", "absolute",
                 str(study.shape_limit_skipped)))
    rows.append(("coverage", "non_ctract_truncated", "absolute",
                 str(study.non_ctract_truncated)))
    return rows


def render_rows_diff(
    old: Sequence[Tuple[str, str, str, str]],
    new: Sequence[Tuple[str, str, str, str]],
) -> str:
    """Cell-level difference of two :func:`study_long_rows` listings.

    Every measurement of the study is one ``(section, row, column)``
    cell; the diff lists, per section and in the *new* study's
    presentation order, the cells that appeared (``+``), vanished
    (``-``), or changed value (``old -> new``).  Identical studies
    produce the empty string, so ``repro watch`` cycles that ingested
    nothing print nothing — the property the CI round-trip check pins.
    """
    old_cells = {(section, row, column): value
                 for section, row, column, value in old}
    new_cells = {(section, row, column): value
                 for section, row, column, value in new}
    lines: List[str] = []
    section_lines: List[str] = []
    current: str = ""

    def flush() -> None:
        if section_lines:
            lines.append(f"{current}:")
            lines.extend(section_lines)
            section_lines.clear()

    seen_keys = set()
    for section, row, column, value in new:
        key = (section, row, column)
        seen_keys.add(key)
        before = old_cells.get(key)
        if before == value:
            continue
        if section != current:
            flush()
            current = section
        label = f"{row} / {column}"
        if before is None:
            section_lines.append(f"  + {label} = {value}")
        else:
            section_lines.append(f"    {label}: {before} -> {value}")
    flush()
    removed = [
        (section, row, column, value)
        for section, row, column, value in old
        if (section, row, column) not in seen_keys
    ]
    for section, row, column, value in removed:
        if section != current:
            flush()
            current = section
            lines.append(f"{current}:")
        lines.append(f"  - {row} / {column} = {value}")
    return "\n".join(lines) + "\n" if lines else ""


def render_diff(old: Optional[CorpusStudy], new: CorpusStudy) -> str:
    """What changed in the paper tables between two studies.

    *old* may be ``None`` (everything is new — the first watch cycle's
    view).  Equal studies render as the empty string."""
    return render_rows_diff(
        [] if old is None else study_long_rows(old), study_long_rows(new)
    )


class DiffReporter:
    """Change report against a baseline study (``repro watch`` cycles).

    The registry instantiates this with no baseline — rendering then
    shows every cell as new, which is the honest diff against "no
    study".  Programmatic users (and the watch loop) construct their
    own ``DiffReporter(baseline)`` or call :func:`render_diff`.
    """

    name = "diff"
    description = "cells added/changed/removed vs a baseline study"

    def __init__(self, baseline: Optional[CorpusStudy] = None) -> None:
        self.baseline = baseline

    def render(self, study: CorpusStudy) -> str:
        """Render the cell diff of *study* against the baseline."""
        return render_diff(self.baseline, study)


class CsvReporter:
    """Long-format CSV: one measurement cell per row."""

    name = "csv"
    description = "long-format CSV (section,row,column,value)"

    def render(self, study: CorpusStudy) -> str:
        """Render the long-format CSV document."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("section", "row", "column", "value"))
        writer.writerows(study_long_rows(study))
        return buffer.getvalue()


def _md_row(cells: Iterable[str]) -> str:
    return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"


def _md_item(line: str) -> str:
    """A note line as a list item; its indentation nests the item."""
    text = line.lstrip()
    return f"{line[:len(line) - len(text)]}- {text}"


class MarkdownReporter:
    """GitHub-flavored markdown: the text report's tables as pipe
    tables under the same titles, its note lines as list items."""

    name = "markdown"
    description = "GitHub-flavored markdown tables"

    def render(self, study: CorpusStudy) -> str:
        """Render the markdown report."""
        corpus = "Unique" if study.dedup else "Valid"
        parts = [f"# SPARQL log study ({corpus} corpus)"]
        for section in REPORT_SECTIONS.values():
            blocks = section(study)
            tables = [block for block in blocks if isinstance(block, Table)]
            # A section's first table title heads the whole section, so
            # a note that leads it (Table 5's preamble) sits under it.
            if tables:
                parts.append(f"## {tables[0].title}")
            for block in blocks:
                if isinstance(block, Table):
                    if block is not tables[0]:
                        parts.append(f"## {block.title}")
                    lines = [_md_row(block.headers),
                             _md_row("---" for _ in block.headers)]
                    lines.extend(_md_row(row) for row in block.rows)
                else:
                    lines = [_md_item(line) for line in block.lines]
                parts.append("\n".join(lines))
        return "\n\n".join(parts) + "\n"


#: The built-in formats, in presentation order.
_REGISTRY: Dict[str, Reporter] = {}


def register_reporter(reporter: Reporter, *, replace: bool = False) -> None:
    """Add *reporter* to the registry under ``reporter.name``.

    Registering a taken name raises
    :class:`~repro.exceptions.ReporterRegistrationError` unless
    ``replace=True`` — accidental shadowing of a built-in format should
    be loud."""
    if not replace and reporter.name in _REGISTRY:
        raise ReporterRegistrationError(
            f"reporter {reporter.name!r} is already registered"
        )
    _REGISTRY[reporter.name] = reporter


for _reporter in (
    TextReporter(),
    JsonReporter(),
    JsonlReporter(),
    CsvReporter(),
    MarkdownReporter(),
    DiffReporter(),
):
    register_reporter(_reporter)


def reporter_names() -> Tuple[str, ...]:
    """Registered format names, in registration order."""
    return tuple(_REGISTRY)


def get_reporter(name: str) -> Reporter:
    """Look up a format; unknown names raise with the available list."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown report format {name!r} "
            f"(available: {', '.join(_REGISTRY)})"
        ) from None


def render_report(study: CorpusStudy, format: str = "text") -> str:
    """Render *study* in the named *format* (the one-call entry point)."""
    return get_reporter(format).render(study)
