"""Tests for the pluggable reporter registry (repro.reporting.reporters)."""

import csv
import io
import json

import pytest

from repro.analysis.study import CorpusStudy, study_corpus
from repro.logs import build_query_log
from repro.reporting import (
    REPORT_SECTIONS,
    Table,
    get_reporter,
    register_reporter,
    render_report,
    render_text,
    report_blocks,
    reporter_names,
)
from repro.reporting import reporters as reporters_module

TEXTS = [
    "SELECT ?x WHERE { ?x <urn:p> ?y }",
    "ASK { ?a <urn:q> ?b . ?b <urn:r> ?a }",
    "SELECT DISTINCT ?s WHERE { ?s <urn:p> ?o . FILTER(?o > 3) }",
    "ASK { ?s <urn:p>+ ?o }",
]


@pytest.fixture(scope="module")
def logs():
    return {
        "alpha": build_query_log("alpha", TEXTS),
        "beta": build_query_log("beta", TEXTS[:2]),
    }


@pytest.fixture(scope="module")
def study(logs):
    return study_corpus(logs)


class TestRegistry:
    def test_builtin_formats_registered(self):
        assert reporter_names() == (
            "text", "json", "jsonl", "csv", "markdown", "diff",
        )

    def test_unknown_format_raises_with_available_list(self):
        with pytest.raises(ValueError, match="available: text"):
            get_reporter("yaml")

    def test_duplicate_registration_is_loud(self):
        with pytest.raises(ValueError, match="already registered"):
            register_reporter(reporters_module.TextReporter())

    def test_duplicate_registration_error_is_typed(self):
        # The collision error is part of the library hierarchy (so
        # `except ReproError` pipelines catch it) while remaining a
        # ValueError for pre-typed callers.
        from repro.exceptions import ReporterRegistrationError, ReproError

        with pytest.raises(ReporterRegistrationError, match="'text'"):
            register_reporter(reporters_module.TextReporter())
        assert issubclass(ReporterRegistrationError, ReproError)
        assert issubclass(ReporterRegistrationError, ValueError)

    def test_custom_reporter_plugs_in(self, study):
        class TallyReporter:
            name = "tally"
            description = "just the query count"

            def render(self, study):
                return f"{study.query_count}\n"

        register_reporter(TallyReporter())
        try:
            assert render_report(study, "tally") == f"{study.query_count}\n"
            assert "tally" in reporter_names()
        finally:
            del reporters_module._REGISTRY["tally"]

    def test_replace_requires_opt_in(self, study):
        class Silent:
            name = "text"
            description = "override"

            def render(self, study):
                return "quiet\n"

        original = get_reporter("text")
        register_reporter(Silent(), replace=True)
        try:
            assert render_report(study, "text") == "quiet\n"
        finally:
            register_reporter(original, replace=True)


class TestFormats:
    def test_text_matches_legacy_render_study(self, study):
        # The text report is what render_study built: each section
        # rendered alone, in REPORT_SECTIONS order, one blank line apart
        # (so every section is a slice, as the served table blocks need).
        texts = [render_text(section(study)) for section in REPORT_SECTIONS.values()]
        assert render_report(study, "text") == "\n\n".join(t for t in texts if t)

    def test_every_format_renders_nonempty(self, study):
        for name in reporter_names():
            output = render_report(study, name)
            assert output
            if name != "text":  # the text report has no trailing newline
                assert output.endswith("\n")

    def test_json_is_a_loadable_snapshot(self, study):
        data = json.loads(render_report(study, "json"))
        assert CorpusStudy.from_dict(data) == study

    def test_jsonl_one_line_per_dataset(self, study):
        lines = render_report(study, "jsonl").splitlines()
        assert len(lines) == len(study.datasets)
        records = [json.loads(line) for line in lines]
        assert [record["dataset"] for record in records] == list(study.datasets)
        assert records[0]["total"] == study.datasets["alpha"].total
        assert "average_triples" in records[0]

    def test_csv_is_parseable_long_format(self, study):
        output = render_report(study, "csv")
        rows = list(csv.reader(io.StringIO(output)))
        assert rows[0] == ["section", "row", "column", "value"]
        sections = {row[0] for row in rows[1:]}
        assert {"table1", "table2", "table3", "table5"} <= sections
        # Table 1 totals present and numeric.
        total_row = next(
            row for row in rows[1:]
            if row[0] == "table1" and row[1] == "Total" and row[2] == "total"
        )
        assert int(total_row[3]) == sum(s.total for s in study.datasets.values())

    def test_markdown_has_pipe_tables(self, study):
        output = render_report(study, "markdown")
        assert "## Table 2: Keyword count in queries" in output
        assert "| Element | Absolute | Relative |" in output
        assert output.count("| --- |") >= 5

    def test_markdown_covers_every_text_report_section(self, study):
        # Markdown carries every table of the text report: each title
        # as a heading and each row, cell for cell, as a pipe-table row.
        lines = set(render_report(study, "markdown").splitlines())
        tables = [block for block in report_blocks(study) if isinstance(block, Table)]
        assert len(tables) >= 14
        for table in tables:
            assert f"## {table.title}" in lines
            for row in table.rows:
                cells = [cell.replace("|", "\\|") for cell in row]
                assert "| " + " | ".join(cells) + " |" in lines, (table.title, row)

    def test_markdown_table5_preamble_under_its_heading(self, study):
        # The property-path totals introduce Table 5; they must not
        # trail the previous section's heading (Sec 6.2).
        output = render_report(study, "markdown")
        heading = output.index("## Table 5: Structure of navigational property paths")
        preamble = output.index("- Property paths total: ")
        assert heading < preamble < output.index("| Expression Type |")
        assert "## " not in output[heading + 1:preamble]

    def test_reporters_are_pure(self, study):
        before = study.to_dict()
        for name in reporter_names():
            first = render_report(study, name)
            assert render_report(study, name) == first
        assert study.to_dict() == before
