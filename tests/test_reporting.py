"""Unit tests for the report sections and the table/figure renderers."""

from repro.analysis.study import study_corpus
from repro.api import analyze_corpora
from repro.engine import QueryRunResult, WorkloadRunResult
from repro.logs import build_query_log
from repro.reporting import (
    Note,
    Table,
    figure1_section,
    figure5_section,
    fragments_section,
    hypertree_section,
    projection_section,
    render_figure3,
    render_table,
    render_text,
    table1_section,
    table2_section,
    table3_section,
    table4_section,
    table5_section,
    table6_section,
)


def sample_study():
    queries = [
        "SELECT ?s WHERE { ?s <urn:p> ?o }",
        "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }",
        "SELECT * WHERE { ?s <urn:p>* ?o }",
        "ASK { ?s !<urn:x> ?o }",
        "DESCRIBE <urn:thing>",
    ]
    logs = {"sample": build_query_log("sample", queries)}
    return logs, study_corpus(logs)


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table("T", ("a", "bb"), [("x", "1"), ("yyyy", "22")])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_table1(self):
        _, study = sample_study()
        text = render_text(table1_section(study))
        assert "Table 1" in text
        assert "sample" in text
        assert "Total" in text

    def test_table2(self):
        _, study = sample_study()
        text = render_text(table2_section(study))
        assert "Select" in text and "Ask" in text
        assert "%" in text

    def test_figure1(self):
        _, study = sample_study()
        text = render_text(figure1_section(study))
        assert "11+" in text
        assert "Avg#T" in text
        assert "S/A" in text

    def test_table3(self):
        _, study = sample_study()
        text = render_text(table3_section(study))
        assert "CPF subtotal" in text
        assert "CPF+O" in text
        assert "other features" in text

    def test_projection(self):
        _, study = sample_study()
        text = render_text(projection_section(study))
        assert "projection bounds" in text

    def test_fragments(self):
        _, study = sample_study()
        text = render_text(fragments_section(study))
        assert "AOF patterns" in text
        assert "CQOF" in text

    def test_figure5(self):
        _, study = sample_study()
        text = render_text(figure5_section(study))
        assert "11+" in text

    def test_table4(self):
        _, study = sample_study()
        text = render_text(table4_section(study))
        assert "single edge" in text
        assert "flower set" in text
        assert "treewidth <= 2" in text
        assert "constants" in text

    def test_table5(self):
        _, study = sample_study()
        text = render_text(table5_section(study))
        assert "a*" in text
        assert "Ctract" in text

    def test_hypertree(self):
        _, study = sample_study()
        text = render_text(hypertree_section(study))
        assert "Hypertree" in text or "hypertree" in text

    def test_table6(self):
        _, study = sample_study()
        assert table6_section(study) == []  # the streaks metric did not run
        day = ["SELECT ?s WHERE { ?s <urn:p> ?o }"] * 3
        result = analyze_corpora({"DBP'14": day}, metrics=("streaks",))
        table, note = table6_section(result.study)
        assert isinstance(table, Table) and isinstance(note, Note)
        assert table.headers == ("Streak length", "DBP'14")
        assert table.rows[0] == ("1-10", "1")
        assert note.lines == ("longest streak: 3 queries",)

    def test_figure3(self):
        runs = (
            QueryRunResult(elapsed=0.01, timed_out=False),
            QueryRunResult(elapsed=0.3, timed_out=True),
        )
        results = [
            WorkloadRunResult(engine="BG", workload="chain-3", runs=runs),
            WorkloadRunResult(engine="PG", workload="cycle-3", runs=runs),
        ]
        text = render_figure3(results)
        assert "chain-3 BG" in text
        assert "1/2 t/o" in text

    def test_small_percentage_formatting(self):
        _, study = sample_study()
        # Smoke-check the <0.01% path via Table 2 on tiny counts.
        assert "%" in render_text(table2_section(study))

    def test_dataset_highlights(self):
        from repro.reporting import render_dataset_highlights

        _, study = sample_study()
        text = render_dataset_highlights(study)
        assert "sample" in text
        assert "Distinct" in text and "Graph" in text
