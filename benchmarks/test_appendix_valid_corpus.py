"""Appendix (Tables 7–9, Figures 8–10) — the Valid corpus analyses.

The paper repeats every analysis on the duplicate-retaining Valid
corpus.  What should hold: the same qualitative structure as the
main-body tables, with duplication shifting weight toward the hot
queries; the paper notes that larger/more complex queries occur
relatively *more often* with duplicates than without.

This bench doubles as the dedup ablation called out in DESIGN.md.
"""

from __future__ import annotations

from _bench_utils import banner

from repro.analysis.study import study_corpus
from repro.reporting import render_text, table2_section, table3_section


def test_appendix_valid_corpus(benchmark, corpus_logs, corpus_study):
    valid_study = benchmark.pedantic(
        lambda: study_corpus(corpus_logs, dedup=False), rounds=1, iterations=1
    )

    banner("Appendix: Valid corpus (Tables 7-8 analogues)")
    print(render_text(table2_section(valid_study, title="Table 7")))
    print()
    print(render_text(table3_section(valid_study, title="Table 8")))

    # The valid corpus is strictly larger than the unique one.
    assert valid_study.query_count > corpus_study.query_count

    # Every keyword count is at least its unique-corpus counterpart
    # (duplication can only add occurrences).
    for keyword, count in corpus_study.keyword_counts.items():
        assert valid_study.keyword_counts[keyword] >= count, keyword

    # Shape analysis still reaches ~100% flower-set coverage.
    totals = valid_study.shape_totals["CQ"]
    if totals >= 50:
        coverage = valid_study.shape_counts["CQ"]["flower set"] / totals
        assert coverage > 0.97

    # Operator-set distribution keeps its ordering: CPF dominates.
    table = {label: pct for label, _, pct in valid_study.operator_table()}
    assert table["CPF subtotal"] > 40
