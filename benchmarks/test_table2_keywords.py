"""Table 2 — keyword counts over the Unique corpus.

What should hold (paper's relative percentages, Unique corpus):
Select ≈ 88%, Ask ≈ 5%, Describe ≈ 4.5%, Construct ≈ 2.5%; Filter ≈
40%, And ≈ 28%, Union ≈ 19%, Opt ≈ 16%; aggregation operators < 1%.
"""

from __future__ import annotations

from _bench_utils import banner

from repro.analysis.study import study_corpus
from repro.reporting import render_text, table2_section

#: (keyword, paper relative %) from Table 2.
PAPER_TABLE2 = {
    "Select": 87.97, "Ask": 4.97, "Describe": 4.49, "Construct": 2.47,
    "Distinct": 21.72, "Limit": 17.00, "Offset": 6.15, "Order By": 2.06,
    "Filter": 40.15, "And": 28.25, "Union": 18.63, "Opt": 16.21,
    "Graph": 2.71, "Not Exists": 1.65, "Minus": 1.36, "Exists": 0.01,
    "Count": 0.57, "Max": 0.01, "Min": 0.01, "Avg": 0.00, "Sum": 0.00,
    "Group By": 0.30, "Having": 0.02,
}


def test_table2_keywords(benchmark, corpus_logs):
    study = benchmark.pedantic(
        lambda: study_corpus(corpus_logs, dedup=True), rounds=1, iterations=1
    )

    banner("Table 2: keyword counts (measured vs paper)")
    print(render_text(table2_section(study)))
    print()
    measured = {k: pct for k, _, pct in study.keyword_table()}
    print(f"{'Element':<12} {'paper':>8} {'measured':>10}")
    for keyword, paper_pct in PAPER_TABLE2.items():
        print(f"{keyword:<12} {paper_pct:>7.2f}% {measured.get(keyword, 0):>9.2f}%")

    # Shape checks.
    assert measured["Select"] > 70
    assert measured["Select"] > measured["Ask"] > measured["Construct"]
    assert measured["Filter"] > measured["Union"]
    assert measured["Filter"] > measured["Opt"]
    for rare in ("Max", "Min", "Avg", "Sum", "Having"):
        assert measured.get(rare, 0) < 2.0
