"""Table 3 — operator-set distribution over {And, Filter, Opt, Graph,
Union} for Select/Ask queries.

What should hold: "none" is the largest single row; CPF (conjunctive
patterns with filters: none/F/A/A,F) covers roughly two thirds of the
queries (paper: 66.27%); adding Opt contributes several more percent
(paper: +8.56%).
"""

from __future__ import annotations

from _bench_utils import banner

from repro.reporting import render_text, table3_section

PAPER_TABLE3 = {
    "none": 33.49, "F": 19.04, "A": 7.49, "A, F": 6.25,
    "CPF subtotal": 66.27,
    "O": 1.04, "O, F": 3.43, "A, O": 3.31, "A, O, F": 0.78,
    "G": 2.65, "U": 7.46, "U, F": 0.38, "A, U": 1.57, "A, U, F": 1.56,
    "A, O, U, F": 7.82,
}


def test_table3_operator_sets(benchmark, corpus_study):
    rows = benchmark.pedantic(
        corpus_study.operator_table, rounds=1, iterations=1
    )

    banner("Table 3: operator sets (measured vs paper)")
    print(render_text(table3_section(corpus_study)))
    print()
    measured = {label: pct for label, _, pct in rows}
    print(f"{'Operator set':<14} {'paper':>8} {'measured':>10}")
    for label, paper_pct in PAPER_TABLE3.items():
        print(f"{label:<14} {paper_pct:>7.2f}% {measured.get(label, 0):>9.2f}%")

    # Shape checks.
    assert measured["CPF subtotal"] > 45
    assert measured["none"] == max(
        pct for label, pct in measured.items() if label != "CPF subtotal"
    )
    opt_increment, opt_pct = corpus_study.cpf_plus("O")
    assert opt_pct > 1
    # "Other features" (paths, Bind, Minus, subqueries) stay a small slice.
    other = 100.0 * corpus_study.operator_other_features / max(
        corpus_study.select_ask_count, 1
    )
    assert other < 15
