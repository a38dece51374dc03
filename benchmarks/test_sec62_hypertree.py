"""§6.2 — hypertree width of predicate-variable CQOF queries.

What should hold: virtually every such query has hypertree width 1
(paper: all but 86 width-2 and 8 width-3 queries of 6.96M), and
width-1 decompositions have as many nodes as the query has hyperedges.
"""

from __future__ import annotations

from _bench_utils import banner

from repro.reporting import render_text, hypertree_section


def test_hypertree_widths(benchmark, corpus_study):
    widths = benchmark.pedantic(
        lambda: dict(corpus_study.hypertree_widths), rounds=1, iterations=1
    )

    banner("Sec 6.2: hypertree widths (measured vs paper)")
    print(render_text(hypertree_section(corpus_study)))
    print()
    print("Measured width histogram:", dict(sorted(widths.items())))
    print("Paper: width 1 everywhere except 86 queries (width 2) and 8 (width 3)")

    total = sum(widths.values())
    if total >= 10:
        # Width 1 dominates overwhelmingly.
        assert widths.get(1, 0) / total > 0.9
        # Nothing above width 3.
        assert all(width <= 3 for width in widths)
    # Decomposition node counts exist whenever widths were measured.
    assert sum(corpus_study.decomposition_nodes.values()) == total
