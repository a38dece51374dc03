"""§4.4 — subqueries and projection.

What should hold: subqueries are rare corpus-wide (paper: 0.54%) but an
order of magnitude more common in WikiData17 (paper: 9.74%); projection
lies in a [definite, definite+indeterminate] band around 15% (paper:
14.98%–16.28%), with Ask queries contributing only when they bind
variables.
"""

from __future__ import annotations

from _bench_utils import banner

from repro.reporting import render_text, projection_section


def test_projection_and_subqueries(benchmark, corpus_study):
    bounds = benchmark.pedantic(
        corpus_study.projection_bounds, rounds=1, iterations=1
    )

    banner("Sec 4.4: projection and subqueries (measured vs paper)")
    print(render_text(projection_section(corpus_study)))
    print()
    low, high = bounds
    subquery_pct = 100.0 * corpus_study.subquery_count / max(
        corpus_study.query_count, 1
    )
    print(f"paper: subqueries 0.54%       measured: {subquery_pct:.2f}%")
    print(f"paper: projection 14.98%-16.28%  measured: {low:.2f}%-{high:.2f}%")

    # Shape checks.
    assert 0 <= low <= high <= 100
    assert subquery_pct < 10  # rare corpus-wide
    assert 3 < low < 40  # projection is a substantial minority
    assert high - low < 15  # the Bind-indeterminate band is narrow
