"""Table 5 — navigational property-path taxonomy and Ctract.

What should hold: the simple form ``!a`` accounts for a large share of
all paths (paper: 63,039 of 247,404); among navigational paths the
top types are ``(a1|...|ak)*``, ``a*``, ``a1/.../ak`` and ``a*/b``
(paper: 39.12%, 26.42%, 11.65%, 10.39%); non-Ctract expressions are
essentially absent (paper: exactly one, ``(a/b)*``).
"""

from __future__ import annotations

from _bench_utils import banner

from repro.reporting import render_text, table5_section

PAPER_TOP_TYPES = {
    "(a1|...|ak)*": 39.12,
    "a*": 26.42,
    "a1/.../ak": 11.65,
    "a*/b": 10.39,
    "a1|...|ak": 8.72,
    "a+": 2.07,
    "a1?/.../ak?": 1.55,
}


def test_table5_property_paths(benchmark, corpus_study):
    rows = benchmark.pedantic(corpus_study.path_table, rounds=1, iterations=1)

    banner("Table 5: property paths (measured vs paper)")
    print(render_text(table5_section(corpus_study)))
    print()
    measured = {name: pct for name, _, pct, _ in rows}
    print(f"{'Type':<16} {'paper':>8} {'measured':>10}")
    for name, paper_pct in PAPER_TOP_TYPES.items():
        print(f"{name:<16} {paper_pct:>7.2f}% {measured.get(name, 0):>9.2f}%")

    navigational = sum(corpus_study.path_types.values())
    if navigational >= 20:
        # The four dominant types cover most navigational paths.
        top = sum(measured.get(t, 0) for t in list(PAPER_TOP_TYPES)[:4])
        assert top > 60
        # Simple !a occurs, and far more than ^a.
        assert corpus_study.simple_path_forms.get("!a", 0) >= corpus_study.simple_path_forms.get("^a", 0)
    # Ctract outliers are at most a curiosity.
    assert len(corpus_study.non_ctract) <= max(1, navigational * 0.05)
