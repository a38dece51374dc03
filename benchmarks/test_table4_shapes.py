"""Table 4 — cumulative shape analysis of CQ / CQF / CQOF.

What should hold (paper, Unique corpus): single edges ≈ 72–81% of each
fragment; chains push coverage past 90%; trees/forests reach ≈ 99.9%;
plain cycles are vanishingly rare (0.02–0.03%); flower sets close the
gap to ~100%; all queries have treewidth ≤ 2 except a single
treewidth-3 query in the whole corpus.
"""

from __future__ import annotations

from _bench_utils import banner

from repro.reporting import render_text, table4_section

#: Paper Table 4, CQ column (shape -> relative %).
PAPER_TABLE4_CQ = {
    "single edge": 77.98, "chain": 98.87, "chain set": 98.93,
    "star": 0.94, "tree": 99.90, "forest": 99.95, "cycle": 0.03,
    "flower": 99.94, "flower set": 100.00,
}


def test_table4_shape_analysis(benchmark, corpus_study):
    tables = benchmark.pedantic(
        lambda: {f: corpus_study.shape_table(f) for f in ("CQ", "CQF", "CQOF")},
        rounds=1,
        iterations=1,
    )

    banner("Table 4: cumulative shape analysis (measured vs paper CQ column)")
    print(render_text(table4_section(corpus_study)))
    print()
    measured_cq = {label: pct for label, _, pct in tables["CQ"]}
    print(f"{'Shape':<12} {'paper CQ':>9} {'measured':>10}")
    for shape, paper_pct in PAPER_TABLE4_CQ.items():
        print(f"{shape:<12} {paper_pct:>8.2f}% {measured_cq.get(shape, 0):>9.2f}%")

    # Shape checks on every fragment.
    for fragment in ("CQ", "CQF", "CQOF"):
        rows = {label: pct for label, _, pct in tables[fragment]}
        total = corpus_study.shape_totals[fragment]
        if total < 20:
            continue
        assert rows["single edge"] > 50
        assert rows["chain"] >= rows["single edge"]
        assert rows["tree"] >= rows["chain"]
        assert rows["forest"] >= rows["tree"]
        assert rows["flower set"] >= rows["flower"]
        assert rows["flower set"] > 97
        assert rows["cycle"] < 3
        assert rows["star"] < 25
        # Treewidth: everything ≤ 2 (3 is the paper's single outlier).
        assert rows["treewidth <= 2"] > 99 or total < 100
