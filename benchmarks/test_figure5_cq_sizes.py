"""Figure 5 — sizes of CQ-like queries with at least two triples.

What should hold: the one-triple fraction is dominant inside each
fragment (paper: 82% / 83.45% / 75.52% for CQ / CQF / CQOF), and among
multi-triple queries the mass sits at 2–3 triples with a thin 11+ tail.
"""

from __future__ import annotations

from _bench_utils import banner

from repro.reporting import render_text, figure5_section

PAPER_ONE_TRIPLE = {"CQ": 82.0, "CQF": 83.45, "CQOF": 75.52}


def test_figure5_cq_sizes(benchmark, corpus_study):
    def one_triple_shares():
        shares = {}
        for fragment, sizes in (
            ("CQ", corpus_study.cq_sizes),
            ("CQF", corpus_study.cqf_sizes),
            ("CQOF", corpus_study.cqof_sizes),
        ):
            total = sum(sizes.values()) or 1
            shares[fragment] = 100.0 * sizes.get(1, 0) / total
        return shares

    shares = benchmark.pedantic(one_triple_shares, rounds=1, iterations=1)

    banner("Figure 5: CQ-like query sizes (measured vs paper)")
    print(render_text(figure5_section(corpus_study)))
    print()
    for fragment, paper_pct in PAPER_ONE_TRIPLE.items():
        print(
            f"1-triple share of {fragment:<5} paper {paper_pct:>6.2f}%  "
            f"measured {shares[fragment]:>6.2f}%"
        )

    # Shape checks.
    for fragment in ("CQ", "CQF", "CQOF"):
        assert shares[fragment] > 40, fragment
    # Multi-triple mass concentrates at small sizes.
    multi = {k: v for k, v in corpus_study.cq_sizes.items() if k >= 2}
    if multi:
        small = sum(v for k, v in multi.items() if k <= 4)
        assert small / sum(multi.values()) > 0.5
