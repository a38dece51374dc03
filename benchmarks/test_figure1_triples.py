"""Figure 1 — number-of-triples histograms per dataset.

What should hold: queries with 0–2 triples dominate almost every
dataset; BioP13/BioP14 are almost exclusively 1-triple; BritM14 and
WikiData17 are the outliers with large queries; the corpus-wide share
of Select/Ask queries with ≤ 1 triple exceeds 50% (paper: 56.45%).
"""

from __future__ import annotations

from _bench_utils import banner

from repro.reporting import render_text, figure1_section

#: Figure 1 bottom rows: (S/A %, Avg#T) per dataset.
PAPER_FIGURE1 = {
    "DBpedia9/12": (99.15, 2.38),
    "DBpedia13": (91.88, 3.98),
    "DBpedia14": (95.38, 2.09),
    "DBpedia15": (93.05, 2.94),
    "DBpedia16": (63.99, 3.78),
    "LGD13": (29.01, 3.19),
    "LGD14": (97.47, 2.65),
    "BioP13": (100.0, 1.16),
    "BioP14": (99.69, 1.42),
    "BioMed13": (12.87, 2.44),
    "SWDF13": (96.14, 1.51),
    "BritM14": (98.64, 5.47),
    "WikiData17": (99.68, 3.94),
}


def test_figure1_triple_histograms(benchmark, corpus_study):
    def per_dataset_histograms():
        return {
            name: stats.triple_hist_percentages()
            for name, stats in corpus_study.datasets.items()
        }

    histograms = benchmark.pedantic(per_dataset_histograms, rounds=1, iterations=1)

    banner("Figure 1: triple-count distribution (measured vs paper)")
    print(render_text(figure1_section(corpus_study)))
    print()
    print(f"{'Dataset':<12} {'paper S/A':>10} {'meas S/A':>10} "
          f"{'paper Avg#T':>12} {'meas Avg#T':>11}")
    for name, (sa, avg) in PAPER_FIGURE1.items():
        stats = corpus_study.datasets[name]
        print(
            f"{name:<12} {sa:>9.2f}% {100 * stats.select_ask_share:>9.2f}% "
            f"{avg:>12.2f} {stats.average_triples:>11.2f}"
        )

    # Shape checks.
    # Corpus-wide: most S/A queries have at most one triple.
    small = sum(
        count
        for stats in corpus_study.datasets.values()
        for size, count in stats.triple_hist.items()
        if size <= 1
    )
    assert small / max(corpus_study.select_ask_count, 1) > 0.45
    # BioP logs are tiny-query logs; BritM14 queries are large.
    biop = corpus_study.datasets["BioP13"]
    if biop.select_ask >= 10:
        assert biop.triple_hist_percentages()["1"] > 60
    britm = corpus_study.datasets["BritM14"]
    if britm.queries >= 5:
        assert britm.average_triples > 3
    # Describe-heavy BioMed13 has a low S/A share.
    biomed = corpus_study.datasets["BioMed13"]
    if biomed.queries >= 10:
        assert biomed.select_ask_share < 0.5
    assert histograms  # benchmark payload materialized
