"""Table 1 — corpus sizes: Total / Valid / Unique per log.

Regenerates the paper's Table 1 by running the clean → parse → dedup
pipeline over the calibrated synthetic corpus.  What should hold: Valid
is a few % below Total (non-query entries and malformed queries), and
Unique is substantially below Valid, with the per-dataset duplication
profile (BioMed13 extremely duplicate-heavy, WikiData17 duplicate-free).
"""

from __future__ import annotations

from _bench_utils import BENCH_SCALE, banner

from repro.logs import build_query_log
from repro.reporting import render_text, table1_section

#: Paper values (Total, Valid, Unique) for reference printing.
PAPER_TABLE1 = {
    "DBpedia9/12": (28_534_301, 27_097_467, 13_437_966),
    "DBpedia13": (5_243_853, 4_819_837, 2_628_005),
    "DBpedia14": (37_219_788, 33_996_480, 17_217_448),
    "DBpedia15": (43_478_986, 42_709_778, 13_253_845),
    "DBpedia16": (15_098_176, 14_687_869, 4_369_781),
    "LGD13": (1_841_880, 1_513_868, 357_842),
    "LGD14": (1_999_961, 1_929_130, 628_640),
    "BioP13": (4_627_271, 4_624_430, 687_773),
    "BioP14": (26_438_933, 26_404_710, 2_191_152),
    "BioMed13": (883_374, 882_809, 27_030),
    "SWDF13": (13_762_797, 13_618_017, 1_229_759),
    "BritM14": (1_523_827, 1_513_534, 135_112),
    "WikiData17": (309, 308, 308),
}


def test_table1_pipeline(benchmark, corpus_entries, corpus_study):
    def run_pipeline():
        return {
            name: build_query_log(name, entries)
            for name, entries in corpus_entries.items()
        }

    logs = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)

    banner(f"Table 1 (measured @ scale {BENCH_SCALE:g}) vs paper")
    # corpus_study is built from the same entries, so its Table 1
    # counters are these logs' counters.
    print(render_text(table1_section(corpus_study)))
    print()
    print("Paper (scaled expectation in parentheses):")
    for name, (total, valid, unique) in PAPER_TABLE1.items():
        log = logs[name]
        print(
            f"  {name:<12} paper T/V/U = {total:>10,}/{valid:>10,}/{unique:>10,}"
            f"  (scaled ~{total * BENCH_SCALE:,.0f}/{valid * BENCH_SCALE:,.0f}"
            f"/{unique * BENCH_SCALE:,.0f})"
            f"  measured {log.total}/{log.valid}/{log.unique}"
        )

    # Shape checks: orderings the paper's Table 1 exhibits.
    for name, log in logs.items():
        assert log.unique <= log.valid <= log.total, name
    # Valid share is high everywhere (paper: 82–99.9%).
    for name, log in logs.items():
        if log.total >= 20:
            assert log.valid / log.total > 0.7, name
    # Duplicate-heavy datasets deduplicate much harder than WikiData.
    biomed = logs["BioMed13"]
    if biomed.valid >= 10:
        assert biomed.unique / biomed.valid < 0.6
