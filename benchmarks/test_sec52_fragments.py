"""§5.2 — fragment sizes: AOF, CQ, CQF, well-designed, CQOF.

What should hold (paper, of Select/Ask queries or of AOF patterns):
AOF ≈ 74.83% of S/A queries; CQ ≈ 54.58% of AOF; CQF ≈ 84.08% of AOF;
well-designed ≈ 98.53% of AOF; CQOF ≈ 93.87% of AOF; interface width
> 1 is vanishingly rare (paper: 310 queries out of ~39M).
"""

from __future__ import annotations

from _bench_utils import banner

from repro.reporting import render_text, fragments_section


def test_fragment_classification(benchmark, corpus_study):
    def fragment_shares():
        aof = corpus_study.aof_count or 1
        return {
            "aof_of_sa": 100.0 * corpus_study.aof_count
            / max(corpus_study.select_ask_count, 1),
            "cq_of_aof": 100.0 * corpus_study.cq_count / aof,
            "cqf_of_aof": 100.0 * corpus_study.cqf_count / aof,
            "wd_of_aof": 100.0 * corpus_study.well_designed_count / aof,
            "cqof_of_aof": 100.0 * corpus_study.cqof_count / aof,
        }

    shares = benchmark.pedantic(fragment_shares, rounds=1, iterations=1)

    banner("Sec 5.2: fragments (measured vs paper)")
    print(render_text(fragments_section(corpus_study)))
    print()
    paper = {
        "aof_of_sa": 74.83, "cq_of_aof": 54.58, "cqf_of_aof": 84.08,
        "wd_of_aof": 98.53, "cqof_of_aof": 93.87,
    }
    for key, value in paper.items():
        print(f"{key:<12} paper {value:>6.2f}%   measured {shares[key]:>6.2f}%")

    # Shape checks: fragment nesting and magnitudes.
    assert corpus_study.cq_count <= corpus_study.cqf_count <= corpus_study.aof_count
    assert corpus_study.cqof_count <= corpus_study.well_designed_count
    assert shares["aof_of_sa"] > 50
    assert shares["wd_of_aof"] > 85
    assert shares["cqof_of_aof"] > 70
    assert shares["cqf_of_aof"] > shares["cq_of_aof"]
    # Interface width > 1 is rare.
    assert corpus_study.wide_interface_count <= corpus_study.aof_count * 0.02
