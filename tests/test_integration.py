"""End-to-end integration tests: corpus → pipeline → study → report."""

import pytest

from oracles import streaks_reference
from repro.analysis.streaks import StreakAccumulator
from repro.analysis.study import study_corpus
from repro.engine import IndexedEngine, NestedLoopEngine
from repro.logs import build_query_log, encode_access_log_line, iter_queries
from repro.reporting import REPORT_SECTIONS, render_text
from repro.workload import (
    bib_schema,
    generate_corpus,
    generate_day_log,
    generate_graph,
    generate_workload,
)


@pytest.fixture(scope="module")
def mini_corpus_study():
    corpus = generate_corpus(scale=3e-6, seed=42)
    logs = {
        name: build_query_log(name, entries) for name, entries in corpus.items()
    }
    return logs, study_corpus(logs)


class TestFullPipeline:
    def test_table1_counters_consistent(self, mini_corpus_study):
        logs, _ = mini_corpus_study
        for log in logs.values():
            assert log.unique <= log.valid <= log.total

    def test_study_covers_all_datasets(self, mini_corpus_study):
        _, study = mini_corpus_study
        assert len(study.datasets) == 13

    def test_select_dominates(self, mini_corpus_study):
        _, study = mini_corpus_study
        table = dict((k, a) for k, a, _ in study.keyword_table())
        assert table["Select"] > table["Construct"]

    def test_most_queries_are_small(self, mini_corpus_study):
        """Paper: >55% of S/A queries use at most one triple."""
        _, study = mini_corpus_study
        small = sum(
            count
            for stats in study.datasets.values()
            for size, count in stats.triple_hist.items()
            if size <= 1
        )
        assert small / max(study.select_ask_count, 1) > 0.4

    def test_overwhelming_majority_acyclic(self, mini_corpus_study):
        """Paper Table 4: ~99.9% of CQs are forests/flower sets."""
        _, study = mini_corpus_study
        totals = study.shape_totals["CQ"]
        if totals:
            forests = study.shape_counts["CQ"]["forest"]
            assert forests / totals > 0.95
            assert study.shape_counts["CQ"]["flower set"] / totals > 0.98

    def test_treewidth_at_most_two_everywhere(self, mini_corpus_study):
        _, study = mini_corpus_study
        for fragment in ("CQ", "CQF", "CQOF"):
            widths = set(study.treewidth_counts[fragment])
            assert widths <= {0, 1, 2, 3}

    def test_renderers_run(self, mini_corpus_study):
        _, study = mini_corpus_study
        for name in ("table1", "table2", "figure1", "table3", "table4"):
            assert render_text(REPORT_SECTIONS[name](study))

    def test_valid_study_weighting(self, mini_corpus_study):
        logs, unique_study = mini_corpus_study
        valid_study = study_corpus(logs, dedup=False)
        assert valid_study.query_count >= unique_study.query_count


class TestAccessLogRoundTrip:
    def test_corpus_through_access_log_format(self):
        corpus = generate_corpus(scale=1e-6, seed=7, datasets=["SWDF13"])
        raw_lines = [encode_access_log_line(q) for q in corpus["SWDF13"]]
        recovered = list(iter_queries(raw_lines))
        assert recovered == corpus["SWDF13"]


class TestStreakPipeline:
    def test_day_log_streaks(self):
        log = generate_day_log(n_queries=250, session_rate=0.4, seed=3)
        accumulator = StreakAccumulator()
        for text in log:
            accumulator.push(text)
        streaks = streaks_reference(log, window=30)
        assert sum(accumulator.length_histogram().values()) == len(streaks)
        assert accumulator.longest == max(len(s) for s in streaks)
        # Sessions must produce at least one multi-query streak.
        assert accumulator.longest >= 2


class TestFigure3Pipeline:
    def test_chain_cycle_engine_contrast(self):
        """The headline Figure 3 effects, at test scale:
        BG (indexed) beats PG (nested-loop); PG suffers on cycles."""
        schema = bib_schema()
        graph = generate_graph(schema, 300, seed=1)
        chain = [q.text for q in generate_workload(schema, "chain", 3, 3, seed=2)]
        cycle = [q.text for q in generate_workload(schema, "cycle", 3, 3, seed=2)]
        timeout = 5.0
        bg = IndexedEngine(graph, timeout=timeout)
        pg = NestedLoopEngine(graph, timeout=timeout)
        bg_chain = bg.run_workload(chain, "chain")
        pg_chain = pg.run_workload(chain, "chain")
        bg_cycle = bg.run_workload(cycle, "cycle")
        pg_cycle = pg.run_workload(cycle, "cycle")
        # Ordering: indexed engine is faster on both workloads.
        assert bg_chain.average_elapsed < pg_chain.average_elapsed
        assert bg_cycle.average_elapsed < pg_cycle.average_elapsed
        # BG handles these sizes without timing out.
        assert bg_chain.timeout_count == 0
        assert bg_cycle.timeout_count == 0
