"""Tests for the stable public facade (repro.api)."""

import pytest

from repro.analysis.study import study_corpus
from repro.api import (
    AnalysisRequest,
    AnalysisSession,
    CoverageCaveats,
    analyze,
    analyze_corpora,
    load_study,
    merge_studies,
)
from repro.logs import build_query_log
from repro.reporting import render_text, table1_section

TEXTS = [
    "SELECT ?x WHERE { ?x <urn:p> ?y }",
    "ASK { ?a <urn:q> ?b . ?b <urn:r> ?a }",
    "SELECT * WHERE { ?s ?p ?o . FILTER(?o > 3) }",
    "ASK { ?s <urn:p>+ ?o }",
    "broken {",
]


@pytest.fixture()
def query_files(tmp_path):
    first = tmp_path / "alpha.rq"
    first.write_text("\n".join(TEXTS[:3]) + "\n")
    second = tmp_path / "beta.rq"
    second.write_text("\n".join(TEXTS[3:]) + "\n")
    return first, second


class TestAnalyze:
    def test_matches_low_level_drivers(self, query_files):
        first, second = query_files
        result = analyze(first, second)
        logs = {
            "alpha": build_query_log("alpha", TEXTS[:3]),
            "beta": build_query_log("beta", TEXTS[3:]),
        }
        assert result.study == study_corpus(logs)
        assert result.render("text").startswith("Table 1")

    def test_render_text_equals_render_study_with_logs(self, query_files):
        # render_study(study, logs) drew Table 1 from the live logs; the
        # report draws it from counters carried on the study, which must
        # be the logs' counters.
        result = analyze(*query_files)
        (table,) = table1_section(result.study)
        assert table.rows[:-1] == [
            (name, f"{log.total:,}", f"{log.valid:,}", f"{log.unique:,}")
            for name, log in result.logs.items()
        ]
        assert result.render("text").startswith(render_text([table]) + "\n\n")

    def test_corpora_entry_point(self):
        result = analyze_corpora({"mem": TEXTS})
        assert result.study.datasets["mem"].total == len(TEXTS)
        assert result.logs is not None and "mem" in result.logs

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 2, "chunk_size": 1},
            {},
            {"chunk_size": 1},
        ],
    )
    def test_execution_modes_are_byte_identical(self, query_files, kwargs):
        """File inputs stream; the report equals the in-memory one."""
        in_memory = analyze_corpora({"alpha": TEXTS[:3], "beta": TEXTS[3:]})
        streamed = analyze(*query_files, **kwargs)
        assert streamed.study == in_memory.study
        assert streamed.render("text") == in_memory.render("text")

    def test_dedup_false_weights_duplicates(self):
        texts = ["ASK { ?s ?p ?o }"] * 3
        unique = analyze_corpora({"mem": texts})
        valid = analyze_corpora({"mem": texts}, dedup=False)
        assert unique.study.query_count == 1
        assert valid.study.query_count == 3

    def test_metrics_subset(self, query_files):
        result = analyze(*query_files, metrics=("shallow",))
        assert result.study.query_count > 0
        assert not result.study.operator_sets  # operators pass not run

    def test_profile(self, query_files):
        result = analyze(*query_files, profile=True)
        assert result.profile is not None
        assert result.profile.queries == result.study.query_count

    def test_caveats(self, query_files):
        clean = analyze(*query_files)
        assert clean.caveats == CoverageCaveats(0, 0)
        assert clean.caveats.clean
        limited = analyze(*query_files, shape_node_limit=1)
        assert limited.caveats.shape_limit_skipped > 0
        assert not limited.caveats.clean


class TestRequestValidation:
    def test_rejects_inputs_and_corpora_together(self, query_files):
        request = AnalysisRequest(inputs=(query_files[0],), corpora={"m": []})
        with pytest.raises(ValueError, match="not both"):
            AnalysisSession().run(request)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError, match="nothing to analyze"):
            AnalysisSession().run(AnalysisRequest())

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            AnalysisRequest(corpora={"m": []}, workers=0).validate()

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            AnalysisRequest(corpora={"m": []}, chunk_size=0).validate()

    def test_rejects_unknown_metrics(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            AnalysisRequest(corpora={"m": []}, metrics=("nope",)).validate()

    def test_rejects_colliding_dataset_names(self, tmp_path):
        first = tmp_path / "day.log"
        first.write_text("ASK { ?s ?p ?o }\n")
        second = tmp_path / "day.rq"
        second.write_text("ASK { ?s ?p ?o }\n")
        with pytest.raises(ValueError, match="dataset name"):
            AnalysisRequest(inputs=(first, second)).validate()


class TestResult:
    def test_save_load_round_trip(self, query_files, tmp_path):
        result = analyze(*query_files)
        path = tmp_path / "study.json"
        result.save(path)
        assert load_study(path) == result.study
        from repro.api import AnalysisResult

        loaded = AnalysisResult.load(path)
        assert loaded.study == result.study
        assert loaded.logs is None
        # A loaded result still renders Table 1 (pipeline counters
        # travel on the per-dataset stats).
        assert loaded.render("text") == result.render("text")

    def test_result_merge(self, query_files):
        first, second = query_files
        combined = analyze(first).merge(analyze(second))
        direct = analyze(first, second)
        assert combined.study == direct.study
        assert combined.logs is not None and set(combined.logs) == {"alpha", "beta"}

    def test_result_merge_overlapping_datasets_drops_logs(self, query_files):
        first, _ = query_files
        combined = analyze(first).merge(analyze(first))
        # Stats sum; stale single-shard logs would contradict them, so
        # they are dropped rather than silently shadowed.
        assert combined.logs is None
        assert combined.study.datasets["alpha"].total == 2 * 3
        assert combined.render("text").startswith("Table 1")

    def test_merge_studies_requires_input(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_studies([])
