"""Streaks as a first-class metric of the sharded pipeline (ISSUE 5).

End-to-end contracts:

* ``repro analyze --metrics streaks`` (via the facade) detects exactly
  what the serial reference scan (``tests/oracles.py``) detects — serial,
  sharded, and streamed ingestion all byte-identical;
* streak state snapshots with the study (``SCHEMA_VERSION`` 3, lean
  chains), and a reloaded snapshot renders Table 6 byte-identically to
  the direct run;
* shard snapshots of one log merge by *stitching* the stream, equal to
  analyzing the whole log at once;
* schema-1 snapshots (pre-streaks) still load, with no streak state,
  and schema-2 chains (full member-position lists) convert on load.
"""

import json

import pytest

from oracles import streak_histogram_reference, streaks_reference
from repro.analysis.snapshot import (
    SCHEMA_VERSION,
    load_study,
    save_study,
    study_from_dict,
)
from repro.api import AnalysisRequest, AnalysisSession, analyze_corpora, merge_studies
from repro.exceptions import StudySnapshotError
from repro.reporting import render_text, table6_section
from repro.workload import generate_day_log


@pytest.fixture(scope="module")
def day_log():
    return generate_day_log(n_queries=220, session_rate=0.35, seed=2016)


@pytest.fixture(scope="module")
def streak_result(day_log):
    return analyze_corpora({"day": day_log}, metrics=("streaks",))


class TestFacadeEquivalence:
    def test_matches_serial_find_streaks(self, day_log, streak_result):
        accumulator = streak_result.study.datasets["day"].streaks
        assert accumulator is not None
        serial = streaks_reference(day_log, window=30)
        assert accumulator.length_histogram() == streak_histogram_reference(
            day_log, window=30
        )
        assert accumulator.streak_count == len(serial)
        assert accumulator.longest == max(len(s) for s in serial)

    @pytest.mark.parametrize("chunk_size", [7, 64])
    def test_sharded_is_byte_identical(self, day_log, streak_result, chunk_size):
        sharded = analyze_corpora(
            {"day": day_log},
            metrics=("streaks",),
            workers=2,
            chunk_size=chunk_size,
        )
        assert sharded.study == streak_result.study
        assert sharded.render("text") == streak_result.render("text")

    def test_streamed_ingestion_is_byte_identical(
        self, tmp_path, day_log, streak_result
    ):
        path = tmp_path / "day.rq"
        path.write_text(
            "\n".join(text.replace("\n", "\\n") for text in day_log) + "\n",
            encoding="utf-8",
        )
        for workers in (1, 2):
            request = AnalysisRequest(
                inputs=(path,), metrics=("streaks",), workers=workers,
                chunk_size=13,
            )
            with AnalysisSession() as session:
                result = session.run(request)
            assert (
                result.study.datasets["day"].streaks
                == streak_result.study.datasets["day"].streaks
            )

    def test_custom_window_and_threshold_thread_through(self, day_log):
        result = analyze_corpora(
            {"day": day_log},
            metrics=("streaks",),
            streak_window=5,
            streak_threshold=0.1,
            workers=2,
            chunk_size=17,
        )
        accumulator = result.study.datasets["day"].streaks
        assert accumulator.window == 5
        assert accumulator.threshold == 0.1
        assert accumulator.length_histogram() == streak_histogram_reference(
            day_log, window=5, threshold=0.1
        )

    def test_streaks_combine_with_per_query_passes(self, day_log):
        both = analyze_corpora({"day": day_log}, metrics=("shallow", "streaks"))
        assert both.study.query_count > 0  # shallow ran
        assert both.study.datasets["day"].streaks is not None
        alone = analyze_corpora({"day": day_log}, metrics=("streaks",))
        assert alone.study.query_count == 0  # no per-query pass ran
        assert (
            alone.study.datasets["day"].streaks
            == both.study.datasets["day"].streaks
        )

    def test_default_metrics_skip_streaks(self, day_log):
        result = analyze_corpora({"day": day_log[:40]})
        assert result.study.datasets["day"].streaks is None
        assert table6_section(result.study) == []

    def test_unknown_metric_still_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            AnalysisRequest(corpora={"d": []}, metrics=("streeks",)).validate()

    def test_mixed_streak_shards_rejected(self, day_log):
        """A streak-bearing shard merged with a streak-less shard of the
        same dataset must fail loudly: its partial accumulator does not
        cover the merged stream, and reporting it as Table 6 for the
        whole dataset would be silently wrong."""
        half = len(day_log) // 2
        with_streaks = analyze_corpora({"day": day_log[:half]}, metrics=("streaks",))
        without = analyze_corpora({"day": day_log[half:]})
        with pytest.raises(ValueError, match="streak state covers"):
            merge_studies([with_streaks.study, without.study])
        with pytest.raises(ValueError, match="streak state covers"):
            merge_studies([
                analyze_corpora({"day": day_log[:half]}).study,
                analyze_corpora({"day": day_log[half:]}, metrics=("streaks",)).study,
            ])

    def test_empty_corpus_still_attaches_empty_state(self):
        """Zero entries produce zero chunks, but a selected sequence
        metric must still come back as (empty) accumulator state — an
        empty log is a valid ordered stream with no streaks."""
        result = analyze_corpora({"day": []}, metrics=("streaks",))
        accumulator = result.study.datasets["day"].streaks
        assert accumulator is not None
        assert accumulator.streak_count == 0
        assert "Table 6" in render_text(table6_section(result.study))


class TestSnapshots:
    def test_round_trip_equality_and_bytes(self, streak_result):
        study = streak_result.study
        reloaded = study_from_dict(json.loads(json.dumps(study.to_dict())))
        assert reloaded == study
        assert reloaded.datasets["day"].streaks == study.datasets["day"].streaks

    def test_table6_renders_identically_from_reloaded_snapshot(
        self, tmp_path, streak_result
    ):
        path = tmp_path / "study.json"
        streak_result.save(path)
        reloaded = load_study(path)
        block = render_text(table6_section(reloaded))
        assert block == render_text(table6_section(streak_result.study))
        assert block in streak_result.render("text")

    def test_shard_snapshots_stitch_to_full_run(
        self, tmp_path, day_log, streak_result
    ):
        half = len(day_log) // 2
        first = analyze_corpora({"day": day_log[:half]}, metrics=("streaks",))
        second = analyze_corpora({"day": day_log[half:]}, metrics=("streaks",))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_study(first.study, a)
        save_study(second.study, b)
        merged = merge_studies([load_study(a), load_study(b)])
        full = streak_result.study.datasets["day"].streaks
        assert merged.datasets["day"].streaks == full
        assert table6_section(merged) == table6_section(streak_result.study)

    def test_schema_is_bumped(self, streak_result):
        assert SCHEMA_VERSION == 3
        assert streak_result.study.to_dict()["schema"] == 3

    def test_schema_one_snapshots_still_load(self, streak_result):
        data = json.loads(json.dumps(streak_result.study.to_dict()))
        data["schema"] = 1
        for stats in data["datasets"].values():
            del stats["streaks"]  # schema 1 predates the field
        loaded = study_from_dict(data)
        assert loaded.datasets["day"].streaks is None

    def test_malformed_streaks_rejected(self, streak_result):
        data = json.loads(json.dumps(streak_result.study.to_dict()))
        data["datasets"]["day"]["streaks"]["chains"] = [{"positions": []}]
        with pytest.raises(StudySnapshotError, match="streaks"):
            study_from_dict(data)

    def test_mistyped_streaks_rejected(self, streak_result):
        data = json.loads(json.dumps(streak_result.study.to_dict()))
        data["datasets"]["day"]["streaks"] = ["not", "an", "object"]
        with pytest.raises(StudySnapshotError, match="expected an object"):
            study_from_dict(data)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ({"closed": [[0, 1]]}, "positive int"),
            ({"closed": [[3, -1]]}, "negative"),
            ({"chains": [{"positions": [5, 3], "tail": "x"}]},
             "strictly increasing"),
            ({"chains": [{"positions": [10**9], "tail": "x"}]},
             "strictly increasing"),
            ({"head": []}, "min\\(window, length\\)"),
            ({"length": -1}, "must be >= 0"),
            ({"threshold": 100.0}, "within \\[0, 1\\]"),
            ({"threshold": float("nan")}, "within \\[0, 1\\]"),
        ],
    )
    def test_cross_field_invariants_rejected(self, streak_result, corrupt, message):
        """Type-correct but internally inconsistent streak state must
        fail at load as StudySnapshotError, not as wrong Table 6
        numbers (or a bucket_label ValueError) after a later merge."""
        data = json.loads(json.dumps(streak_result.study.to_dict()))
        data["datasets"]["day"]["streaks"].update(corrupt)
        with pytest.raises(StudySnapshotError, match=message):
            study_from_dict(data)


class TestReporters:
    def test_text_report_contains_table6_block(self, streak_result):
        text = streak_result.render("text")
        assert "Table 6: Length of streaks in single-day log files" in text
        assert "longest streak:" in text

    def test_markdown_report_contains_table6(self, streak_result):
        markdown = streak_result.render("markdown")
        assert "## Table 6: Length of streaks in single-day log files" in markdown
        assert "- longest streak:" in markdown

    def test_csv_report_contains_table6_rows(self, streak_result):
        rows = [
            line.split(",")
            for line in streak_result.render("csv").splitlines()
            if line.startswith("table6,")
        ]
        assert len(rows) == 13  # 11 buckets + total + longest
        assert all(row[2] == "day" for row in rows)

    def test_jsonl_report_digests_streaks(self, streak_result):
        record = json.loads(streak_result.render("jsonl").splitlines()[0])
        assert record["streaks"]["count"] > 0
        assert record["streaks"]["longest"] > 0
        assert "1-10" in record["streaks"]["histogram"]

    def test_jsonl_without_streaks_has_no_key(self, day_log):
        result = analyze_corpora({"day": day_log[:20]})
        record = json.loads(result.render("jsonl").splitlines()[0])
        assert "streaks" not in record

    def test_json_report_round_trips_streaks(self, streak_result):
        reloaded = study_from_dict(json.loads(streak_result.render("json")))
        assert reloaded == streak_result.study
