"""Golden-report tests: rendered study output is pinned byte-for-byte.

Small fixture logs live in ``tests/goldens/`` next to the expected
text report (:func:`repro.reporting.render_report`) output.  Any change to
parsing, measurement, merge order, or table formatting shows up as a
golden diff in review instead of slipping through silently.

To regenerate after an *intentional* output change::

    PYTHONPATH=src python -m pytest tests/test_golden_reports.py --update-goldens

and commit the diff.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.parallel import build_query_logs_parallel
from repro.analysis.study import CorpusStudy, study_corpus
from repro.logs import build_query_log, dataset_name, iter_entries, read_entries
from repro.reporting import (
    render_dataset_highlights,
    render_report,
    render_text,
    table1_section,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
FIXTURE_LOGS = [GOLDEN_DIR / "endpoint_a.log", GOLDEN_DIR / "endpoint_b.rq"]


def check_golden(name: str, actual: str, update: bool) -> None:
    path = GOLDEN_DIR / name
    if update:
        path.write_text(actual, encoding="utf-8")
        return
    if not path.exists():
        pytest.fail(
            f"golden file {path} is missing; run pytest --update-goldens "
            "and commit the result"
        )
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, (
        f"{name} drifted from its golden copy; if the change is intentional, "
        "regenerate with pytest --update-goldens and review the diff"
    )


@pytest.fixture(scope="module")
def fixture_logs():
    return {
        dataset_name(path): build_query_log(dataset_name(path), read_entries(path))
        for path in FIXTURE_LOGS
    }


class TestGoldenReports:
    def test_full_study_report(self, fixture_logs, update_goldens):
        study = study_corpus(fixture_logs)
        check_golden(
            "study_report.txt", render_report(study, "text"), update_goldens
        )

    def test_valid_corpus_report(self, fixture_logs, update_goldens):
        study = study_corpus(fixture_logs, dedup=False)
        check_golden(
            "study_report_valid.txt",
            render_report(study, "text"),
            update_goldens,
        )

    def test_dataset_highlights_table(self, fixture_logs, update_goldens):
        study = study_corpus(fixture_logs)
        check_golden(
            "dataset_highlights.txt",
            render_dataset_highlights(study),
            update_goldens,
        )

    def test_table1(self, fixture_logs, update_goldens):
        study = study_corpus(fixture_logs)
        check_golden("table1.txt", render_text(table1_section(study)), update_goldens)

    def test_study_snapshot_json(self, fixture_logs, update_goldens):
        """The serialized snapshot layout is pinned byte-for-byte: any
        schema drift (field rename, ordering change, encoding change)
        surfaces as a golden diff — which is the moment to bump
        SCHEMA_VERSION, not to let old snapshots rot silently."""
        study = study_corpus(fixture_logs)
        payload = json.dumps(study.to_dict(), indent=2) + "\n"
        check_golden("study_snapshot.json", payload, update_goldens)

    def test_golden_snapshot_reloads_and_rerenders(self, fixture_logs, update_goldens):
        """A snapshot from disk must reproduce the golden text report
        with no QueryLog objects around (Table 1 travels on the stats)."""
        if update_goldens:
            pytest.skip("goldens are regenerated from the direct path")
        data = json.loads(
            (GOLDEN_DIR / "study_snapshot.json").read_text(encoding="utf-8")
        )
        study = CorpusStudy.from_dict(data)
        assert study == study_corpus(fixture_logs)
        expected = (GOLDEN_DIR / "study_report.txt").read_text(encoding="utf-8")
        assert render_report(study, "text") == expected

    def test_streamed_ingestion_reproduces_golden(self, update_goldens):
        """The streamed path must hit the same golden bytes as the
        materialized one — report drift *and* streaming drift both
        fail here."""
        if update_goldens:
            pytest.skip("goldens are regenerated from the materialized path")
        logs = build_query_logs_parallel(
            {dataset_name(path): iter_entries(path) for path in FIXTURE_LOGS},
            workers=2,
            chunk_size=3,
        )
        study = study_corpus(logs, workers=2, chunk_size=3)
        expected = (GOLDEN_DIR / "study_report.txt").read_text(encoding="utf-8")
        assert render_report(study, "text") == expected
