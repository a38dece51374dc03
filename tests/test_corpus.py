"""Unit tests for the calibrated synthetic corpus generator."""

import pytest

from repro.exceptions import SparqlSyntaxError
from repro.sparql import parse_query
from repro.workload import (
    DATASET_ORDER,
    DATASET_PROFILES,
    generate_corpus,
    generate_dataset,
    generate_day_log,
)


class TestProfiles:
    def test_thirteen_datasets(self):
        assert len(DATASET_PROFILES) == 13
        assert list(DATASET_ORDER)[0] == "DBpedia9/12"
        assert "WikiData17" in DATASET_PROFILES

    def test_table1_totals(self):
        # The paper's printed grand total (180,653,910) differs from
        # the sum of its own rows by a few hundred queries; we encode
        # the row values verbatim, so compare with tolerance.
        total = sum(p.total for p in DATASET_PROFILES.values())
        assert abs(total - 180_653_910) < 1000

    def test_valid_unique_monotonicity(self):
        for profile in DATASET_PROFILES.values():
            assert profile.unique <= profile.valid <= profile.total

    def test_query_type_mix_sums_to_one(self):
        for profile in DATASET_PROFILES.values():
            assert sum(profile.query_type_mix) == pytest.approx(1.0, abs=0.01)


class TestGenerateDataset:
    def test_counts_scale(self):
        profile = DATASET_PROFILES["DBpedia13"]
        entries = generate_dataset(profile, scale=1e-5, seed=0)
        expected_total = round(profile.total * 1e-5)
        assert abs(len(entries) - expected_total) <= 2

    def test_deterministic(self):
        profile = DATASET_PROFILES["SWDF13"]
        a = generate_dataset(profile, scale=1e-5, seed=3)
        b = generate_dataset(profile, scale=1e-5, seed=3)
        assert a == b

    def test_seed_changes_output(self):
        profile = DATASET_PROFILES["SWDF13"]
        a = generate_dataset(profile, scale=1e-5, seed=3)
        b = generate_dataset(profile, scale=1e-5, seed=4)
        assert a != b

    def test_contains_invalid_entries(self):
        profile = DATASET_PROFILES["LGD13"]  # valid/total ≈ 0.82
        entries = generate_dataset(profile, scale=2e-4, seed=1)
        invalid = 0
        for entry in entries:
            try:
                parse_query(entry)
            except SparqlSyntaxError:
                invalid += 1
        assert invalid > 0
        # Roughly the Table 1 invalid share (±60% tolerance at this scale).
        expected = len(entries) * (1 - profile.valid / profile.total)
        assert invalid == pytest.approx(expected, rel=0.6)

    def test_contains_duplicates(self):
        profile = DATASET_PROFILES["BioMed13"]  # heavy duplication
        entries = generate_dataset(profile, scale=2e-3, seed=1)
        assert len(set(entries)) < len(entries)

    def test_most_queries_parse(self):
        profile = DATASET_PROFILES["DBpedia15"]
        entries = generate_dataset(profile, scale=2e-5, seed=2)
        parsed = 0
        for entry in entries:
            try:
                parse_query(entry)
                parsed += 1
            except SparqlSyntaxError:
                pass
        assert parsed / len(entries) > 0.9

    def test_describe_heavy_dataset(self):
        profile = DATASET_PROFILES["BioMed13"]
        entries = generate_dataset(profile, scale=5e-3, seed=5)
        describes = sum(1 for e in entries if e.lstrip().startswith("DESCRIBE"))
        assert describes / len(entries) > 0.5

    def test_construct_heavy_dataset(self):
        profile = DATASET_PROFILES["LGD13"]
        entries = generate_dataset(profile, scale=3e-4, seed=5)
        constructs = sum(1 for e in entries if e.lstrip().startswith("CONSTRUCT"))
        assert constructs / len(entries) > 0.4


class TestGenerateCorpus:
    def test_all_datasets(self):
        corpus = generate_corpus(scale=1e-6, seed=0)
        assert set(corpus) == set(DATASET_ORDER)

    def test_subset(self):
        corpus = generate_corpus(scale=1e-6, seed=0, datasets=["SWDF13"])
        assert list(corpus) == ["SWDF13"]

    def test_unknown_dataset_rejected(self):
        from repro.exceptions import WorkloadError

        with pytest.raises(WorkloadError):
            generate_corpus(datasets=["Nope"])


class TestDayLog:
    def test_size(self):
        log = generate_day_log(n_queries=300, seed=1)
        assert len(log) == 300

    def test_contains_sessions(self):
        """Sessions produce runs of similar queries."""
        from oracles import streaks_reference

        log = generate_day_log(n_queries=400, session_rate=0.5, seed=2)
        streaks = streaks_reference(log, window=30)
        assert any(len(s) > 1 for s in streaks)

    def test_deterministic(self):
        assert generate_day_log(n_queries=100, seed=9) == generate_day_log(
            n_queries=100, seed=9
        )

    def test_custom_profile(self):
        profile = DATASET_PROFILES["SWDF13"]
        log = generate_day_log(n_queries=50, seed=0, profile=profile)
        assert len(log) == 50
