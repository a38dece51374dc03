"""Round-trip tests for the versioned study snapshots.

The contract under test (ISSUE 4 acceptance criteria):

* ``CorpusStudy.from_dict(study.to_dict())`` equals the original — and
  renders byte-identical reports — across dedup=True/False, sharded
  runs, profiled runs, and a JSON round trip through text;
* merging loaded snapshots is byte-identical (rendered report) to
  merging the same studies in memory;
* zero counts and counter key order survive (both change table bytes);
* malformed/mis-versioned input raises ``StudySnapshotError`` naming
  the problem — never a silent partial load.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.snapshot import (
    SCHEMA_VERSION,
    load_study,
    save_study,
    study_from_dict,
    study_to_dict,
)
from repro.analysis.study import CorpusStudy, DatasetStats, study_corpus
from repro.api import merge_studies
from repro.exceptions import StudySnapshotError
from repro.logs import build_query_log
from repro.reporting import render_report

QUERY_POOL = [
    "SELECT ?x WHERE { ?x <urn:p> ?y }",
    "SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y . ?y <urn:q> ?z }",
    "ASK { ?a <urn:q> ?b . ?b <urn:r> ?a }",
    "ASK { ?s <urn:p>+ ?o }",
    "SELECT * WHERE { ?s ?p ?o . FILTER(?o > 3) }",
    "SELECT ?s WHERE { ?s <urn:p> ?o . OPTIONAL { ?s <urn:q> ?t } }",
    "SELECT ?s WHERE { { ?s <urn:a> ?o } UNION { ?s <urn:b> ?o } }",
    "CONSTRUCT { ?s <urn:p> ?o } WHERE { ?s <urn:p> ?o }",
    "ASK { ?x1 ?x2 ?x3 . ?x3 <urn:a> ?x4 . ?x4 ?x2 ?x5 }",
    "not a query at all {",
]


def build_study(texts_by_dataset, dedup=True, **kwargs):
    logs = {
        name: build_query_log(name, texts)
        for name, texts in texts_by_dataset.items()
    }
    return study_corpus(logs, dedup=dedup, **kwargs)


@pytest.fixture(scope="module")
def sample_study():
    return build_study(
        {"alpha": QUERY_POOL, "beta": QUERY_POOL[:4] + QUERY_POOL[:2]}
    )


class TestRoundTrip:
    @pytest.mark.parametrize("dedup", [True, False])
    def test_equality_and_bytes_through_json_text(self, dedup):
        study = build_study(
            {"alpha": QUERY_POOL, "beta": QUERY_POOL[:5]}, dedup=dedup
        )
        reloaded = CorpusStudy.from_dict(
            json.loads(json.dumps(study.to_dict()))
        )
        assert reloaded == study
        for fmt in ("text", "json", "jsonl", "csv", "markdown"):
            assert render_report(reloaded, fmt) == render_report(study, fmt)

    def test_sharded_study_round_trips(self):
        study = build_study(
            {"alpha": QUERY_POOL * 3}, workers=2, chunk_size=2
        )
        assert CorpusStudy.from_dict(study.to_dict()) == study

    def test_profiled_study_round_trips_profile(self):
        from repro.analysis.context import AnalysisOptions

        study = build_study(
            {"alpha": QUERY_POOL}, options=AnalysisOptions(profile=True)
        )
        assert study.pass_profile is not None
        reloaded = CorpusStudy.from_dict(study.to_dict())
        assert reloaded.pass_profile is not None
        assert reloaded.pass_profile.queries == study.pass_profile.queries
        assert reloaded.pass_profile.seconds == study.pass_profile.seconds

    def test_profile_store_hits_from_2x_loads_and_is_dropped(self):
        # 2.x profiles carry the retired persistent-store counter.
        from repro.analysis.context import AnalysisOptions

        data = build_study(
            {"alpha": QUERY_POOL}, options=AnalysisOptions(profile=True)
        ).to_dict()
        data["pass_profile"]["store_hits"] = 7
        reloaded = CorpusStudy.from_dict(data)
        assert reloaded.pass_profile is not None
        assert "store_hits" not in reloaded.to_dict()["pass_profile"]

    def test_zero_counts_survive(self):
        study = CorpusStudy()
        study.girth_hist[3] = 0  # explicitly-recorded zero bucket
        study.keyword_counts["Select"] = 0
        reloaded = CorpusStudy.from_dict(study.to_dict())
        assert 3 in reloaded.girth_hist
        assert "Select" in reloaded.keyword_counts

    def test_counter_key_order_survives(self):
        study = CorpusStudy()
        for keyword in ("Union", "Ask", "Select", "Filter"):
            study.keyword_counts[keyword] = 1  # all tied: order breaks ties
        reloaded = CorpusStudy.from_dict(study.to_dict())
        assert list(reloaded.keyword_counts) == list(study.keyword_counts)
        assert (
            reloaded.keyword_counts.most_common()
            == study.keyword_counts.most_common()
        )

    def test_operator_set_keys_round_trip_as_frozensets(self, sample_study):
        reloaded = CorpusStudy.from_dict(sample_study.to_dict())
        assert reloaded.operator_sets == sample_study.operator_sets
        for key in reloaded.operator_sets:
            assert isinstance(key, frozenset)

    def test_dataset_stats_round_trip(self, sample_study):
        stats = sample_study.datasets["alpha"]
        reloaded = DatasetStats.from_dict(stats.to_dict())
        assert reloaded == stats
        # int histogram keys keep their type through JSON pair lists
        reloaded = DatasetStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert reloaded.triple_hist == stats.triple_hist

    def test_save_load_file_round_trip(self, sample_study, tmp_path):
        path = tmp_path / "study.json"
        save_study(sample_study, path)
        assert load_study(path) == sample_study


class TestMergeOfLoadedSnapshots:
    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("sharded", [False, True])
    def test_merge_loaded_equals_merge_in_memory(self, tmp_path, dedup, sharded):
        kwargs = {"workers": 2, "chunk_size": 2} if sharded else {}
        first = build_study({"alpha": QUERY_POOL}, dedup=dedup, **kwargs)
        second = build_study(
            {"alpha": QUERY_POOL[:6], "beta": QUERY_POOL}, dedup=dedup, **kwargs
        )
        in_memory = merge_studies(
            [
                build_study({"alpha": QUERY_POOL}, dedup=dedup, **kwargs),
                build_study(
                    {"alpha": QUERY_POOL[:6], "beta": QUERY_POOL},
                    dedup=dedup,
                    **kwargs,
                ),
            ]
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_study(first, a)
        save_study(second, b)
        from_disk = merge_studies([load_study(a), load_study(b)])
        assert from_disk == in_memory
        assert render_report(from_disk, "text") == render_report(in_memory, "text")

    def test_merge_preserves_pipeline_counters(self, tmp_path):
        study = build_study({"alpha": QUERY_POOL})
        path = tmp_path / "a.json"
        save_study(study, path)
        merged = merge_studies([load_study(path), load_study(path)])
        # Table 1 counters double like every other accumulator.
        assert merged.datasets["alpha"].total == 2 * study.datasets["alpha"].total


class TestMalformedInput:
    def test_rejects_non_dict(self):
        with pytest.raises(StudySnapshotError, match="JSON object"):
            study_from_dict([1, 2, 3])

    def test_rejects_future_schema(self, sample_study):
        data = study_to_dict(sample_study)
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(StudySnapshotError, match="schema version"):
            study_from_dict(data)

    def test_rejects_wrong_kind(self, sample_study):
        data = study_to_dict(sample_study)
        data["kind"] = "repro.other"
        with pytest.raises(StudySnapshotError, match="kind"):
            study_from_dict(data)

    @pytest.mark.parametrize(
        "field", ["dedup", "datasets", "keyword_counts", "operator_sets", "non_ctract"]
    )
    def test_rejects_missing_field(self, sample_study, field):
        data = study_to_dict(sample_study)
        del data[field]
        with pytest.raises(StudySnapshotError):
            study_from_dict(data)

    def test_rejects_malformed_counter_pairs(self, sample_study):
        data = study_to_dict(sample_study)
        data["keyword_counts"] = [["Select"]]  # pair missing its count
        with pytest.raises(StudySnapshotError, match="keyword_counts"):
            study_from_dict(data)

    def test_rejects_non_int_count(self, sample_study):
        data = study_to_dict(sample_study)
        data["girth_hist"] = [[3, "many"]]
        with pytest.raises(StudySnapshotError, match="girth_hist"):
            study_from_dict(data)

    @pytest.mark.parametrize("attr", ["shape_counts", "treewidth_counts"])
    def test_rejects_missing_fragment_keys(self, sample_study, attr):
        # The renderers index CQ/CQF/CQOF unconditionally: a snapshot
        # without them must fail at load, not as a KeyError at render.
        data = study_to_dict(sample_study)
        data[attr] = {}
        with pytest.raises(StudySnapshotError, match="missing fragment"):
            study_from_dict(data)

    def test_rejects_dataset_name_mismatch(self, sample_study):
        data = study_to_dict(sample_study)
        data["datasets"]["alpha"]["name"] = "omega"
        with pytest.raises(StudySnapshotError, match="disagrees"):
            study_from_dict(data)

    def test_load_study_corrupt_json(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(StudySnapshotError, match="not valid JSON"):
            load_study(path)

    def test_load_study_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_study(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# Property-based: random corpora drawn from the pool round-trip exactly.
# ---------------------------------------------------------------------------


corpora_strategy = st.dictionaries(
    keys=st.sampled_from(["alpha", "beta", "gamma"]),
    values=st.lists(st.sampled_from(QUERY_POOL), min_size=0, max_size=12),
    min_size=1,
    max_size=3,
)


@settings(max_examples=25, deadline=None)
@given(corpora=corpora_strategy, dedup=st.booleans())
def test_round_trip_property(corpora, dedup):
    study = build_study(corpora, dedup=dedup)
    reloaded = CorpusStudy.from_dict(json.loads(json.dumps(study.to_dict())))
    assert reloaded == study
    assert render_report(reloaded, "text") == render_report(study, "text")


@settings(max_examples=15, deadline=None)
@given(
    first=corpora_strategy,
    second=corpora_strategy,
    dedup=st.booleans(),
)
def test_merge_of_snapshots_property(tmp_path_factory, first, second, dedup):
    tmp_path = tmp_path_factory.mktemp("snapshots")
    a_study = build_study(first, dedup=dedup)
    b_study = build_study(second, dedup=dedup)
    in_memory = merge_studies(
        [build_study(first, dedup=dedup), build_study(second, dedup=dedup)]
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_study(a_study, a)
    save_study(b_study, b)
    from_disk = merge_studies([load_study(a), load_study(b)])
    assert from_disk == in_memory
    assert render_report(from_disk, "text") == render_report(in_memory, "text")


# ---------------------------------------------------------------------------
# Gzip snapshots: a .gz suffix compresses on write; reads go by the
# gzip magic bytes, not the file name.
# ---------------------------------------------------------------------------


class TestGzipSnapshots:
    def test_round_trip(self, sample_study, tmp_path):
        path = tmp_path / "study.json.gz"
        save_study(sample_study, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        reloaded = load_study(path)
        assert reloaded == sample_study
        assert render_report(reloaded, "text") == render_report(
            sample_study, "text"
        )

    def test_gzip_smaller_than_plain(self, sample_study, tmp_path):
        plain = tmp_path / "study.json"
        packed = tmp_path / "study.json.gz"
        save_study(sample_study, plain)
        save_study(sample_study, packed)
        assert packed.stat().st_size < plain.stat().st_size

    def test_gzip_write_is_deterministic(self, sample_study, tmp_path):
        # mtime is pinned to 0, so identical studies produce identical
        # bytes — snapshot files stay content-addressable.
        first = tmp_path / "a.json.gz"
        second = tmp_path / "b.json.gz"
        save_study(sample_study, first)
        save_study(sample_study, second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_detects_gzip_regardless_of_suffix(self, sample_study, tmp_path):
        import gzip as gzip_module

        packed = tmp_path / "study.json.gz"
        save_study(sample_study, packed)
        renamed = tmp_path / "study.json"
        renamed.write_bytes(packed.read_bytes())
        assert load_study(renamed) == sample_study
        # And the reverse: plain JSON under a .gz name still loads.
        plain = tmp_path / "plain.json"
        plain.write_text(
            gzip_module.decompress(packed.read_bytes()).decode("utf-8")
        )
        assert load_study(plain) == sample_study

    def test_truncated_gzip_is_snapshot_error(self, sample_study, tmp_path):
        path = tmp_path / "study.json.gz"
        save_study(sample_study, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(StudySnapshotError, match="gzip"):
            load_study(path)

    def test_cli_save_study_gz_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "q.rq"
        source.write_text("\n".join(QUERY_POOL[:5]) + "\n")
        packed = tmp_path / "study.json.gz"
        assert main(["analyze", str(source), "--save-study", str(packed)]) == 0
        direct = capsys.readouterr().out
        assert packed.read_bytes()[:2] == b"\x1f\x8b"
        assert main(["report", str(packed)]) == 0
        assert capsys.readouterr().out == direct
