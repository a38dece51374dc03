"""Analyzer-pass framework: registry, selection, memoization, profiling,
coverage counters, and the CLI flags that expose them."""

import pytest

import repro.analysis.context as context_module
from repro.analysis.context import AnalysisContext, AnalysisOptions
from repro.analysis.passes import (
    PASS_NAMES,
    PassProfile,
    default_passes,
    resolve_passes,
    run_passes,
)
from repro.analysis.study import CorpusStudy, DatasetStats, measure_query, study_corpus
from repro.cli import main
from repro.logs import build_query_log
from repro.reporting import (
    caveats_section,
    render_pass_profile,
    render_report,
    render_text,
)

QUERIES = [
    "SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y FILTER(?y > 3) } LIMIT 7",
    "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }",
    "ASK { ?s (<urn:a>/<urn:b>)* ?o }",
    "ASK { ?a ?p ?b . ?b <urn:q> ?c }",
    "DESCRIBE <urn:x>",
]


def study_of(queries, name="test", dedup=True, **options):
    log = build_query_log(name, queries)
    return study_corpus({name: log}, dedup=dedup, options=AnalysisOptions(**options))


class TestRegistry:
    def test_default_order(self):
        assert PASS_NAMES == ("shallow", "paths", "operators", "fragments", "structure")
        assert tuple(p.name for p in default_passes()) == PASS_NAMES

    def test_selection_normalized_to_registry_order(self):
        selected = resolve_passes(("structure", "shallow"))
        assert tuple(p.name for p in selected) == ("shallow", "structure")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics: girth, nope"):
            resolve_passes(("shallow", "nope", "girth"))


class TestPassSelection:
    def test_shallow_only(self):
        study = study_of(QUERIES, metrics=("shallow",))
        assert study.query_count == len(QUERIES)
        assert study.select_ask_count == 4
        # Counters owned by unselected passes stay untouched.
        assert not study.operator_sets
        assert study.aof_count == 0
        assert not study.shape_totals
        assert study.property_path_total == 0

    def test_structure_runs_without_fragments_pass(self):
        # The structure pass re-derives its gates from the context, so
        # it works standalone — the fragment *counters* stay zero while
        # the shape tables fill in.
        study = study_of(QUERIES, metrics=("structure",))
        assert study.aof_count == 0
        assert study.shape_totals["CQ"] == 1
        assert study.predicate_variable_cqof == 1

    def test_subset_matches_full_run_on_owned_counters(self):
        subset = study_of(QUERIES, metrics=("shallow", "paths"))
        full = study_of(QUERIES)
        assert subset.keyword_counts == full.keyword_counts
        assert subset.path_types == full.path_types
        assert subset.non_ctract == full.non_ctract


class TestContextMemoization:
    def test_each_derivation_computed_once(self, monkeypatch):
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("query_facts", "extract_features", "classify_operators",
                     "classify_fragments", "canonical_graph", "canonical_hypergraph"):
            monkeypatch.setattr(
                context_module, name, counting(name, getattr(context_module, name))
            )
        log = build_query_log("d", ["ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }"])
        study = CorpusStudy()
        stats = DatasetStats(name="d")
        study.datasets["d"] = stats
        run_passes(study, stats, log.parsed[0], 1)
        assert calls["query_facts"] == 1  # one walk feeds every pass
        assert calls["extract_features"] == 1
        assert calls["classify_fragments"] == 1
        assert calls["canonical_graph"] == 1  # constants variant not needed

    def test_service_stripped_query_walks_its_raw_form_once_more(self, monkeypatch):
        walked = []
        original = context_module.query_facts

        def counting(query):
            walked.append(query)
            return original(query)

        monkeypatch.setattr(context_module, "query_facts", counting)
        texts = [
            "SELECT * WHERE { ?s <urn:p>/<urn:q> ?o "
            "SERVICE <urn:label> { ?o <urn:l>* ?l } }",
            "SELECT * WHERE { ?s <urn:p>/<urn:q> ?o }",
        ]
        log = build_query_log("wikidata", texts)
        study = CorpusStudy()
        stats = DatasetStats(name="wikidata")
        study.datasets["wikidata"] = stats
        for parsed in log.parsed:
            run_passes(study, stats, parsed, 1)
        # The stripped view and the raw form of the first query; one
        # walk for the second, which has no SERVICE to strip.
        assert len(walked) == 3
        assert walked[1] is log.parsed[0].query
        # Table 5 still counts the path inside the SERVICE clause.
        assert study.property_path_total == 3

    def test_context_properties_are_cached_objects(self):
        log = build_query_log("d", ["ASK { ?a <urn:p> ?b }"])
        ctx = AnalysisContext(log.parsed[0], "d")
        assert ctx.features is ctx.features
        assert ctx.fragments is ctx.fragments
        assert ctx.graph() is ctx.graph()
        assert ctx.hypergraph is ctx.hypergraph


class TestCoverageCounters:
    def test_shape_node_limit_skip_counted(self):
        study = study_of(
            ["ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }"], shape_node_limit=2
        )
        assert study.shape_limit_skipped == 1
        assert not study.shape_totals
        assert "shape-node limit" in render_text(caveats_section(study))
        assert "Coverage caveats" in render_report(study, "text")

    def test_no_caveats_block_when_nothing_dropped(self):
        study = study_of(QUERIES)
        assert study.shape_limit_skipped == 0
        assert study.non_ctract_truncated == 0
        assert caveats_section(study) == []
        assert "Coverage caveats" not in render_report(study, "text")

    def test_non_ctract_truncation_counted(self):
        queries = [
            f"ASK {{ ?s (<urn:a{i}>/<urn:b{i}>)* ?o }}" for i in range(120)
        ]
        study = study_of(queries)
        assert len(study.non_ctract) == 100
        assert study.non_ctract_truncated == 20
        assert "Coverage caveats" in render_report(study, "text")

    def test_truncation_merge_matches_serial(self):
        # kept + truncated must be invariant under sharding: the merge
        # charges overflow dropped *during* merging to the counter.
        queries = [
            f"ASK {{ ?s (<urn:a{i}>/<urn:b{i}>)* ?o }}" for i in range(120)
        ]
        log = build_query_log("d", queries)
        serial = study_corpus({"d": log})
        sharded = study_corpus({"d": log}, workers=2, chunk_size=7)
        assert sharded.non_ctract == serial.non_ctract
        assert sharded.non_ctract_truncated == serial.non_ctract_truncated == 20
        assert render_report(sharded, "text") == render_report(serial, "text")

    def test_shape_limit_skip_merges(self):
        queries = ["ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }"] * 3 + [
            "ASK { ?a <urn:x> ?b }"
        ]
        log = build_query_log("d", queries)
        options = AnalysisOptions(shape_node_limit=2)
        serial = study_corpus({"d": log}, options=options)
        sharded = study_corpus({"d": log}, workers=2, chunk_size=1, options=options)
        assert serial.shape_limit_skipped == 1
        assert sharded == serial


class TestProfiling:
    def test_serial_profile_collected(self):
        study = study_of(QUERIES, profile=True)
        profile = study.pass_profile
        assert profile is not None
        assert set(profile.seconds) == set(PASS_NAMES)
        assert profile.queries == len(QUERIES)
        assert all(elapsed >= 0.0 for elapsed in profile.seconds.values())
        # One graph + one hypergraph lookup missed (nothing repeats).
        assert profile.cache_misses >= 1

    def test_profile_excluded_from_equality(self):
        plain = study_of(QUERIES)
        profiled = study_of(QUERIES, profile=True)
        assert profiled == plain

    def test_parallel_profiles_merge(self):
        log = build_query_log("d", QUERIES * 3)
        options = AnalysisOptions(profile=True)
        study = study_corpus({"d": log}, workers=2, chunk_size=2, options=options)
        profile = study.pass_profile
        assert profile is not None
        assert profile.queries == len(QUERIES)  # unique stream
        assert set(profile.seconds) == set(PASS_NAMES)

    def test_profile_merge_adds(self):
        a = PassProfile(seconds={"shallow": 1.0}, queries=2, cache_hits=3, cache_misses=1)
        b = PassProfile(seconds={"shallow": 0.5, "paths": 2.0}, queries=1, cache_hits=1)
        a.merge(b)
        assert a.seconds == {"shallow": 1.5, "paths": 2.0}
        assert a.queries == 3
        assert a.cache_hits == 4
        assert a.cache_hit_rate == pytest.approx(4 / 5)

    def test_render_pass_profile(self):
        study = study_of(QUERIES, profile=True)
        text = render_pass_profile(study.pass_profile)
        assert "Analyzer passes" in text
        for name in PASS_NAMES:
            assert name in text
        assert "hit rate" in text


class TestMeasureQueryOptions:
    def test_measure_query_accepts_options(self):
        log = build_query_log("d", ["ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }"])
        study = measure_query(
            log.parsed[0], options=AnalysisOptions(shape_node_limit=2)
        )
        assert study.shape_limit_skipped == 1

    def test_measure_query_default_unchanged(self):
        log = build_query_log("d", ["ASK { ?a <urn:p> ?b }"])
        study = measure_query(log.parsed[0])
        assert study.shape_totals["CQ"] == 1


class TestCliFlags:
    def write_log(self, tmp_path, queries):
        path = tmp_path / "endpoint.rq"
        path.write_text("\n".join(queries) + "\n", encoding="utf-8")
        return path

    def test_metrics_flag(self, tmp_path, capsys):
        path = self.write_log(tmp_path, QUERIES)
        assert main(["analyze", "--metrics", "shallow,paths", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_unknown_metric_is_an_error(self, tmp_path, capsys):
        path = self.write_log(tmp_path, QUERIES)
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--metrics", "shallow,bogus", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown metrics" in err and "bogus" in err

    def test_empty_metrics_selection_is_an_error(self, tmp_path, capsys):
        path = self.write_log(tmp_path, QUERIES)
        for spelling in (",", " ", ", ,"):
            with pytest.raises(SystemExit) as excinfo:
                main(["analyze", "--metrics", spelling, str(path)])
            assert excinfo.value.code == 2
            assert "selects no passes" in capsys.readouterr().err

    def test_profile_passes_flag(self, tmp_path, capsys):
        path = self.write_log(tmp_path, QUERIES)
        assert main(["analyze", "--profile-passes", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Analyzer passes: wall time per pass" in out
        assert "hit rate" in out

    def test_shape_node_limit_flag(self, tmp_path, capsys):
        path = self.write_log(tmp_path, ["ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }"])
        assert main(["analyze", "--shape-node-limit", "2", str(path)]) == 0
        assert "Coverage caveats" in capsys.readouterr().out

    def test_default_output_has_no_profile_or_caveats(self, tmp_path, capsys):
        path = self.write_log(tmp_path, QUERIES)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Analyzer passes" not in out
        assert "Coverage caveats" not in out
