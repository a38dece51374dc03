"""Merge semantics and sharded execution: serial ≡ parallel.

The contract under test: splitting any stream into chunks, processing
the chunks independently, and merging the partial accumulators in
stream order reproduces the single-pass result exactly — Table 1
counters, histograms, fragment counts, and the rendered report bytes.
"""

from collections import Counter
from functools import lru_cache, reduce
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.parallel import (
    build_query_logs_parallel,
    iter_scheduled_chunks,
    measure_chunk,
    study_corpus_parallel,
)
from repro.analysis.study import (
    CorpusStudy,
    DatasetStats,
    measure_query,
    study_corpus,
)
from repro.logs import LogShard, ParseCache, build_query_log, process_entries
from repro.reporting import render_report
from repro.sparql import serialize_query
from repro.workload import generate_corpus


@lru_cache(maxsize=1)
def corpus_entries():
    """A small bundled corpus: 13 datasets, a few hundred raw entries."""
    return generate_corpus(scale=4e-6, seed=0)


@lru_cache(maxsize=1)
def corpus_logs():
    return {
        name: build_query_log(name, entries)
        for name, entries in corpus_entries().items()
    }


@lru_cache(maxsize=1)
def serial_study():
    return study_corpus(corpus_logs(), dedup=True)


def split_at(items, cuts):
    """Split *items* into contiguous shards at sorted cut positions."""
    items = list(items)
    bounds = [0] + sorted(min(c, len(items)) for c in cuts) + [len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def fold_shards(shards):
    """The ingestion driver's stream-order fold over pipeline shards."""
    return reduce(LogShard.merge, shards, LogShard())


def assert_logs_equal(a, b):
    assert a.summary_row() == b.summary_row()
    assert [(p.text, p.count) for p in a.parsed] == [
        (p.text, p.count) for p in b.parsed
    ]


# ---------------------------------------------------------------------------
# Pipeline sharding (two-phase dedup)
# ---------------------------------------------------------------------------


class TestLogShardMerge:
    def test_merge_identity(self):
        shard = process_entries(["ASK { ?s ?p ?o }", "junk {"])
        merged = shard.merge(LogShard())
        assert merged.total == 2 and merged.valid == 1

    def test_two_phase_dedup_across_shards(self):
        # The duplicate pair straddles the shard boundary: only the
        # merged text→count maps see the full multiplicity.
        left = process_entries(["ASK { ?s ?p ?o }", "SELECT * WHERE { ?a ?b ?c }"])
        right = process_entries(["ASK { ?s ?p ?o }"])
        log = left.merge(right).to_query_log("t")
        assert log.total == 3 and log.valid == 3 and log.unique == 2
        assert [p.count for p in log.parsed] == [2, 1]

    def test_order_is_global_first_occurrence(self):
        shards = [
            process_entries(["ASK { ?b ?p ?o }"]),
            process_entries(["ASK { ?a ?p ?o }", "ASK { ?b ?p ?o }"]),
        ]
        log = fold_shards(shards).to_query_log("t")
        assert [p.text for p in log.parsed] == [
            "ASK { ?b ?p ?o }",
            "ASK { ?a ?p ?o }",
        ]

    @settings(max_examples=30, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=0, max_value=2000), max_size=6))
    def test_shard_merge_equals_single_pass(self, cuts):
        for name, entries in corpus_entries().items():
            shards = [process_entries(s) for s in split_at(entries, cuts)]
            assert_logs_equal(
                fold_shards(shards).to_query_log(name), corpus_logs()[name]
            )

    def test_parallel_build_matches_serial(self):
        for name, entries in corpus_entries().items():
            logs = build_query_logs_parallel({name: entries}, workers=2, chunk_size=7)
            assert_logs_equal(logs[name], corpus_logs()[name])

    def test_batched_corpus_build_matches_serial(self):
        # All datasets through one pool, including with a chunk size
        # that splits some datasets and leaves others whole.
        logs = build_query_logs_parallel(corpus_entries(), workers=2, chunk_size=11)
        assert set(logs) == set(corpus_logs())
        for name, log in logs.items():
            assert_logs_equal(log, corpus_logs()[name])

    def test_build_query_log_matches_sharded_driver(self):
        # build_query_log is the one-chunk in-process form of the ingest
        # driver; a pool-less multi-worker driver run (temporary pool,
        # adaptive chunks) must produce the same log.
        name, entries = max(corpus_entries().items(), key=lambda item: len(item[1]))
        assert len(entries) > 64  # more than one adaptive chunk
        logs = build_query_logs_parallel({name: entries}, workers=2)
        assert_logs_equal(logs[name], build_query_log(name, entries))

    def test_prewarmed_cache_keeps_occurrence_order(self):
        # A shared cache must not leak first-occurrence order between
        # streams: a text cached earlier still dedups per-stream.
        cache = ParseCache()
        process_entries(["ASK { ?z ?p ?o }"], cache=cache)
        shard = process_entries(["ASK { ?a ?p ?o }", "ASK { ?z ?p ?o }"], cache=cache)
        assert shard.order == ["ASK { ?a ?p ?o }", "ASK { ?z ?p ?o }"]
        assert cache.hits == 1 and cache.misses == 2


class TestParseCache:
    def test_rejects_mixed_prefix_environments(self):
        # Entries are keyed by text only, so reuse under different
        # prefixes must fail loudly instead of returning wrong ASTs.
        cache = ParseCache()
        cache.parse("ASK { ?s ?p ?o }", {"foo": "urn:a#"})
        with pytest.raises(ValueError):
            cache.parse("ASK { ?s ?p ?o }", {"foo": "urn:b#"})
        # The same environment keeps working, same or distinct object.
        assert cache.parse("ASK { ?s ?p ?o }", {"foo": "urn:a#"}) is not None

    def test_hit_miss_accounting(self):
        cache = ParseCache()
        assert cache.parse("ASK { ?s ?p ?o }") is not None
        assert cache.parse("ASK { ?s ?p ?o }") is not None
        assert cache.parse("BROKEN {") is None
        assert cache.parse("BROKEN {") is None  # failures are cached too
        assert cache.hits == 2 and cache.misses == 2
        assert len(cache) == 2 and "BROKEN {" in cache


# ---------------------------------------------------------------------------
# Study sharding
# ---------------------------------------------------------------------------


class TestStudyMerge:
    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=0, max_value=500), max_size=5))
    def test_shard_merge_reproduces_single_pass(self, cuts):
        logs = corpus_logs()
        merged = CorpusStudy(dedup=True)
        for name, log in logs.items():
            merged.datasets[name] = DatasetStats(
                name=name, total=log.total, valid=log.valid, unique=log.unique
            )
            for shard in split_at(log.unique_queries(), cuts):
                merged.merge(measure_chunk(name, shard))
        expected = serial_study()
        assert render_report(merged, "text") == render_report(expected, "text")
        for name in logs:
            a, b = merged.datasets[name], expected.datasets[name]
            assert a.triple_hist == b.triple_hist
            assert a.keyword_counts == b.keyword_counts
            assert (a.total, a.valid, a.unique, a.queries) == (
                b.total,
                b.valid,
                b.unique,
                b.queries,
            )
        assert merged.operator_sets == expected.operator_sets
        assert merged.shape_counts == expected.shape_counts
        assert merged.treewidth_counts == expected.treewidth_counts
        assert merged.girth_hist == expected.girth_hist
        assert (merged.aof_count, merged.cq_count, merged.cqf_count,
                merged.cqof_count) == (expected.aof_count, expected.cq_count,
                                       expected.cqf_count, expected.cqof_count)
        assert merged.non_ctract == expected.non_ctract

    def test_workers4_byte_identical_report(self):
        logs = corpus_logs()
        parallel = study_corpus(logs, dedup=True, workers=4)
        assert render_report(parallel, "text") == render_report(serial_study(), "text")

    def test_workers2_valid_corpus(self):
        logs = corpus_logs()
        serial = study_corpus(logs, dedup=False)
        parallel = study_corpus_parallel(logs, dedup=False, workers=2, chunk_size=5)
        assert render_report(parallel, "text") == render_report(serial, "text")

    def test_poolless_sharded_run_uses_temporary_pool(self, monkeypatch):
        # Without a pool the driver opens a temporary WorkerPool for the
        # call, ships query chunks, and still matches the in-process run.
        from repro.analysis import parallel as par

        opened = []

        class RecordingPool(par.WorkerPool):
            def __init__(self, workers):
                super().__init__(workers)
                opened.append(self)

        monkeypatch.setattr(par, "WorkerPool", RecordingPool)
        logs = corpus_logs()
        transport = par.TransportStats()
        result = study_corpus_parallel(
            logs, dedup=True, workers=2, chunk_size=7, transport=transport
        )
        assert len(opened) == 1 and not opened[0].started  # closed again
        assert transport.chunks_shipped > 1
        assert render_report(result, "text") == render_report(serial_study(), "text")

    def test_serial_fallback_is_executor_free(self, monkeypatch):
        # workers=1, and workers>1 on an input of one chunk, run the
        # in-process executor: no process pool may even be constructed.
        from repro.analysis import parallel as par

        def no_executor(*args, **kwargs):
            raise AssertionError("in-process run built a process pool")

        monkeypatch.setattr(par, "ProcessPoolExecutor", no_executor)
        name, entries = max(
            (item for item in corpus_entries().items() if len(item[1]) <= 64),
            key=lambda item: len(item[1]),
        )  # one adaptive chunk at any worker count
        expected = {name: corpus_logs()[name]}
        for workers in (1, 4):
            logs = build_query_logs_parallel({name: entries}, workers=workers)
            assert_logs_equal(logs[name], expected[name])
            result = study_corpus_parallel(logs, dedup=True, workers=workers)
            assert result == study_corpus(expected, dedup=True)
        logs = corpus_logs()
        result = study_corpus_parallel(logs, dedup=True, workers=1, chunk_size=3)
        assert render_report(result, "text") == render_report(serial_study(), "text")

    def test_merge_rejects_mixed_corpora(self):
        with pytest.raises(ValueError):
            CorpusStudy(dedup=True).merge(CorpusStudy(dedup=False))

    def test_dataset_merge_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            DatasetStats(name="a").merge(DatasetStats(name="b"))


class TestMeasureQuery:
    def test_pure_and_repeatable(self):
        log = build_query_log("t", ["SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y }"])
        (parsed,) = log.parsed
        before = serialize_query(parsed.query)
        one = measure_query(parsed, "t")
        two = measure_query(parsed, "t")
        assert serialize_query(parsed.query) == before
        assert one.query_count == two.query_count == 1
        assert one.keyword_counts == two.keyword_counts
        assert one.datasets["t"].queries == 1

    def test_fold_equals_study_corpus(self):
        name = "DBpedia14"
        log = corpus_logs()[name]
        folded = reduce(
            CorpusStudy.merge,
            (measure_query(p, name) for p in log.unique_queries()),
            CorpusStudy(),
        )
        folded.datasets[name].total = log.total
        folded.datasets[name].valid = log.valid
        folded.datasets[name].unique = log.unique
        single = study_corpus({name: log})
        assert render_report(folded, "text") == render_report(single, "text")

    def test_weight_controls_multiplicity(self):
        log = build_query_log("t", ["ASK { ?s ?p ?o }"] * 3)
        (parsed,) = log.parsed
        weighted = measure_query(parsed, "t", weight=parsed.count, dedup=False)
        assert weighted.query_count == 3


# ---------------------------------------------------------------------------
# Zero-count histogram regression (Counter.__add__ drops zero keys)
# ---------------------------------------------------------------------------


class TestZeroCountMerge:
    def test_counter_add_drops_zero_keys(self):
        # The latent bug class this merge scheme avoids.
        assert 3 not in Counter({3: 0}) + Counter({1: 2})

    def test_dataset_merge_preserves_zero_buckets(self):
        a = DatasetStats(name="d")
        a.triple_hist[3] = 0  # explicitly recorded empty bucket
        a.keyword_counts["Union"] = 0
        b = DatasetStats(name="d")
        b.triple_hist[1] = 2
        a.merge(b)
        assert a.triple_hist[1] == 2
        assert 3 in a.triple_hist and a.triple_hist[3] == 0
        assert "Union" in a.keyword_counts

    def test_zero_buckets_survive_from_either_side(self):
        a = DatasetStats(name="d")
        b = DatasetStats(name="d")
        b.triple_hist[7] = 0
        a.merge(b)
        assert 7 in a.triple_hist

    def test_study_merge_preserves_zero_buckets(self):
        a = CorpusStudy()
        a.girth_hist[4] = 0
        a.treewidth_counts["CQ"][2] = 0
        b = CorpusStudy()
        b.girth_hist[3] = 1
        a.merge(b)
        assert 4 in a.girth_hist and a.girth_hist[3] == 1
        assert 2 in a.treewidth_counts["CQ"]


# ---------------------------------------------------------------------------
# Chunking utilities
# ---------------------------------------------------------------------------


class TestChunking:
    def test_iter_chunks_partitions(self):
        chunks = iter_scheduled_chunks(list(range(7)), repeat(3))
        assert list(chunks) == [[0, 1, 2], [3, 4, 5], [6]]
        assert list(iter_scheduled_chunks([], repeat(3))) == []

    def test_iter_chunks_rejects_bad_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            study_corpus_parallel(corpus_logs(), chunk_size=0)

    def test_iter_chunks_validates_eagerly(self):
        # Misuse fails at the call site, before any stream is consumed.
        stream = iter(["ASK { ?s ?p ?o }"])
        with pytest.raises(ValueError, match="chunk_size"):
            build_query_logs_parallel({"d": stream}, chunk_size=-2)
        assert next(stream) == "ASK { ?s ?p ?o }"

    def test_iter_chunks_accepts_one_shot_iterators(self):
        chunks = iter_scheduled_chunks(iter(range(5)), repeat(2))
        assert list(chunks) == [[0, 1], [2, 3], [4]]

    def test_iter_chunks_is_lazy(self):
        consumed = []

        def source():
            for n in range(100):
                consumed.append(n)
                yield n

        chunks = iter_scheduled_chunks(source(), repeat(10))
        assert next(chunks) == list(range(10))
        # One chunk pulled, one chunk consumed: no read-ahead.
        assert len(consumed) == 10
