"""The parallel runtime: pools, adaptive chunking, transport, merging.

Invariant 10 under test (docs/ARCHITECTURE.md): the shape of the merge
tree — the drivers' stream-order fold or any arbitrary contiguous
grouping — never changes the result, byte for byte.  Plus the runtime
mechanics: persistent pools are created lazily, reused across runs of
one :class:`~repro.api.AnalysisSession`, and produce the same bytes as
fresh-pool and serial runs; the adaptive chunk schedule is
deterministic; ``workers="auto"`` resolves and
validates everywhere; transport counters ride the pass profile and its
snapshot codec stays backward compatible.
"""

from functools import lru_cache, reduce
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.parallel import (
    DEFAULT_STREAM_CHUNK_SIZE,
    TransportStats,
    WorkerPool,
    _execute,
    adaptive_chunk_sizes,
    build_query_logs_parallel,
    iter_scheduled_chunks,
    measure_chunk,
    resolve_workers,
    study_corpus_parallel,
)
from repro.analysis.passes import PassProfile
from repro.analysis.streaks import StreakAccumulator
from repro.analysis.study import study_corpus
from repro.api import AnalysisRequest, AnalysisSession
from repro.cli import main
from repro.logs import build_query_log, process_entries
from repro.reporting import render_pass_profile, render_report
from repro.workload import generate_corpus, generate_day_log

QUERIES = [
    "SELECT ?s WHERE { ?s ?p ?o }",
    "SELECT ?s WHERE { ?s ?p ?o . ?o ?q ?r }",
    "ASK { ?s ?p ?o }",
    "SELECT ?name WHERE { ?s ?p ?name FILTER(?name != 'x') }",
    "SELECT * WHERE { ?a ?b ?c } LIMIT 10",
]


@lru_cache(maxsize=1)
def corpus_entries():
    return generate_corpus(scale=4e-6, seed=0)


@lru_cache(maxsize=1)
def day_log():
    return generate_day_log(300, session_rate=0.35, seed=9)


def fold_merge(items):
    """The drivers' stream-order fold: each item merged into the first."""
    return reduce(lambda a, b: a.merge(b), items)


def grouped_merge(items, cuts):
    """Fold contiguous groups cut at *cuts* first, then fold the groups."""
    bounds = sorted({0, len(items), *[min(c, len(items)) for c in cuts]})
    return fold_merge(
        [fold_merge(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    )


# ---------------------------------------------------------------------------
# Invariant 10: merge-tree shape never changes a byte
# ---------------------------------------------------------------------------


class TestTreeMergeInvariance:
    def test_merge_shards_empty_gives_empty_shard(self):
        merged = build_query_logs_parallel({"q": []}, workers=2)["q"]
        assert merged.total == 0 and merged.valid == 0 and not merged.parsed

    def test_merge_studies_empty_explicit_dedup(self):
        merged = study_corpus_parallel({}, dedup=False, workers=2)
        assert merged.dedup is False and not merged.datasets

    @settings(max_examples=40, deadline=None)
    @given(
        picks=st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=60),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
        group_cuts=st.lists(st.integers(min_value=1, max_value=6), max_size=3),
    )
    def test_streak_tree_equals_fold_equals_serial(self, picks, cuts, group_cuts):
        texts = [QUERIES[i] for i in picks]
        bounds = sorted({0, len(texts), *[min(c, len(texts)) for c in cuts]})
        chunks = [
            texts[lo:hi] for lo, hi in zip(bounds, bounds[1:])
        ] or [texts]

        def accumulators():
            built = []
            for chunk in chunks:
                acc = StreakAccumulator(window=7)
                for text in chunk:
                    acc.push(text)
                built.append(acc)
            return built

        serial = StreakAccumulator(window=7)
        for text in texts:
            serial.push(text)
        fold = fold_merge(accumulators())
        tree = grouped_merge(accumulators(), group_cuts)
        assert fold == serial
        assert tree == serial
        assert tree.to_dict() == serial.to_dict()

    @settings(max_examples=15, deadline=None)
    @given(
        chunk_size=st.integers(min_value=1, max_value=40),
        group_cuts=st.lists(st.integers(min_value=1, max_value=30), max_size=4),
    )
    def test_study_merge_grouping_invariance(self, chunk_size, group_cuts):
        """Arbitrary contiguous grouping ≡ stream-order fold ≡ serial study."""
        name, entries = next(iter(corpus_entries().items()))
        log = build_query_log(name, entries)
        serial = study_corpus({name: log}, dedup=True)

        def partials():
            queries = list(log.unique_queries())
            return [
                measure_chunk(name, queries[lo : lo + chunk_size])
                for lo in range(0, len(queries), chunk_size)
            ]

        def seeded(*merged_partials):
            from repro.analysis.study import CorpusStudy, DatasetStats

            study = CorpusStudy(dedup=True)
            study.datasets[name] = DatasetStats(
                name=name, total=log.total, valid=log.valid, unique=log.unique
            )
            for partial in merged_partials:
                study.merge(partial)
            return study

        # The driver's fold: every partial straight into the seeded study.
        fold = seeded(*partials())
        # Arbitrary two-level tree: fold random contiguous groups first.
        parts = partials()
        grouped = seeded(grouped_merge(parts, group_cuts)) if parts else seeded()

        assert render_report(fold, "text") == render_report(serial, "text")
        assert render_report(grouped, "text") == render_report(serial, "text")
        assert fold == serial
        assert grouped == serial


# ---------------------------------------------------------------------------
# Adaptive chunk schedule
# ---------------------------------------------------------------------------


class TestAdaptiveChunking:
    def test_workers1_is_a_single_chunk(self):
        sizes = adaptive_chunk_sizes(5000, workers=1)
        assert next(sizes) == 5000
        assert next(sizes) == 5000  # schedule never runs dry

    def test_grows_geometrically_to_the_cap(self):
        total, workers = 100_000, 4
        sizes = list(islice(adaptive_chunk_sizes(total, workers), 12))
        cap = -(-total // (workers * 8))
        assert sizes[0] == 64
        assert all(b == min(a * 2, cap) for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == cap

    def test_tiny_input_stays_small(self):
        sizes = list(islice(adaptive_chunk_sizes(100, workers=4), 4))
        assert all(size == 64 for size in sizes)

    def test_unsized_stream_caps_at_stream_chunk(self):
        sizes = list(islice(adaptive_chunk_sizes(None, workers=4), 10))
        assert sizes[0] == 64
        assert sizes[-1] == DEFAULT_STREAM_CHUNK_SIZE

    def test_deterministic(self):
        first = list(islice(adaptive_chunk_sizes(12345, 3), 20))
        second = list(islice(adaptive_chunk_sizes(12345, 3), 20))
        assert first == second

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=3000),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_scheduled_chunks_cover_everything_in_order(self, n, workers):
        items = list(range(n))
        chunks = list(
            iter_scheduled_chunks(iter(items), adaptive_chunk_sizes(n, workers))
        )
        assert [x for chunk in chunks for x in chunk] == items
        assert all(chunks for chunks in chunks)  # no empty chunks


# ---------------------------------------------------------------------------
# Worker pools: lazy, persistent, reused by sessions
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_lazy_and_idempotent_close(self):
        pool = WorkerPool(2)
        assert pool.workers == 2
        assert not pool.started  # no processes until first submit
        pool.close()
        pool.close()
        assert not pool.started

    def test_auto_resolution(self):
        assert WorkerPool("auto").workers == resolve_workers(None)
        assert WorkerPool(None).workers == resolve_workers(None)

    def test_context_manager_runs_work(self):
        with WorkerPool(2) as pool:
            results = list(
                _execute(len, len, [[1], [2, 3], [4], [5, 6, 7]], pool.workers, pool=pool)
            )
            assert results == [1, 2, 1, 3]
            assert pool.started
        assert not pool.started

    def test_single_payload_collapses_without_processes(self):
        with WorkerPool(4) as pool:
            assert list(_execute(len, len, [[1, 2]], pool.workers, pool=pool)) == [2]
            assert not pool.started  # <=1 payload ran in-process


class TestSessionPoolReuse:
    def test_two_runs_one_pool_identical_bytes(self):
        request = AnalysisRequest(
            corpora={"day": day_log()}, metrics=("streaks",), workers=2
        )
        with AnalysisSession() as session:
            first = session.run(request)
            pool = session._pool
            assert pool is not None
            second = session.run(request)
            assert session._pool is pool  # reused, not recreated
        with AnalysisSession() as fresh_session:
            fresh = fresh_session.run(request)
        serial = AnalysisSession().run(
            AnalysisRequest(corpora={"day": day_log()}, metrics=("streaks",), workers=1)
        )
        assert first.render("text") == second.render("text")
        assert first.render("text") == fresh.render("text")
        assert first.render("text") == serial.render("text")

    def test_serial_sessions_never_spawn_a_pool(self):
        request = AnalysisRequest(corpora={"day": day_log()}, metrics=("streaks",))
        with AnalysisSession() as session:
            session.run(request)
            assert session._pool is None

    def test_worker_count_change_replaces_the_pool(self):
        with AnalysisSession() as session:
            session.run(
                AnalysisRequest(corpora={"q": QUERIES * 40}, workers=2)
            )
            pool = session._pool
            session.run(
                AnalysisRequest(corpora={"q": QUERIES * 40}, workers=3)
            )
            assert session._pool is not pool
            assert session._pool.workers == 3


# ---------------------------------------------------------------------------
# workers="auto" plumbing
# ---------------------------------------------------------------------------


class TestWorkersAuto:
    def test_resolve_workers_auto(self):
        assert resolve_workers("auto") == resolve_workers(None) >= 1

    def test_resolve_workers_rejects_other_strings(self):
        with pytest.raises(ValueError, match="auto"):
            resolve_workers("fast")

    def test_request_validate_accepts_auto(self):
        AnalysisRequest(corpora={"q": QUERIES}, workers="auto").validate()

    def test_request_validate_rejects_bad_strings_and_zero(self):
        with pytest.raises(ValueError, match="auto"):
            AnalysisRequest(corpora={"q": QUERIES}, workers="many").validate()
        with pytest.raises(ValueError, match=">= 1"):
            AnalysisRequest(corpora={"q": QUERIES}, workers=0).validate()

    def test_cli_accepts_auto(self, tmp_path, capsys):
        sample = tmp_path / "sample.rq"
        sample.write_text("\n".join(QUERIES) + "\n", encoding="utf-8")
        assert main(["analyze", str(sample)]) == 0
        serial = capsys.readouterr().out
        assert main(["analyze", "--workers", "auto", str(sample)]) == 0
        assert capsys.readouterr().out == serial

    def test_cli_still_rejects_nonpositive_and_junk(self, capsys):
        for bad in ("0", "-2", "turbo"):
            with pytest.raises(SystemExit) as excinfo:
                main(["analyze", "--workers", bad, "whatever.rq"])
            assert excinfo.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Transport counters: profile plumbing + snapshot codec
# ---------------------------------------------------------------------------


class TestTransportCounters:
    def test_sharded_profiled_run_records_transport(self):
        request = AnalysisRequest(
            corpora={"day": day_log()}, metrics=("streaks",),
            workers=2, profile=True,
        )
        with AnalysisSession() as session:
            result = session.run(request)
        profile = result.profile
        assert profile is not None
        assert profile.chunks_shipped > 0
        assert profile.shipped_bytes > 0
        assert profile.merge_seconds >= 0.0
        assert "shard transport:" in render_pass_profile(profile)

    def test_serial_profiled_run_ships_nothing(self):
        request = AnalysisRequest(
            corpora={"day": day_log()}, metrics=("streaks",),
            workers=1, profile=True,
        )
        with AnalysisSession() as session:
            result = session.run(request)
        profile = result.profile
        assert profile is not None
        assert profile.chunks_shipped == 0
        assert profile.shipped_bytes == 0
        assert "shard transport:" not in render_pass_profile(profile)

    def test_pooled_single_chunk_run_ships_nothing(self, monkeypatch):
        # A multi-worker session run whose input is one chunk runs the
        # in-process executor: no pool start, no transport, and no
        # pool-worker caches filling up in the parent process.
        from repro.analysis import parallel as par

        monkeypatch.setattr(par, "_POOL_PARSE_CACHES", {})
        monkeypatch.setattr(par, "_POOL_STRUCTURE_CACHES", {})
        with AnalysisSession() as session:
            for run in range(3):
                texts = [f"ASK {{ ?s <urn:p{run}x{i}> ?o }}" for i in range(40)]
                result = session.run(
                    AnalysisRequest(corpora={"d": texts}, workers=2, profile=True)
                )
                assert not session._pool.started
                assert result.profile.chunks_shipped == 0
                assert result.profile.shipped_bytes == 0
                assert result.study.datasets["d"].unique == 40
        assert par._POOL_PARSE_CACHES == {}
        assert par._POOL_STRUCTURE_CACHES == {}

    def test_transport_stats_fold_into_profile(self):
        profile = PassProfile()
        TransportStats(chunks_shipped=3, shipped_bytes=999, merge_seconds=0.25).add_to_profile(profile)
        TransportStats(chunks_shipped=1, shipped_bytes=1, merge_seconds=0.25).add_to_profile(profile)
        assert profile.chunks_shipped == 4
        assert profile.shipped_bytes == 1000
        assert profile.merge_seconds == 0.5

    def test_profile_merge_adds_transport(self):
        a = PassProfile(chunks_shipped=2, shipped_bytes=10, merge_seconds=0.125)
        b = PassProfile(chunks_shipped=5, shipped_bytes=20, merge_seconds=0.25)
        a.merge(b)
        assert (a.chunks_shipped, a.shipped_bytes, a.merge_seconds) == (7, 30, 0.375)

    def test_profile_snapshot_round_trip(self):
        profile = PassProfile(
            seconds={"shallow": 0.5}, queries=10, cache_hits=3, cache_misses=7,
            chunks_shipped=4, shipped_bytes=4096, merge_seconds=0.25,
        )
        rebuilt = PassProfile.from_dict(profile.to_dict())
        assert rebuilt == profile

    def test_profile_snapshot_backward_compatible(self):
        legacy = {
            "seconds": {"shallow": 0.5},
            "queries": 10,
            "cache_hits": 3,
            "cache_misses": 7,
        }
        profile = PassProfile.from_dict(legacy)
        assert profile.chunks_shipped == 0
        assert profile.shipped_bytes == 0
        assert profile.merge_seconds == 0.0

    def test_ingestion_pool_transport_is_counted(self):
        texts = [QUERIES[i % len(QUERIES)] for i in range(400)]
        transport = TransportStats()
        with WorkerPool(2) as pool:
            pooled = build_query_logs_parallel(
                {"q": texts}, pool=pool, transport=transport
            )["q"]
        serial_log = build_query_log("q", texts)
        assert pooled.summary_row() == serial_log.summary_row()
        assert transport.chunks_shipped > 0
        assert transport.shipped_bytes > 0


class TestPoolDriversByteIdentity:
    """Persistent-pool code paths ≡ serial, for ingestion and measure."""

    def test_pooled_full_analysis_matches_serial(self):
        corpora = dict(list(corpus_entries().items())[:3])
        serial = AnalysisSession().run(AnalysisRequest(corpora=corpora))
        with AnalysisSession() as session:
            pooled = session.run(
                AnalysisRequest(corpora=corpora, workers=2, chunk_size=11)
            )
            assert session._pool is not None
        assert pooled.render("text") == serial.render("text")

    def test_pooled_measure_phase_matches_serial(self):
        name, entries = next(iter(corpus_entries().items()))
        logs = {name: build_query_log(name, entries)}
        serial = study_corpus(logs, dedup=True)
        with WorkerPool(2) as pool:
            pooled = study_corpus(logs, dedup=True, pool=pool, chunk_size=7)
        assert render_report(pooled, "text") == render_report(serial, "text")
        assert pooled == serial

    def test_shard_merge_order_matches_stream(self):
        texts = QUERIES[::-1] + QUERIES
        with WorkerPool(2) as pool:
            merged = build_query_logs_parallel(
                {"q": texts}, pool=pool, chunk_size=1
            )["q"]
            assert pool.started
        expected = process_entries(texts).to_query_log("q")
        assert merged.summary_row() == expected.summary_row()
        assert [(p.text, p.count) for p in merged.parsed] == [
            (p.text, p.count) for p in expected.parsed
        ]
