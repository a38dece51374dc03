"""Streaming ≡ materialized ≡ serial: the PR 2 ingestion invariant.

The contract under test: feeding the pipeline a one-shot lazy iterator,
chunked with bounded in-flight chunks (any chunk size, any worker
count), produces a ``QueryLog`` and ``CorpusStudy`` *byte-identical* —
down to the rendered report — to materializing the whole stream first,
and to the plain serial pass.  Covers empty streams, all-duplicate
streams, chunk sizes of 1 and beyond the stream length, and gzip input
through the real CLI.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loggen import write_synthetic_log
from repro.analysis.parallel import (
    _execute,
    build_query_logs_parallel,
    study_corpus_parallel,
)
from repro.analysis.study import study_corpus
from repro.cli import main
from repro.logs import build_query_log, iter_entries
from repro.reporting import render_report

#: Pool of raw entries the random logs draw from: valid queries of
#: assorted features, plus invalid text (Valid < Total, like real logs).
ENTRY_POOL = [
    "ASK { ?s ?p ?o }",
    "SELECT * WHERE { ?a ?b ?c }",
    "SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y FILTER(?y > 3) }",
    "SELECT ?x WHERE { ?x <urn:p>/<urn:q> ?y }",
    "SELECT ?x WHERE { { ?x <urn:p> ?y } UNION { ?x <urn:q> ?y } "
    "OPTIONAL { ?x <urn:r> ?z } }",
    "SELECT ?x WHERE { ?x <urn:p> ?y . ?y <urn:p> ?x } LIMIT 5",
    "BROKEN {",
    "",
]


def assert_logs_identical(a, b):
    assert a.summary_row() == b.summary_row()
    assert [(p.text, p.count) for p in a.parsed] == [
        (p.text, p.count) for p in b.parsed
    ]


def one_shot(entries):
    """A genuinely one-shot iterator (no __len__, no second pass)."""
    return iter(list(entries))


def build_three_ways(entries, chunk_size, workers):
    """(serial, materialized-parallel, streamed) logs for one stream."""
    serial = build_query_log("d", entries)
    materialized = build_query_logs_parallel(
        {"d": list(entries)}, workers=workers, chunk_size=chunk_size
    )["d"]
    streamed = build_query_logs_parallel(
        {"d": one_shot(entries)}, workers=workers, chunk_size=chunk_size
    )["d"]
    return serial, materialized, streamed


class TestStreamedEqualsMaterializedEqualsSerial:
    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(ENTRY_POOL) - 1), max_size=40
        ),
        chunk_size=st.integers(min_value=1, max_value=50),
    )
    def test_in_process_streaming(self, picks, chunk_size):
        # workers=1: the lazy chunked path, fully in-process, covering
        # chunk sizes from 1 to beyond the stream length.
        entries = [ENTRY_POOL[i] for i in picks]
        serial, materialized, streamed = build_three_ways(entries, chunk_size, 1)
        assert_logs_identical(streamed, serial)
        assert_logs_identical(materialized, serial)
        study_serial = study_corpus({"d": serial})
        study_streamed = study_corpus_parallel(
            {"d": streamed}, workers=1, chunk_size=chunk_size
        )
        assert render_report(study_streamed, "text") == render_report(study_serial, "text")

    @settings(max_examples=10, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(ENTRY_POOL) - 1),
            min_size=2,
            max_size=30,
        ),
        chunk_size=st.integers(min_value=1, max_value=8),
        workers=st.sampled_from([2, 3]),
    )
    def test_multiprocess_streaming(self, picks, chunk_size, workers):
        # Random worker counts > 1: results cross process boundaries,
        # merge order must still be stream order.
        entries = [ENTRY_POOL[i] for i in picks]
        serial, materialized, streamed = build_three_ways(entries, chunk_size, workers)
        assert_logs_identical(streamed, serial)
        assert_logs_identical(materialized, serial)

    def test_empty_stream(self):
        serial, materialized, streamed = build_three_ways([], 4, 2)
        assert streamed.summary_row() == ("d", 0, 0, 0)
        assert_logs_identical(streamed, serial)
        assert_logs_identical(materialized, serial)
        study = study_corpus_parallel({"d": streamed}, workers=2, chunk_size=4)
        assert render_report(study, "text") == render_report(
            study_corpus({"d": serial}), "text"
        )

    def test_all_duplicates_stream(self):
        entries = ["ASK { ?s ?p ?o }"] * 37
        for workers, chunk_size in ((1, 1), (1, 100), (2, 5)):
            serial, materialized, streamed = build_three_ways(
                entries, chunk_size, workers
            )
            assert streamed.summary_row() == ("d", 37, 37, 1)
            assert streamed.parsed[0].count == 37
            assert_logs_identical(streamed, serial)
            assert_logs_identical(materialized, serial)

    def test_chunk_size_beyond_stream_length(self):
        entries = [ENTRY_POOL[0], ENTRY_POOL[1]]
        serial, materialized, streamed = build_three_ways(entries, 10_000, 2)
        assert_logs_identical(streamed, serial)
        assert_logs_identical(materialized, serial)

    def test_multi_dataset_stream_order(self):
        # Several datasets through one streamed pool; per-dataset merge
        # order must stay each dataset's own stream order.
        corpora = {
            "a": [ENTRY_POOL[1], ENTRY_POOL[0], ENTRY_POOL[1]],
            "b": [ENTRY_POOL[0]] * 5 + [ENTRY_POOL[3]],
            "c": [],
        }
        serial_logs = {name: build_query_log(name, e) for name, e in corpora.items()}
        streamed_logs = build_query_logs_parallel(
            {name: one_shot(e) for name, e in corpora.items()},
            workers=2,
            chunk_size=2,
        )
        assert list(streamed_logs) == list(serial_logs)
        for name in corpora:
            assert_logs_identical(streamed_logs[name], serial_logs[name])
        serial_study = study_corpus(serial_logs)
        streamed_study = study_corpus_parallel(streamed_logs, workers=2, chunk_size=2)
        assert render_report(streamed_study, "text") == render_report(serial_study, "text")


class TestImapBounded:
    """The bounded in-order executor both drivers run (``_execute``)."""

    def test_preserves_input_order(self):
        results = list(_execute(_wrong_executor, _square, range(50), 3, max_inflight=4))
        assert results == [n * n for n in range(50)]

    def test_serial_path_is_lazy(self):
        consumed = []

        def source():
            for n in range(100):
                consumed.append(n)
                yield n

        stream = _execute(_square, _wrong_executor, source(), 1)
        assert next(stream) == 0
        # The serial path pulls one payload per result: no read-ahead.
        assert len(consumed) == 1

    def test_bounded_readahead_with_workers(self):
        consumed = []

        def source():
            for n in range(64):
                consumed.append(n)
                yield n

        stream = _execute(_wrong_executor, _square, source(), 2, max_inflight=4)
        assert next(stream) == 0
        high_water = len(consumed)
        # Backpressure: far less than the whole stream is in flight.
        assert high_water <= 8
        assert list(stream) == [n * n for n in range(1, 64)]

    def test_single_payload_skips_pool(self):
        assert list(_execute(_square, _wrong_executor, [7], 4)) == [49]

    def test_propagates_worker_exception(self):
        with pytest.raises(ZeroDivisionError):
            list(_execute(_wrong_executor, _reciprocal, [1, 0], 2))


def _square(n):
    return n * n


def _reciprocal(n):
    return 1 // n


def _wrong_executor(n):
    raise AssertionError("ran on the wrong executor")


class TestCliStreamGzip:
    def test_gzip_stream_workers4_byte_identical(self, tmp_path, capsys):
        """The acceptance criterion: `repro analyze --workers 4` streams
        a gzip log and is byte-identical to the serial in-memory run."""
        path = tmp_path / "synthetic.log.gz"
        write_synthetic_log(path, n_entries=400, n_unique=23, seed=1)
        serial = build_query_log("synthetic", list(iter_entries(path)))
        serial_out = render_report(study_corpus({"synthetic": serial})) + "\n"
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out == serial_out
        assert (
            main(
                [
                    "analyze",
                    "--workers",
                    "4",
                    "--chunk-size",
                    "17",
                    str(path),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == serial_out
        assert "synthetic" in serial_out  # .log.gz → dataset name "synthetic"

    def test_directory_stream_matches_per_file_serial(self, tmp_path, capsys):
        log_dir = tmp_path / "endpoint-logs"
        log_dir.mkdir()
        write_synthetic_log(log_dir / "day1.log", n_entries=60, n_unique=9, seed=2)
        write_synthetic_log(log_dir / "day2.log.gz", n_entries=40, n_unique=9, seed=3)
        entries = list(iter_entries(log_dir))
        assert len(entries) == 100
        serial = build_query_log("endpoint-logs", entries)
        streamed = build_query_logs_parallel(
            {"endpoint-logs": iter_entries(log_dir)}, workers=2, chunk_size=13
        )["endpoint-logs"]
        assert_logs_identical(streamed, serial)
        assert main(["analyze", str(log_dir)]) == 0
        assert "endpoint-logs" in capsys.readouterr().out
