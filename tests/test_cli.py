"""Unit tests for the command-line interface."""

import json

import pytest

from repro.analysis.snapshot import SCHEMA_VERSION, load_study
from repro.api import analyze_corpora
from repro.cli import main
from repro.logs import encode_access_log_line, read_entries


@pytest.fixture()
def query_file(tmp_path):
    path = tmp_path / "queries.rq"
    path.write_text(
        "SELECT ?x WHERE { ?x <urn:p> ?y }\n"
        "ASK { ?a <urn:q> ?b . ?b <urn:r> ?a }\n"
        "BROKEN {\n"
    )
    return path


class TestReadEntries:
    def test_line_format(self, query_file):
        queries = read_entries(query_file)
        assert len(queries) == 3

    def test_escaped_newlines(self, tmp_path):
        path = tmp_path / "q.rq"
        path.write_text("SELECT ?x WHERE {\\n ?x <urn:p> ?y\\n}\n")
        queries = read_entries(path)
        assert len(queries) == 1
        assert "\n" in queries[0]

    def test_blank_line_blocks(self, tmp_path):
        path = tmp_path / "q.rq"
        path.write_text(
            "SELECT ?x WHERE {\n  ?x <urn:p> ?y\n}\n"
            "\n"
            "ASK { ?s ?p ?o }\n"
        )
        queries = read_entries(path)
        assert len(queries) == 2
        assert queries[0].startswith("SELECT")

    def test_access_log_format(self, tmp_path):
        path = tmp_path / "access.log"
        lines = [
            encode_access_log_line("ASK { ?s ?p ?o }"),
            encode_access_log_line("SELECT * WHERE { ?s ?p ?o }"),
        ]
        path.write_text("\n".join(lines) + "\n")
        queries = read_entries(path)
        assert queries == ["ASK { ?s ?p ?o }", "SELECT * WHERE { ?s ?p ?o }"]

    def test_gzip_input(self, tmp_path):
        import gzip

        path = tmp_path / "access.log.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(encode_access_log_line("ASK { ?s ?p ?o }") + "\n")
        assert read_entries(path) == ["ASK { ?s ?p ?o }"]


class TestCommands:
    def test_analyze(self, query_file, capsys):
        exit_code = main(["analyze", str(query_file)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 1" in output
        assert "Table 2" in output
        assert "queries" in output  # table1 row present

    def test_analyze_keep_duplicates(self, query_file, capsys):
        assert main(["analyze", "--keep-duplicates", str(query_file)]) == 0

    def test_analyze_workers_output_identical(self, query_file, capsys):
        assert main(["analyze", str(query_file)]) == 0
        serial = capsys.readouterr().out
        assert main(["analyze", "--workers", "2", str(query_file)]) == 0
        assert capsys.readouterr().out == serial

    def test_analyze_chunk_size(self, query_file, capsys):
        assert main(["analyze", str(query_file)]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["analyze", "--workers", "2", "--chunk-size", "1", str(query_file)])
            == 0
        )
        assert capsys.readouterr().out == serial

    def test_corpus(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        exit_code = main(
            ["corpus", "--scale", "5e-7", "--out", str(out_dir)]
        )
        assert exit_code == 0
        files = list(out_dir.glob("*.log"))
        assert len(files) == 13
        # Generated files are themselves parseable by `analyze`.
        sample = next(f for f in files if f.stat().st_size > 0)
        assert main(["analyze", str(sample)]) == 0

    def test_figure3(self, capsys):
        exit_code = main(
            [
                "figure3", "--nodes", "150", "--timeout", "2.0",
                "--queries", "2", "--lengths", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "chain-W3 BG" in output
        assert "cycle-W3 PG" in output

    def test_analyze_stream_output_identical(self, query_file, capsys):
        """File inputs stream from disk; the report equals the one over
        the same entries held in memory."""
        in_memory = analyze_corpora(
            {"queries": read_entries(query_file)}
        ).render("text")
        assert main(["analyze", str(query_file)]) == 0
        assert capsys.readouterr().out == in_memory + "\n"
        assert (
            main(
                [
                    "analyze", "--workers", "2",
                    "--chunk-size", "1", str(query_file),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == in_memory + "\n"

    def test_analyze_directory_input(self, tmp_path, capsys):
        log_dir = tmp_path / "logs"
        log_dir.mkdir()
        (log_dir / "a.log").write_text(
            encode_access_log_line("ASK { ?s ?p ?o }") + "\n"
        )
        (log_dir / "b.rq").write_text("SELECT * WHERE { ?a ?b ?c }\n")
        assert main(["analyze", str(log_dir)]) == 0
        streamed = capsys.readouterr().out
        assert "logs" in streamed
        in_memory = analyze_corpora({"logs": read_entries(log_dir)})
        assert streamed == in_memory.render("text") + "\n"

    def test_streaks_synthetic(self, capsys):
        exit_code = main(["streaks", "--synthetic", "60"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 6" in output

    def test_streaks_file(self, tmp_path, capsys):
        path = tmp_path / "day.log"
        path.write_text(
            'SELECT ?x WHERE { ?x <urn:name> "A" }\n'
            'SELECT ?x WHERE { ?x <urn:name> "B" }\n'
        )
        assert main(["streaks", str(path)]) == 0
        assert "longest streak" in capsys.readouterr().out

    def test_streaks_requires_input(self, capsys):
        assert main(["streaks"]) == 2

    def test_streaks_rejects_negative_synthetic_size(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["streaks", "--synthetic", "-5"])
        assert excinfo.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_streaks_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["streaks", str(tmp_path / "missing.log")]) == 2
        assert "streaks:" in capsys.readouterr().err

    def test_streaks_sharded_matches_serial(self, capsys):
        assert main(["streaks", "--synthetic", "80"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                [
                    "streaks", "--synthetic", "80",
                    "--workers", "2", "--chunk-size", "7",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == serial

    def test_analyze_metrics_streaks(self, tmp_path, capsys):
        path = tmp_path / "day.log"
        path.write_text(
            'SELECT ?x WHERE { ?x <urn:name> "A" }\n'
            'SELECT ?x WHERE { ?x <urn:name> "B" }\n'
        )
        assert main(["analyze", "--metrics", "streaks", str(path)]) == 0
        output = capsys.readouterr().out
        assert "Table 6" in output
        assert "longest streak: 2 queries" in output
        # Default runs must not pay for (or print) streak detection.
        assert main(["analyze", str(path)]) == 0
        assert "Table 6" not in capsys.readouterr().out

    def test_analyze_streak_window_threads_through(self, tmp_path, capsys):
        path = tmp_path / "day.log"
        similar = 'SELECT ?x WHERE {{ ?x <urn:name> "A{}" }}'
        fillers = [
            "ASK { <urn:completely> <urn:unrelated> <urn:thing> }",
            "DESCRIBE <urn:some/very/long/resource/identifier/123456789>",
        ]
        path.write_text(
            "\n".join([similar.format(1), *fillers, similar.format(2)]) + "\n"
        )
        assert (
            main(
                [
                    "analyze", "--metrics", "streaks",
                    "--streak-window", "2", str(path),
                ]
            )
            == 0
        )
        narrow = capsys.readouterr().out
        assert "longest streak: 1 queries" in narrow  # gap 3 > window 2
        assert main(["analyze", "--metrics", "streaks", str(path)]) == 0
        assert "longest streak: 2 queries" in capsys.readouterr().out

    def test_streaks_snapshot_reloads_table6(self, tmp_path, capsys):
        path = tmp_path / "day.log"
        path.write_text(
            'SELECT ?x WHERE { ?x <urn:name> "A" }\n'
            'SELECT ?x WHERE { ?x <urn:name> "B" }\n'
        )
        snapshot = tmp_path / "study.json"
        assert (
            main(
                [
                    "analyze", "--metrics", "streaks",
                    "--save-study", str(snapshot), str(path),
                ]
            )
            == 0
        )
        direct = capsys.readouterr().out
        assert main(["report", str(snapshot)]) == 0
        assert capsys.readouterr().out == direct

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nope"])


class TestArgumentValidation:
    """Out-of-range numeric flags (`--workers <= 0`, `--chunk-size <= 0`,
    a non-positive `figure3` size or timeout, a non-positive or
    non-finite `corpus --scale`) must die with a clear argparse error
    (exit code 2), not a crash, a silent hang or nonsense output."""

    @pytest.mark.parametrize("value", ["0", "-1", "-4"])
    def test_rejects_nonpositive_workers(self, query_file, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--workers", value, str(query_file)])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_rejects_nonpositive_chunk_size(self, query_file, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--chunk-size", value, str(query_file)])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--nodes", "-5"), ("--queries", "-1"), ("--lengths", "-2"),
         ("--timeout", "-1")],
    )
    def test_figure3_rejects_nonpositive_sizes(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure3", flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_figure3_rejects_short_cycles_before_running(self, capsys):
        assert main(["figure3", "--nodes", "150", "--lengths", "3", "2"]) == 2
        captured = capsys.readouterr()
        assert "cycle length" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_corpus_rejects_bad_scale(self, tmp_path, value, capsys):
        out_dir = tmp_path / "corpus"
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", "--scale", value, "--out", str(out_dir)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_rejects_non_integer_workers(self, query_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--workers", "two", str(query_file)])
        assert excinfo.value.code == 2

    def test_analyze_cache_size_flag(self, tmp_path, capsys):
        log = tmp_path / "q.rq"
        log.write_text("ASK { ?s <urn:p> ?o }\n", encoding="utf-8")
        assert main(["analyze", str(log)]) == 0
        default = capsys.readouterr().out
        assert main(["analyze", str(log), "--cache-size", "0"]) == 0
        assert capsys.readouterr().out == default

    def test_analyze_cache_size_rejects_negative(self, tmp_path, capsys):
        log = tmp_path / "q.rq"
        log.write_text("ASK { ?s <urn:p> ?o }\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["analyze", str(log), "--cache-size", "-1"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_rejects_colliding_dataset_names(self, tmp_path, capsys):
        # day.log and day.rq both map to dataset "day"; a corpora dict
        # would silently drop one file's entries from the report.
        first = tmp_path / "day.log"
        first.write_text("ASK { ?s ?p ?o }\n")
        second = tmp_path / "day.rq"
        second.write_text("SELECT * WHERE { ?a ?b ?c }\n")
        assert main(["analyze", str(first), str(second)]) == 2
        assert "dataset name" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # Semantic-looking version, from package metadata or the source tree.
        assert out.split()[1][0].isdigit()


class TestWarnings:
    def test_normal_cli_runs_do_not_warn(self, tmp_path, capsys, recwarn):
        path = tmp_path / "q.rq"
        path.write_text("ASK { ?s ?p ?o }\n")
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()
        assert not [
            warning
            for warning in recwarn.list
            if issubclass(warning.category, DeprecationWarning)
        ]


class TestSnapshotVerbs:
    """`analyze --save-study`, `merge`, and `report` round trips."""

    @pytest.fixture()
    def two_files(self, tmp_path):
        first = tmp_path / "alpha.rq"
        first.write_text(
            "SELECT ?x WHERE { ?x <urn:p> ?y }\n"
            "ASK { ?a <urn:q> ?b . ?b <urn:r> ?a }\n"
        )
        second = tmp_path / "beta.rq"
        second.write_text(
            "SELECT DISTINCT ?s WHERE { ?s <urn:p> ?o . FILTER(?o > 3) }\n"
            "ASK { ?s <urn:p>+ ?o }\n"
        )
        return first, second

    def test_save_study_writes_loadable_snapshot(self, two_files, tmp_path, capsys):
        first, _ = two_files
        out = tmp_path / "study.json"
        assert main(["analyze", str(first), "--save-study", str(out)]) == 0
        capsys.readouterr()
        study = load_study(out)
        assert study.query_count == 2
        assert "alpha" in study.datasets

    def test_report_text_matches_analyze_output(self, two_files, tmp_path, capsys):
        first, second = two_files
        assert main(["analyze", str(first), str(second)]) == 0
        direct = capsys.readouterr().out
        out = tmp_path / "study.json"
        assert main(
            ["analyze", str(first), str(second), "--save-study", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert capsys.readouterr().out == direct

    def test_merge_equals_direct_multi_file_run(self, two_files, tmp_path, capsys):
        first, second = two_files
        assert main(["analyze", str(first), str(second)]) == 0
        direct = capsys.readouterr().out
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", str(first), "--save-study", str(a)]) == 0
        assert main(["analyze", str(second), "--save-study", str(b)]) == 0
        merged = tmp_path / "merged.json"
        assert main(["merge", str(a), str(b), "--out", str(merged)]) == 0
        capsys.readouterr()
        assert main(["report", str(merged)]) == 0
        assert capsys.readouterr().out == direct

    def test_merge_without_out_prints_snapshot_json(self, two_files, tmp_path, capsys):
        first, _ = two_files
        a = tmp_path / "a.json"
        assert main(["analyze", str(first), "--save-study", str(a)]) == 0
        capsys.readouterr()
        assert main(["merge", str(a)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["schema"] == SCHEMA_VERSION

    def test_analyze_format_json_is_loadable(self, two_files, capsys):
        first, _ = two_files
        assert main(["analyze", str(first), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "repro.corpus_study"

    @pytest.mark.parametrize("fmt", ["text", "json", "jsonl", "csv", "markdown"])
    def test_report_every_registered_format(self, two_files, tmp_path, capsys, fmt):
        first, _ = two_files
        out = tmp_path / "study.json"
        assert main(["analyze", str(first), "--save-study", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out), "--format", fmt]) == 0
        assert capsys.readouterr().out


class TestSnapshotErrorPaths:
    """Missing/corrupt/mis-versioned snapshots and unknown formats must
    exit 2 with a clear message, never crash with a traceback."""

    @pytest.fixture()
    def snapshot(self, tmp_path, capsys):
        source = tmp_path / "q.rq"
        source.write_text("ASK { ?s ?p ?o }\n")
        path = tmp_path / "study.json"
        assert main(["analyze", str(source), "--save-study", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "report:" in capsys.readouterr().err

    def test_report_corrupt_json(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["report", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_report_schema_version_mismatch(self, snapshot, tmp_path, capsys):
        data = json.loads(snapshot.read_text())
        data["schema"] = SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 2
        assert "schema version" in capsys.readouterr().err

    def test_report_wrong_kind(self, snapshot, tmp_path, capsys):
        data = json.loads(snapshot.read_text())
        data["kind"] = "something.else"
        path = tmp_path / "kind.json"
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 2
        assert "kind" in capsys.readouterr().err

    def test_report_missing_field(self, snapshot, tmp_path, capsys):
        data = json.loads(snapshot.read_text())
        del data["keyword_counts"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 2
        assert "keyword_counts" in capsys.readouterr().err

    def test_report_unhashable_counter_key(self, snapshot, tmp_path, capsys):
        # A corrupted pair list with a non-scalar key must be a clean
        # snapshot error, not an unhashable-key TypeError traceback.
        data = json.loads(snapshot.read_text())
        data["keyword_counts"] = [[[1, 2], 3]]
        path = tmp_path / "unhashable.json"
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 2
        assert "not a string or int" in capsys.readouterr().err

    def test_analyze_save_study_unwritable_path(self, tmp_path, capsys):
        source = tmp_path / "q.rq"
        source.write_text("ASK { ?s ?p ?o }\n")
        target = tmp_path / "no-such-dir" / "s.json"
        assert main(["analyze", str(source), "--save-study", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_merge_out_unwritable_path(self, snapshot, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "m.json"
        assert main(["merge", str(snapshot), "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_analyze_missing_input_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.log")]) == 2
        assert "analyze:" in capsys.readouterr().err

    def test_report_unknown_format(self, snapshot, capsys):
        assert main(["report", str(snapshot), "--format", "yaml"]) == 2
        err = capsys.readouterr().err
        assert "unknown report format" in err
        # The message lists what IS available, so the fix is self-evident.
        assert "available:" in err
        assert "text" in err and "json" in err
        assert "text" in err  # the message lists what IS available

    def test_analyze_unknown_format(self, tmp_path, capsys):
        source = tmp_path / "q.rq"
        source.write_text("ASK { ?s ?p ?o }\n")
        assert main(["analyze", str(source), "--format", "yaml"]) == 2
        err = capsys.readouterr().err
        assert "unknown report format" in err
        assert "available:" in err

    def test_merge_missing_file(self, snapshot, tmp_path, capsys):
        assert main(["merge", str(snapshot), str(tmp_path / "gone.json")]) == 2
        assert "merge:" in capsys.readouterr().err

    def test_merge_schema_mismatch_names_offending_file(
        self, snapshot, tmp_path, capsys
    ):
        # With a dozen shards on the command line, "schema version 99"
        # alone is not actionable: the message must name the file.
        data = json.loads(snapshot.read_text())
        data["schema"] = 99
        future = tmp_path / "future-shard.json"
        future.write_text(json.dumps(data))
        assert main(["merge", str(snapshot), str(future)]) == 2
        err = capsys.readouterr().err
        assert "future-shard.json" in err
        assert "schema version 99" in err
        assert "Traceback" not in err

    def test_merge_parameter_clash_names_offending_file(
        self, tmp_path, capsys
    ):
        source = tmp_path / "q.rq"
        source.write_text("ASK { ?s ?p ?o }\n" * 3)
        narrow = tmp_path / "narrow.json"
        wide = tmp_path / "wide-window.json"
        base = ["analyze", str(source), "--metrics", "streaks"]
        assert main(base + ["--streak-window", "5", "--save-study", str(narrow)]) == 0
        assert main(base + ["--streak-window", "9", "--save-study", str(wide)]) == 0
        capsys.readouterr()
        assert main(["merge", str(narrow), str(wide)]) == 2
        err = capsys.readouterr().err
        assert "wide-window.json" in err
        assert "Traceback" not in err

    def test_merge_rejects_mixed_corpus_flavours(self, tmp_path, capsys):
        source = tmp_path / "q.rq"
        source.write_text("ASK { ?s ?p ?o }\nASK { ?s ?p ?o }\n")
        unique = tmp_path / "unique.json"
        valid = tmp_path / "valid.json"
        assert main(["analyze", str(source), "--save-study", str(unique)]) == 0
        assert main(
            [
                "analyze", "--keep-duplicates", str(source),
                "--save-study", str(valid),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["merge", str(unique), str(valid)]) == 2
        assert "cannot merge" in capsys.readouterr().err


def _damaged_gzip(tmp_path, damage):
    """A 50-line gzipped access log, cut to half its bytes or with its
    deflate data flipped."""
    import gzip

    lines = "".join(
        encode_access_log_line(f"SELECT ?x WHERE {{ ?x <urn:p{i}> ?y }}") + "\n"
        for i in range(50)
    )
    data = bytearray(gzip.compress(lines.encode("utf-8"), mtime=0))
    if damage == "truncated":
        data = data[: len(data) // 2]
    else:
        for index in range(20, 60):
            data[index] ^= 0xFF
    path = tmp_path / f"{damage}.log.gz"
    path.write_bytes(bytes(data))
    return path


class TestDamagedGzip:
    """A truncated or corrupt gzip source is an input error: exit 2 with
    one line on stderr, never a traceback, nothing written, no worker
    left behind."""

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["analyze", "--chunk-size", "1"],
            ["analyze", "--workers", "2"],
            ["streaks"],
        ],
        ids=["serial", "stream", "workers2", "streaks"],
    )
    def test_batch_entry_points_exit_2(self, tmp_path, capsys, damage, argv):
        import multiprocessing

        path = _damaged_gzip(tmp_path, damage)
        snapshot = tmp_path / "study.json"
        extra = ["--save-study", str(snapshot)] if argv[0] == "analyze" else []
        assert main([*argv, *extra, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert str(path) in captured.err
        assert not snapshot.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_watch_cycle_exits_2(self, tmp_path, capsys, damage):
        path = _damaged_gzip(tmp_path, damage)
        state = tmp_path / "state"
        assert main(["watch", str(path), "--state", str(state)]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert str(path) in captured.err
        assert not state.exists()
