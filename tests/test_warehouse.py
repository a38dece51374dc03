"""Tests for the persistent study warehouse (store + CLI verbs).

The contract under test (ISSUE 9 acceptance criteria):

* ingest is an upsert through ``CorpusStudy.merge``: re-ingesting a
  shard is idempotent, and ``ingest(a); ingest(b)`` leaves exactly the
  state of ``ingest(merge(a, b))`` (property-tested);
* a warehouse-served report is byte-identical to ``repro report`` on
  the equivalently merged snapshot — the warehouse never re-runs
  analysis, and per-table text blocks are byte-exact slices of it;
* the indexed tables (datasets, cells, streaks, caveats, search)
  answer without touching the study document;
* a corrupt or foreign warehouse file raises ``WarehouseError`` (CLI:
  a one-line message and exit 2), never a traceback;
* a schema-1 file migrates on a writable open and renders the same
  report; a read-only open of it says how to migrate it.
"""

import hashlib
import json
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.passes import PASS_NAMES
from repro.analysis.snapshot import study_from_dict, study_to_dict
from repro.api import analyze_corpora, open_warehouse
from repro.cli import main
from repro.exceptions import ReproError, WarehouseError
from repro.reporting import render_report
from repro.warehouse import WAREHOUSE_SCHEMA_VERSION, StudyWarehouse
from repro.warehouse.store import snapshot_digest

QUERY_POOL = [
    "SELECT ?x WHERE { ?x <urn:p> ?y }",
    "SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y . ?y <urn:q> ?z }",
    "ASK { ?a <urn:q> ?b . ?b <urn:r> ?a }",
    "ASK { ?s <urn:p>+ ?o }",
    "SELECT * WHERE { ?s ?p ?o . FILTER(?o > 3) }",
    "SELECT ?s WHERE { ?s <urn:p> ?o . OPTIONAL { ?s <urn:q> ?t } }",
    "SELECT ?s WHERE { { ?s <urn:a> ?o } UNION { ?s <urn:b> ?o } }",
    "CONSTRUCT { ?s <urn:p> ?o } WHERE { ?s <urn:p> ?o }",
    "not a query at all {",
]

#: Every per-query pass plus the opt-in streaks sequence pass, so the
#: warehouse carries Table 6 data and streak texts to search.
ALL_METRICS = PASS_NAMES + ("streaks",)


def build_study(texts_by_dataset, metrics=ALL_METRICS):
    return analyze_corpora(texts_by_dataset, metrics=metrics).study


@pytest.fixture(scope="module")
def shard_studies():
    study_a = build_study({"alpha": QUERY_POOL + QUERY_POOL[:4]})
    study_b = build_study({"beta": QUERY_POOL[:6]})
    return study_a, study_b


@pytest.fixture()
def warehouse(tmp_path, shard_studies):
    study_a, study_b = shard_studies
    with StudyWarehouse.open(tmp_path / "study.warehouse") as handle:
        handle.ingest(study_a, source="alpha.json")
        handle.ingest(study_b, source="beta.json")
        yield handle


class TestIngest:
    def test_outcomes_and_idempotency(self, tmp_path, shard_studies):
        study_a, study_b = shard_studies
        with StudyWarehouse.open(tmp_path / "w.db") as handle:
            assert handle.ingest(study_a) == "merged"
            assert handle.ingest(study_a) == "unchanged"
            assert handle.ingest(study_b) == "merged"
            assert handle.ingest(study_a) == "unchanged"
            assert handle.generation == 2

    def test_profiled_snapshots_of_one_log_ingest_once(self, tmp_path):
        """Pass timings differ run to run; they must not make a re-shipped
        profiled snapshot look new (it would count every entry twice)."""
        corpus = {"alpha": QUERY_POOL + QUERY_POOL[:4]}
        first = analyze_corpora(corpus, metrics=ALL_METRICS, profile=True).study
        second = analyze_corpora(corpus, metrics=ALL_METRICS, profile=True).study
        second.pass_profile.seconds["shallow"] = 1e6
        plain = build_study(corpus)
        with StudyWarehouse.open(tmp_path / "w.db") as handle:
            assert handle.ingest(first) == "merged"
            assert handle.ingest(second) == "unchanged"
            assert handle.ingest(plain) == "unchanged"
            assert handle.study().datasets["alpha"].total == len(corpus["alpha"])

    def test_unprofiled_digest_is_the_plain_json_hash(self, shard_studies):
        """Digests of unprofiled snapshots keep their original bytes, so
        existing warehouses still recognise what they hold."""
        data = study_to_dict(shard_studies[0])
        assert data["pass_profile"] is None
        canonical = json.dumps(data, separators=(",", ":"))
        expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert snapshot_digest(data) == expected

    def test_incremental_equals_merged(self, tmp_path, shard_studies):
        study_a, study_b = shard_studies
        # merge() mutates its left side — merge fresh copies, never the
        # module-scoped fixture studies.
        merged = build_study({"alpha": QUERY_POOL + QUERY_POOL[:4]}).merge(
            build_study({"beta": QUERY_POOL[:6]})
        )
        with StudyWarehouse.open(tmp_path / "inc.db") as incremental:
            incremental.ingest(study_a)
            incremental.ingest(study_b)
            with StudyWarehouse.open(tmp_path / "one.db") as oneshot:
                oneshot.ingest(merged)
                assert incremental.render("text") == oneshot.render("text")

    def test_ingest_does_not_mutate_caller_study(self, tmp_path):
        study_a = build_study({"alpha": QUERY_POOL})
        before = render_report(study_a, "json")
        with StudyWarehouse.open(tmp_path / "w.db") as handle:
            handle.ingest(study_a)
            handle.ingest(build_study({"beta": QUERY_POOL[:3]}))
        assert render_report(study_a, "json") == before

    @pytest.mark.parametrize("prefilled", [False, True])
    def test_ingest_takes_no_ownership_of_caller_study(self, tmp_path, prefilled):
        """Ingest merges the caller's study itself, not a decoded copy:
        it must leave the study's data alone, share none of it (merging
        more shards into the study afterwards changes nothing in the
        warehouse), and store exactly the body a decoded copy stores."""
        study = build_study({"shared": QUERY_POOL[:5]})
        before = study_to_dict(study)
        decoded = study_from_dict(before)
        bodies = []
        for label, incoming in (("direct", study), ("decoded", decoded)):
            path = tmp_path / f"{label}.db"
            with StudyWarehouse.open(path) as handle:
                if prefilled:
                    handle.ingest(build_study({"beta": QUERY_POOL[:3]}))
                handle.ingest(incoming)
                assert study_to_dict(incoming) == before
                rendered = handle.render("text")
                held = study_to_dict(handle.study())
                incoming.merge(build_study({"shared": QUERY_POOL[5:]}))
                incoming.merge(build_study({"gamma": QUERY_POOL[2:6]}))
                assert study_to_dict(incoming) != before
                assert handle.render("text") == rendered
                assert study_to_dict(handle.study()) == held
            connection = sqlite3.connect(path)
            bodies.append(
                connection.execute("SELECT body FROM parts WHERE owner = ''").fetchone()[0]
            )
            connection.close()
        assert bodies[0] == bodies[1]

    def test_incompatible_flavour_rejected_and_rolled_back(self, tmp_path):
        unique = build_study({"alpha": QUERY_POOL})
        valid = analyze_corpora({"beta": QUERY_POOL[:3]}, dedup=False).study
        with StudyWarehouse.open(tmp_path / "w.db") as handle:
            handle.ingest(unique, source="alpha.json")
            before = handle.render("text")
            with pytest.raises(WarehouseError, match="beta.json"):
                handle.ingest(valid, source="beta.json")
            assert handle.render("text") == before
            assert handle.generation == 1

    def test_rejected_merge_leaves_cached_study_intact(self, tmp_path):
        """A merge that raises part-way (the streak windows differ after
        the counters were added) must not leave the handle's cached
        study half-merged."""
        path = tmp_path / "w.db"
        window30 = build_study({"alpha": QUERY_POOL})
        window3 = analyze_corpora(
            {"alpha": QUERY_POOL[:5]}, metrics=ALL_METRICS, streak_window=3
        ).study
        with StudyWarehouse.open(path) as handle:
            handle.ingest(window30, source="w30.json")
            before = handle.render("text")
            with pytest.raises(WarehouseError, match="w3.json"):
                handle.ingest(window3, source="w3.json")
            assert handle.render("text") == before
            assert handle.generation == 1
            with StudyWarehouse.open(path, readonly=True) as fresh:
                assert fresh.render("text") == before

    def test_readonly_handle_rejects_ingest(self, tmp_path, shard_studies):
        path = tmp_path / "w.db"
        with StudyWarehouse.open(path) as handle:
            handle.ingest(shard_studies[0])
        with StudyWarehouse.open(path, readonly=True) as handle:
            with pytest.raises(WarehouseError, match="read-only"):
                handle.ingest(shard_studies[1])

    @settings(max_examples=15, deadline=None)
    @given(
        split=st.integers(min_value=1, max_value=len(QUERY_POOL) - 1),
        data=st.data(),
    )
    def test_ingest_commutes_with_merge(self, tmp_path_factory, split, data):
        """``ingest(a); ingest(b)`` ≡ ``ingest(merge(a, b))`` in bytes."""
        pool_a = QUERY_POOL[:split]
        pool_b = QUERY_POOL[split:]
        name_a = data.draw(st.sampled_from(["alpha", "shared"]))
        name_b = data.draw(st.sampled_from(["beta", "shared"]))
        tmp = tmp_path_factory.mktemp("commute")
        study_a = build_study({name_a: pool_a})
        study_b = build_study({name_b: pool_b})
        merged = build_study({name_a: pool_a}).merge(study_b)
        with StudyWarehouse.open(tmp / "steps.db") as stepwise:
            stepwise.ingest(study_a)
            stepwise.ingest(study_b)
            with StudyWarehouse.open(tmp / "once.db") as oneshot:
                oneshot.ingest(merged)
                assert stepwise.render("text") == oneshot.render("text")
                assert stepwise.render("json") == oneshot.render("json")


class TestReports:
    def test_render_byte_identical_to_direct_report(self, warehouse, shard_studies):
        study_a, study_b = shard_studies
        merged = build_study({"alpha": QUERY_POOL + QUERY_POOL[:4]}).merge(study_b)
        for format in ("text", "json", "csv", "markdown"):
            assert warehouse.render(format) == render_report(merged, format)

    def test_table_text_is_slice_of_full_report(self, warehouse):
        report = warehouse.render("text")
        for table in range(1, 7):
            assert warehouse.table_text(table) in report

    def test_unknown_table(self, warehouse):
        with pytest.raises(WarehouseError, match="tables 1-6"):
            warehouse.table_text(9)

    def test_table6_without_streak_data(self, tmp_path):
        study = build_study({"alpha": QUERY_POOL}, metrics=None)
        with StudyWarehouse.open(tmp_path / "w.db") as handle:
            handle.ingest(study)
            with pytest.raises(WarehouseError, match="streaks metric"):
                handle.table_text(6)

    def test_empty_warehouse(self, tmp_path):
        with StudyWarehouse.open(tmp_path / "w.db") as handle:
            with pytest.raises(WarehouseError, match="empty"):
                handle.render("text")


class TestIndexedQueries:
    def test_datasets_pagination(self, warehouse):
        total, items = warehouse.datasets()
        assert total == 2
        assert [row["name"] for row in items] == ["alpha", "beta"]
        assert items[0]["total"] == len(QUERY_POOL) + 4
        total, items = warehouse.datasets(limit=1, offset=1)
        assert total == 2
        assert [row["name"] for row in items] == ["beta"]

    def test_dataset_lookup(self, warehouse):
        assert warehouse.dataset("alpha")["name"] == "alpha"
        assert warehouse.dataset("missing") is None

    def test_table_cells_scoped_by_dataset(self, warehouse):
        total, cells = warehouse.table_cells(1)
        assert total > 0
        assert {cell["section"] for cell in cells} == {"table1"}
        scoped_total, scoped = warehouse.table_cells(1, dataset="alpha")
        assert 0 < scoped_total < total
        assert {cell["row"] for cell in scoped} == {"alpha"}

    def test_streak_histograms(self, warehouse):
        total, items = warehouse.streak_histograms()
        assert total == 2
        by_name = {row["dataset"]: row for row in items}
        assert by_name["alpha"]["streak_count"] > 0
        assert list(by_name["alpha"]["histogram"])[0] == "1-10"

    def test_caveats(self, warehouse):
        caveats = warehouse.caveats()
        assert set(caveats) == {"non_ctract_truncated", "shape_limit_skipped"}

    def test_search(self, warehouse):
        total, items = warehouse.search("urn")
        assert total > 0
        assert all("urn" in row["text"] for row in items)
        paged_total, paged = warehouse.search("urn", limit=1, offset=1)
        assert paged_total == total
        assert len(paged) == 1

    def test_search_rejects_empty_term(self, warehouse):
        with pytest.raises(WarehouseError):
            warehouse.search("   ")

    def test_stats(self, warehouse):
        stats = warehouse.stats()
        assert stats["warehouse_schema"] == WAREHOUSE_SCHEMA_VERSION
        assert stats["corpus"] == "Unique"
        assert stats["ingests"] == 2
        assert stats["datasets"] == 2
        assert stats["cells"] > 0

    def test_ingest_log(self, warehouse):
        log = warehouse.ingest_log()
        assert [entry["source"] for entry in log] == ["alpha.json", "beta.json"]
        assert log[0]["datasets"] == ["alpha"]


class TestOpenErrors:
    def test_missing_file_readonly(self, tmp_path):
        with pytest.raises(WarehouseError, match="no such warehouse"):
            StudyWarehouse.open(tmp_path / "nope.db", readonly=True)

    def test_not_a_database(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is not sqlite at all\n" * 64)
        with pytest.raises(WarehouseError, match="not a usable warehouse"):
            StudyWarehouse.open(path)

    def test_foreign_sqlite_database(self, tmp_path):
        path = tmp_path / "foreign.db"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        with pytest.raises(WarehouseError, match="foreign"):
            StudyWarehouse.open(path)

    def test_future_schema_version(self, tmp_path, shard_studies):
        path = tmp_path / "future.db"
        with StudyWarehouse.open(path) as handle:
            handle.ingest(shard_studies[0])
        with sqlite3.connect(path) as connection:
            connection.execute("PRAGMA user_version = 99")
        with pytest.raises(WarehouseError, match="unsupported warehouse schema 99"):
            StudyWarehouse.open(path)

    def test_errors_are_repro_errors(self):
        assert issubclass(WarehouseError, ReproError)


FORMATS = ("text", "json", "jsonl", "csv", "markdown")


def rewrite_as_schema_1(path):
    """Give a snapshot-fed warehouse the schema-1 layout: its snapshot
    part becomes the single ``study`` row."""
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "CREATE TABLE study (id INTEGER PRIMARY KEY CHECK (id = 1),"
            " body TEXT NOT NULL)"
        )
        connection.execute(
            "INSERT INTO study (id, body) SELECT 1, body FROM parts WHERE owner = ''"
        )
        connection.execute("DROP TABLE parts")
    connection.execute("PRAGMA user_version = 1")
    connection.close()


class TestSchema1Files:
    """A warehouse written before study parts: a writable open migrates
    it, a read-only open says how to."""

    @pytest.fixture()
    def old_file(self, tmp_path, shard_studies):
        path = tmp_path / "old.db"
        with StudyWarehouse.open(path) as handle:
            for study in shard_studies:
                handle.ingest(study)
            reports = {fmt: handle.render(fmt) for fmt in FORMATS}
        rewrite_as_schema_1(path)
        return path, reports

    def test_writable_open_migrates_and_renders_the_same(
        self, old_file, shard_studies
    ):
        path, reports = old_file
        with StudyWarehouse.open(path) as handle:
            assert {fmt: handle.render(fmt) for fmt in FORMATS} == reports
            assert handle.ingest(shard_studies[1]) == "unchanged"
            assert handle.generation == 2
        with StudyWarehouse.open(path, readonly=True) as handle:
            assert {fmt: handle.render(fmt) for fmt in FORMATS} == reports
        connection = sqlite3.connect(path)
        assert connection.execute("PRAGMA user_version").fetchone()[0] == 2
        assert connection.execute("SELECT seq, owner FROM parts").fetchall() == [
            (1, "")
        ]
        connection.close()

    def test_readonly_open_says_how_to_migrate(self, old_file):
        path, _ = old_file
        with pytest.raises(WarehouseError, match="open it for writing once") as error:
            StudyWarehouse.open(path, readonly=True)
        assert "\n" not in str(error.value)

    @pytest.mark.parametrize(
        "verb", [["warehouse", "query"], ["warehouse", "stats"], ["serve"]]
    )
    def test_readonly_verbs_exit_2(self, old_file, capsys, verb):
        path, _ = old_file
        assert main([*verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "warehouse schema 1" in err


class TestSchema1WatchFiles:
    """A schema-1 file only watch sessions fed held their merged cycle
    deltas as its one study; the migration leaves that study to the
    session, whose next cycle stores it as its own part, once."""

    @pytest.mark.parametrize("next_cycle", ["grow", "idle"])
    def test_migrated_file_serves_the_checkpoint(self, tmp_path, capsys, next_cycle):
        from repro.api import WatchSession, load_study

        log, state, path = tmp_path / "day.log", tmp_path / "state", tmp_path / "w.db"
        log.write_text("\n".join(QUERY_POOL[:5]) + "\n", encoding="utf-8")
        WatchSession([str(log)], state, metrics=ALL_METRICS).cycle()
        # Before parts, the session merged each cycle's delta into the
        # one study; its first delta is its whole study, so the ledger
        # holds the digest the session's next write of it computes.
        with StudyWarehouse.open(path) as handle:
            handle.ingest(load_study(state / "study.json"))
        rewrite_as_schema_1(path)
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE ingests SET source = ?", (f"watch:{state}@1",)
            )
        connection.close()
        if next_cycle == "grow":
            with log.open("a", encoding="utf-8") as handle:
                handle.write("\n".join(QUERY_POOL[5:]) + "\n")
        with WatchSession(
            [str(log)], state, metrics=ALL_METRICS, warehouse_path=path
        ) as session:
            assert session.cycle().changed == (next_cycle == "grow")
        checkpoint = load_study(state / "study.json")
        fresh = tmp_path / "fresh.db"
        with StudyWarehouse.open(fresh) as handle:
            handle.ingest(checkpoint)
        tables = []
        for warehouse in (path, fresh):
            assert main(["warehouse", "query", str(warehouse), "--table", "1"]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]
        with StudyWarehouse.open(path, readonly=True) as handle:
            assert handle.dataset("day")["total"] == checkpoint.datasets["day"].total
            assert {fmt: handle.render(fmt) for fmt in FORMATS} == {
                fmt: render_report(checkpoint, fmt) for fmt in FORMATS
            }


class TestFacade:
    def test_open_warehouse(self, tmp_path, shard_studies):
        with open_warehouse(tmp_path / "w.db") as handle:
            assert handle.ingest(shard_studies[0]) == "merged"
        with open_warehouse(tmp_path / "w.db", readonly=True) as handle:
            assert handle.stats()["ingests"] == 1


@pytest.fixture()
def snapshot_files(tmp_path):
    study_a = build_study({"alpha": QUERY_POOL + QUERY_POOL[:4]})
    study_b = build_study({"beta": QUERY_POOL[:6]})
    path_a = tmp_path / "a.json.gz"
    path_b = tmp_path / "b.json"
    from repro.api import save_study

    save_study(study_a, path_a)
    save_study(study_b, path_b)
    return path_a, path_b


class TestWarehouseCli:
    def test_ingest_and_query_round_trip(self, tmp_path, snapshot_files, capsys):
        path_a, path_b = snapshot_files
        store = tmp_path / "study.warehouse"
        assert main(["warehouse", "ingest", str(store), str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert out.count("merged") == 2
        assert "2 dataset(s) from 2 snapshot(s)" in out

        # Idempotent re-ingest of one shard.
        assert main(["warehouse", "ingest", str(store), str(path_a)]) == 0
        assert "unchanged" in capsys.readouterr().out

        # The warehouse-served report is byte-identical to merge+report.
        assert main(["warehouse", "query", str(store)]) == 0
        warehouse_report = capsys.readouterr().out
        merged = tmp_path / "merged.json"
        assert main(["merge", str(path_a), str(path_b), "--out", str(merged)]) == 0
        capsys.readouterr()
        assert main(["report", str(merged)]) == 0
        assert warehouse_report == capsys.readouterr().out

    def test_query_table_block(self, tmp_path, snapshot_files, capsys):
        path_a, path_b = snapshot_files
        store = tmp_path / "w.db"
        assert main(["warehouse", "ingest", str(store), str(path_a)]) == 0
        capsys.readouterr()
        assert main(["warehouse", "query", str(store), "--table", "1"]) == 0
        assert capsys.readouterr().out.startswith("Table 1")

    def test_query_cells_and_listings(self, tmp_path, snapshot_files, capsys):
        path_a, path_b = snapshot_files
        store = tmp_path / "w.db"
        assert main(["warehouse", "ingest", str(store), str(path_a), str(path_b)]) == 0
        capsys.readouterr()
        assert main(
            ["warehouse", "query", str(store), "--table", "4", "--dataset", "alpha"]
        ) == 0
        cells = json.loads(capsys.readouterr().out)
        assert cells["total"] > 0
        for flag in ("--datasets", "--streaks", "--caveats"):
            assert main(["warehouse", "query", str(store), flag]) == 0
            json.loads(capsys.readouterr().out)
        assert main(["warehouse", "query", str(store), "--search", "urn"]) == 0
        found = json.loads(capsys.readouterr().out)
        assert found["total"] > 0

    def test_stats_verb(self, tmp_path, snapshot_files, capsys):
        path_a, _ = snapshot_files
        store = tmp_path / "w.db"
        assert main(["warehouse", "ingest", str(store), str(path_a)]) == 0
        capsys.readouterr()
        assert main(["warehouse", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "corpus:          Unique" in out
        assert "snapshots:       1" in out

    def test_corrupt_warehouse_exits_2(self, tmp_path, capsys):
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"not a database, just noise\n" * 32)
        assert main(["warehouse", "query", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("warehouse:")
        assert "Traceback" not in err

    def test_missing_warehouse_exits_2(self, tmp_path, capsys):
        assert main(["warehouse", "stats", str(tmp_path / "nope.db")]) == 2
        assert "no such warehouse" in capsys.readouterr().err

    def test_unreadable_snapshot_named_in_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["warehouse", "ingest", str(tmp_path / "w.db"), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err

    def test_dataset_requires_table(self, tmp_path, snapshot_files, capsys):
        path_a, _ = snapshot_files
        store = tmp_path / "w.db"
        assert main(["warehouse", "ingest", str(store), str(path_a)]) == 0
        capsys.readouterr()
        assert main(["warehouse", "query", str(store), "--dataset", "alpha"]) == 2
        assert "--dataset requires --table" in capsys.readouterr().err

    def test_serve_missing_warehouse_exits_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.db")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve:")
        assert "no such warehouse" in err
