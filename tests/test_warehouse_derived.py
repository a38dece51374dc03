"""The warehouse's derived tables after row-level writes equal a rebuild.

A write brings ``datasets``, ``cells``, ``streaks`` and ``caveats`` to
the new fold by writing only the rows that differ from the current
generation's.  This file draws what a watched warehouse lives through
— interleaved growth of three datasets, idle cycles, snapshot ingests
from a second handle between cycles, and writes that fail inside
their transaction — and parts replaced by smaller studies (cells,
datasets and streak rows then vanish), and checks after every step
that each derived table, ``query_texts`` and ``/search`` equal those
of a fresh warehouse given the same fold in one write.
"""

import sqlite3
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.incremental import WatchSession
from repro.analysis.passes import PASS_NAMES
from repro.analysis.snapshot import encode_study
from repro.api import analyze_corpora
from repro.exceptions import WarehouseError
from repro.reporting.reporters import study_long_rows
from repro.warehouse import StudyWarehouse

from loggen import unique_query_pool

METRICS = PASS_NAMES + ("streaks",)
WINDOW = 4
#: Small enough that some queries skip the structure pass, so the
#: ``shape_limit_skipped`` caveat moves.
SHAPE_LIMIT = 2
OPTIONS = {"metrics": METRICS, "streak_window": WINDOW, "shape_node_limit": SHAPE_LIMIT}
DATASETS = ("a", "b", "c")

POOL = unique_query_pool(16) + [
    "SELECT * WHERE { ?s (<urn:p>|<urn:q>)* ?o }",
    "SELECT * WHERE { ?s <urn:p>/<urn:q> ?o }",
    "not a query {",
]
STREAM = [POOL[(7 * i) % len(POOL)] for i in range(120)]

#: Served order of each compared table (``streaks`` rowids are not
#: compared, only their order within a dataset).
DUMPS = {
    "datasets": "SELECT rowid, * FROM datasets ORDER BY rowid",
    "cells": "SELECT section, row, col, value FROM cells ORDER BY section, row, col",
    "streaks": "SELECT dataset, bucket, count FROM streaks ORDER BY dataset, rowid",
    "caveats": "SELECT name, dropped FROM caveats ORDER BY name",
    "query_texts": "SELECT id, dataset, kind, text FROM query_texts ORDER BY id",
}


def write_lines(path: Path, texts) -> None:
    with path.open("a", encoding="utf-8") as handle:
        for text in texts:
            handle.write(text + "\n")


def tables(path: Path) -> dict:
    """The derived tables and a search of the warehouse at *path*, and its fold."""
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        dumped = {
            table: connection.execute(query).fetchall()
            for table, query in DUMPS.items()
        }
    finally:
        connection.close()
    with StudyWarehouse.open(path, readonly=True) as handle:
        dumped["search"] = handle.search("SELECT", limit=1000)
        fold = handle.study()
    return dumped, fold


def replace_part(handle, owner, study):
    handle.replace_part(
        owner, study, source=owner, body=encode_study(study), rows=study_long_rows(study)
    )


def rebuilt(path: Path, fold) -> dict:
    """The tables of a fresh warehouse that stores *fold* in one write."""
    if path.exists():
        path.unlink()
    with StudyWarehouse.open(path) as handle:
        if fold is not None:
            replace_part(handle, "fresh", fold)
    return tables(path)[0]


def study_of(names, start, count):
    """A snapshot study of *count* stream entries per dataset in *names*."""
    corpus = {
        name: STREAM[start + index : start + index + count]
        for index, name in enumerate(names)
    }
    return analyze_corpora(corpus, **OPTIONS).study


grow = st.tuples(*(st.integers(0, 5) for _ in DATASETS))
#: A snapshot ingest from a second handle: dataset names, entries each.
ingest = st.tuples(
    st.lists(st.sampled_from(("a", "d", "e")), min_size=1, max_size=2, unique=True),
    st.integers(1, 6),
)
#: One step: an optional ingest, then a cycle growing the watched logs,
#: which fails mid-write one time in four.
steps = st.lists(
    st.tuples(st.none() | ingest, grow, st.integers(0, 3).map(lambda n: n == 0)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(steps=steps)
def test_watch_writes_equal_a_rebuild(tmp_path_factory, steps):
    tmp_path = tmp_path_factory.mktemp("derived")
    files = [tmp_path / f"{name}.rq" for name in DATASETS]
    for path in files:
        path.touch()
    warehouse, fresh = tmp_path / "w.db", tmp_path / "fresh.db"
    session = WatchSession(
        [str(path) for path in files], tmp_path / "state",
        warehouse_path=warehouse, **OPTIONS,
    )
    drawn = 0
    rebuild = StudyWarehouse._rebuild_derived

    def rebuild_then_fail(handle, study):
        rebuild(handle, study)
        raise sqlite3.OperationalError("disk I/O error")

    def check():
        served, fold = tables(warehouse)
        assert served == rebuilt(fresh, fold)

    with session:
        for ingested, counts, fail in steps:
            if ingested is not None:
                names, count = ingested
                with StudyWarehouse.open(warehouse) as other:
                    other.ingest(study_of(names, drawn, count), source=f"in-{drawn}")
                drawn += count
                check()
            for path, count in zip(files, counts):
                write_lines(path, STREAM[drawn : drawn + count])
                drawn += count
            if fail:
                with mock.patch.object(
                    StudyWarehouse, "_rebuild_derived", rebuild_then_fail
                ):
                    try:
                        session.cycle()
                    except WarehouseError:
                        pass  # an idle cycle after a stored study writes nothing
            else:
                session.cycle()
            if warehouse.exists():
                check()


@settings(max_examples=30, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.sampled_from(("x", "y")),
            st.lists(st.sampled_from(("a", "b", "c", "d")), min_size=1, max_size=3, unique=True),
            st.integers(0, 60),
            st.integers(1, 8),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_replaced_parts_equal_a_rebuild(tmp_path_factory, writes):
    """Replacing a part with any study, smaller ones included, leaves
    the tables of a fresh warehouse given the fold once."""
    tmp_path = tmp_path_factory.mktemp("replaced")
    warehouse, fresh = tmp_path / "w.db", tmp_path / "fresh.db"
    with StudyWarehouse.open(warehouse) as handle:
        for owner, names, start, count in writes:
            replace_part(handle, owner, study_of(names, start, count))
            served, fold = tables(warehouse)
            assert served == rebuilt(fresh, fold)


def test_failed_write_drops_the_kept_rows(tmp_path):
    """A rolled-back write forgets the derived rows it computed; the
    next write diffs against what the tables hold."""
    path = tmp_path / "day.rq"
    write_lines(path, STREAM[:10])
    with WatchSession(
        [str(path)], tmp_path / "state", warehouse_path=tmp_path / "w.db",
        **OPTIONS,
    ) as session:
        session.cycle()
        handle = session._warehouse
        assert handle._derived[0] == handle.generation
        write_lines(path, STREAM[10:20])
        with mock.patch.object(
            StudyWarehouse,
            "_rebuild_derived",
            side_effect=sqlite3.OperationalError("disk I/O error"),
        ):
            with pytest.raises(WarehouseError):
                replace_part(handle, "other", session.study)
        assert handle._derived is None and handle._cache is None
