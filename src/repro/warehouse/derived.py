"""The warehouse's derived tables as rows, and the writes between two folds.

``datasets``, ``cells``, ``streaks``, ``caveats`` and ``query_texts``
are functions of the served fold.  A write computes the fold's rows
(:func:`derived_rows`) and writes only those that differ from the
previous generation's (:func:`write_rows`):

* ``cells`` — the keys that are gone are deleted and the changed ones
  upserted; they are served in key order, so order is free.
* ``datasets`` — changed rows are updated in place and new names
  appended, so the rowid order ``/datasets`` serves is kept; the table
  is rewritten only when the names are not the old ones followed by
  new ones.
* ``streaks`` — served per dataset in rowid order, so the rows of a
  changed dataset are rewritten.
* ``caveats`` — rewritten when they changed.
* ``query_texts`` and their FTS5 index — rebuilt whole: FTS ``rank``
  ties follow the order the index was built in, so an incremental
  index would reorder ``/search`` results.

Only writes import this module; read-only handles (``repro serve``)
never pay for it.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from ..analysis.study import CorpusStudy
from .store import _DATASET_COLUMNS

__all__ = ["DerivedRows", "derived_rows", "read_rows", "write_rows"]


class DerivedRows(NamedTuple):
    """The rows the derived tables hold for one fold, in served order."""

    #: ``datasets`` rows (name first), in rowid order.
    datasets: List[Tuple[Any, ...]]
    #: ``cells`` values by (section, row, column).
    cells: Dict[Tuple[str, str, str], str]
    #: ``streaks`` (bucket, count) rows by dataset, in rowid order.
    streaks: Dict[str, List[Tuple[str, int]]]
    #: ``caveats`` rows, in rowid order.
    caveats: List[Tuple[str, int]]


def derived_rows(
    study: CorpusStudy, long_rows: Sequence[Tuple[str, str, str, str]]
) -> DerivedRows:
    """The derived rows of *study*, whose ``study_long_rows`` are *long_rows*."""
    return DerivedRows(
        datasets=[
            (
                name,
                stats.total,
                stats.valid,
                stats.unique,
                stats.queries,
                stats.select_ask,
                stats.triple_sum,
                None if stats.streaks is None else stats.streaks.streak_count,
                None if stats.streaks is None else stats.streaks.longest,
            )
            for name, stats in study.datasets.items()
        ],
        # Later rows win, as INSERT OR REPLACE would have it.
        cells={(section, row, col): value for section, row, col, value in long_rows},
        streaks={
            name: list(histogram.items())
            for name, histogram in study.streak_histograms().items()
            if histogram
        },
        caveats=[
            ("shape_limit_skipped", study.shape_limit_skipped),
            ("non_ctract_truncated", study.non_ctract_truncated),
        ],
    )


def read_rows(connection: sqlite3.Connection) -> DerivedRows:
    """The derived rows the tables hold."""
    streaks: Dict[str, List[Tuple[str, int]]] = {}
    for dataset, bucket, count in connection.execute(
        "SELECT dataset, bucket, count FROM streaks ORDER BY rowid"
    ):
        streaks.setdefault(dataset, []).append((bucket, count))
    return DerivedRows(
        datasets=connection.execute(
            f"SELECT {_DATASET_COLUMNS} FROM datasets ORDER BY rowid"
        ).fetchall(),
        cells={
            (section, row, col): value
            for section, row, col, value in connection.execute(
                "SELECT section, row, col, value FROM cells"
            )
        },
        streaks=streaks,
        caveats=connection.execute(
            "SELECT name, dropped FROM caveats ORDER BY rowid"
        ).fetchall(),
    )


def _texts_of(study: CorpusStudy) -> List[Tuple[str, str, str]]:
    """The query texts a study carries, as (dataset, kind, text) rows.

    Snapshots do not retain the raw corpus (by design — studies are
    aggregates), but two measurements keep verbatim query text: the
    Table 5 non-Ctract sample and the streak accumulator's head/tail
    texts.  Those are what ``/search`` indexes.
    """
    rows: List[Tuple[str, str, str]] = []
    for text in study.non_ctract:
        rows.append(("", "non_ctract", text))
    for name, stats in study.datasets.items():
        if stats.streaks is None:
            continue
        for text in stats.streaks.head:
            rows.append((name, "streak_head", text))
        for chain in stats.streaks.chains:
            rows.append((name, "streak_tail", chain.tail))
    return rows


def write_rows(
    connection: sqlite3.Connection,
    old: DerivedRows,
    new: DerivedRows,
    study: CorpusStudy,
    fts5: bool,
) -> None:
    """Bring the tables from *old* to *new*, the rows of *study*
    (the caller holds the transaction)."""
    old_names = [row[0] for row in old.datasets]
    if [row[0] for row in new.datasets[: len(old_names)]] == old_names:
        connection.executemany(
            "UPDATE datasets SET total = ?, valid = ?, unique_queries = ?,"
            " analyzed = ?, select_ask = ?, triple_sum = ?,"
            " streak_count = ?, longest_streak = ? WHERE name = ?",
            [
                (*row[1:], row[0])
                for row, before in zip(new.datasets, old.datasets)
                if row != before
            ],
        )
        appended = new.datasets[len(old_names):]
    else:
        connection.execute("DELETE FROM datasets")
        appended = new.datasets
    connection.executemany(
        f"INSERT INTO datasets ({_DATASET_COLUMNS}) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
        appended,
    )
    connection.executemany(
        "DELETE FROM cells WHERE section = ? AND row = ? AND col = ?",
        [key for key in old.cells if key not in new.cells],
    )
    connection.executemany(
        "INSERT OR REPLACE INTO cells (section, row, col, value) VALUES (?, ?, ?, ?)",
        [
            (*key, value)
            for key, value in new.cells.items()
            if old.cells.get(key) != value
        ],
    )
    for name in {**old.streaks, **new.streaks}:
        histogram = new.streaks.get(name, [])
        if histogram == old.streaks.get(name, []):
            continue
        connection.execute("DELETE FROM streaks WHERE dataset = ?", (name,))
        connection.executemany(
            "INSERT INTO streaks (dataset, bucket, count) VALUES (?, ?, ?)",
            [(name, bucket, count) for bucket, count in histogram],
        )
    if new.caveats != old.caveats:
        connection.execute("DELETE FROM caveats")
        connection.executemany(
            "INSERT INTO caveats (name, dropped) VALUES (?, ?)", new.caveats
        )
    connection.execute("DELETE FROM query_texts")
    connection.executemany(
        "INSERT OR IGNORE INTO query_texts (dataset, kind, text) VALUES (?, ?, ?)",
        _texts_of(study),
    )
    if fts5:
        connection.execute("INSERT INTO query_fts(query_fts) VALUES ('rebuild')")
