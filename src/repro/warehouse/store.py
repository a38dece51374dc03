"""The SQLite-backed study warehouse.

Storage layout (one file, WAL journal, ``synchronous=NORMAL``,
schema-versioned via ``PRAGMA user_version``):

* ``meta`` — key/value header: the warehouse kind tag, the corpus
  flavour, the ingest generation counter, the FTS mode.
* ``ingests`` — the append ledger: one row per distinct study
  digest ever written.  Merging a byte-equivalent study again hits
  the digest and is a no-op, which is what makes writes idempotent;
  so is replacing a part with the study it holds.
* ``parts`` — the source of truth: study snapshot documents (the
  codec ``save_study`` writes, as compact JSON; older indented bodies
  load the same), one per owner.  Snapshot ingests merge into the
  part owned by ``''``; a ``repro watch`` session replaces its own.
  Reports render the fold of the parts in ``seq`` (first write)
  order through the reporter registry, byte-identical to ``repro
  report`` over the equivalently merged snapshot.  A handle caches
  the decoded parts per generation, and its own writes leave what
  they wrote as that cache, so a long-lived writer never decodes
  them again unless another handle wrote in between.
* ``datasets`` / ``cells`` / ``streaks`` / ``caveats`` — indexed
  derived tables, brought to the fold's rows inside each write's
  transaction: per-dataset pipeline counters, every measurement cell
  of the paper's tables in the long format of
  :func:`repro.reporting.reporters.study_long_rows`, streak-length
  histograms, and coverage-caveat counters.  A write changes only the
  rows that differ from the previous generation's, which the handle
  keeps from its own last write (or reads back when another handle
  wrote since); :mod:`repro.warehouse.derived` has the rules.  Queries
  over these never touch the study document, let alone re-run any
  analysis.
* ``query_texts`` (+ ``query_fts``, FTS5) — the query texts a study
  carries (non-Ctract property-path samples, streak head/tail texts),
  full-text indexed for ``/search``; rebuilt whole at each write.

The warehouse is *data*, not a cache: every failure (corrupt file,
foreign or future schema, incompatible ingest) raises a typed
:class:`~repro.exceptions.WarehouseError` naming the problem, and a
failed write rolls back, leaving the previous state intact (the
handle's cached parts included).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.snapshot import encode_study, study_from_dict
from ..analysis.study import CorpusStudy
from ..exceptions import StudySnapshotError, WarehouseError
from ..reporting.reporters import render_report, study_long_rows
from ..reporting.tables import REPORT_SECTIONS, render_text

if TYPE_CHECKING:
    from .derived import DerivedRows

__all__ = [
    "TABLE_SECTIONS",
    "WAREHOUSE_KIND",
    "WAREHOUSE_SCHEMA_VERSION",
    "StudyWarehouse",
    "snapshot_digest",
]

#: The ``meta.kind`` tag every warehouse carries; a SQLite file
#: without it is some other application's database, not ours.
WAREHOUSE_KIND = "repro.study_warehouse"

#: Each entry migrates the schema one version forward; entry ``i``
#: brings ``user_version`` ``i`` to ``i + 1``.  Append — never edit —
#: to evolve the schema: existing warehouses replay only the suffix.
_MIGRATIONS: List[List[str]] = [
    # 0 -> 1: the initial layout.
    [
        "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
        """
        CREATE TABLE ingests (
            seq INTEGER PRIMARY KEY,
            digest TEXT NOT NULL UNIQUE,
            source TEXT NOT NULL,
            datasets TEXT NOT NULL,
            queries INTEGER NOT NULL
        )
        """,
        "CREATE TABLE study (id INTEGER PRIMARY KEY CHECK (id = 1), body TEXT NOT NULL)",
        """
        CREATE TABLE datasets (
            name TEXT PRIMARY KEY,
            total INTEGER NOT NULL,
            valid INTEGER NOT NULL,
            unique_queries INTEGER NOT NULL,
            analyzed INTEGER NOT NULL,
            select_ask INTEGER NOT NULL,
            triple_sum INTEGER NOT NULL,
            streak_count INTEGER,
            longest_streak INTEGER
        )
        """,
        """
        CREATE TABLE cells (
            section TEXT NOT NULL,
            row TEXT NOT NULL,
            col TEXT NOT NULL,
            value TEXT NOT NULL,
            PRIMARY KEY (section, row, col)
        ) WITHOUT ROWID
        """,
        # Keeps its implicit rowid: histogram buckets render in
        # insertion order, and rowid is the cheapest way to keep it.
        """
        CREATE TABLE streaks (
            dataset TEXT NOT NULL,
            bucket TEXT NOT NULL,
            count INTEGER NOT NULL,
            UNIQUE (dataset, bucket)
        )
        """,
        "CREATE TABLE caveats (name TEXT PRIMARY KEY, dropped INTEGER NOT NULL)",
        """
        CREATE TABLE query_texts (
            id INTEGER PRIMARY KEY,
            dataset TEXT NOT NULL,
            kind TEXT NOT NULL,
            text TEXT NOT NULL,
            UNIQUE (dataset, kind, text)
        )
        """,
    ],
    # 1 -> 2: one study part per owner; the study is the snapshot part.
    [
        "CREATE TABLE parts (seq INTEGER PRIMARY KEY,"
        " owner TEXT NOT NULL UNIQUE, body TEXT NOT NULL)",
        "INSERT INTO parts (owner, body) SELECT '', body FROM study",
        "DROP TABLE study",
    ],
]

#: Version of the current schema, recorded in ``PRAGMA user_version``.
WAREHOUSE_SCHEMA_VERSION = len(_MIGRATIONS)

#: The paper's table numbers mapped to the cell sections that hold
#: their measurements (Table 4 repeats per fragment).
TABLE_SECTIONS: Dict[int, Tuple[str, ...]] = {
    1: ("table1",),
    2: ("table2",),
    3: ("table3",),
    4: ("table4:CQ", "table4:CQF", "table4:CQOF"),
    5: ("table5",),
    6: ("table6",),
}

#: Seconds SQLite waits on a locked database before giving up (the
#: service reads while an ingest writes; WAL keeps both moving).
_BUSY_TIMEOUT = 30.0


def snapshot_digest(data: Dict[str, Any]) -> str:
    """Content digest of a study snapshot document (the ingest key).

    Computed over the compact canonical JSON of the snapshot dict —
    byte-equivalent studies (same counters, same insertion order)
    digest equal no matter which file or machine they came from.  The
    ``pass_profile`` (wall-clock timings, different on every profiled
    run) hashes as ``null``, so a re-shipped profiled snapshot is
    recognised too; unprofiled digests are unaffected.
    """
    if data.get("pass_profile") is not None:
        data = {**data, "pass_profile": None}
    canonical = json.dumps(data, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: The ``datasets`` columns a dataset row is served from, and the keys
#: it is served under (same order).
_DATASET_COLUMNS = (
    "name, total, valid, unique_queries, analyzed,"
    " select_ask, triple_sum, streak_count, longest_streak"
)
_DATASET_KEYS = (
    "name", "total", "valid", "unique", "analyzed",
    "select_ask", "triple_sum", "streak_count", "longest_streak",
)


#: One cell of the long format: (section, row, column, value).
_LongRow = Tuple[str, str, str, str]


def _decode_study(path: str, body: str) -> CorpusStudy:
    """Decode a stored study part of the warehouse at *path*."""
    try:
        return study_from_dict(json.loads(body))
    except (StudySnapshotError, json.JSONDecodeError) as error:
        raise WarehouseError(
            f"{path}: stored study document is unreadable ({error})"
        ) from error


def _fold(parts: Dict[str, CorpusStudy]) -> CorpusStudy:
    """*parts* merged in order; a lone part is served as it is."""
    first, *rest = parts.values()
    if not rest:
        return first
    folded = CorpusStudy(dedup=first.dedup)
    for part in parts.values():
        folded.merge(part)
    return folded


class StudyWarehouse:
    """One open study-warehouse database file.

    Construct via :meth:`open`; usable as a context manager.  All
    methods raise :class:`~repro.exceptions.WarehouseError` on
    warehouse-level problems — never a bare ``sqlite3`` error.
    """

    def __init__(self, connection: sqlite3.Connection, path: str, readonly: bool) -> None:
        self._connection = connection
        self.path = path
        self.readonly = readonly
        #: (generation, decoded parts by owner in fold order, their fold).
        self._cache: Optional[Tuple[int, Dict[str, CorpusStudy], Optional[CorpusStudy]]] = None
        #: (generation, the derived rows this handle wrote for it).
        self._derived: Optional[Tuple[int, DerivedRows]] = None
        #: (study, its long rows) a caller handed to the running write.
        self._flat: Optional[Tuple[CorpusStudy, Sequence[_LongRow]]] = None

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def open(
        cls, path: Union[str, Path], *, readonly: bool = False
    ) -> "StudyWarehouse":
        """Open (and, writable, create/migrate) the warehouse at *path*.

        Read-only handles require an existing, initialized warehouse.
        Raises :class:`~repro.exceptions.WarehouseError` when the file
        is not a study warehouse: corrupt, foreign, or written by a
        newer schema than this build knows.
        """
        resolved = str(path)
        try:
            if readonly:
                if not Path(resolved).exists():
                    raise WarehouseError(f"{resolved}: no such warehouse")
                uri = f"file:{Path(resolved).resolve().as_posix()}?mode=ro"
                # The HTTP service shares one read-only handle across
                # request threads, serialized by its own lock.
                connection = sqlite3.connect(
                    uri, uri=True, timeout=_BUSY_TIMEOUT, check_same_thread=False
                )
            else:
                connection = sqlite3.connect(resolved, timeout=_BUSY_TIMEOUT)
        except sqlite3.Error as error:
            raise WarehouseError(f"{resolved}: cannot open ({error})") from error
        try:
            if not readonly:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
            version = connection.execute("PRAGMA user_version").fetchone()[0]
            has_tables = (
                connection.execute(
                    "SELECT name FROM sqlite_master"
                    " WHERE type = 'table' AND name = 'meta'"
                ).fetchone()
                is not None
            )
            if version == 0 and not has_tables:
                if (
                    connection.execute(
                        "SELECT name FROM sqlite_master WHERE type = 'table'"
                    ).fetchone()
                    is not None
                ):
                    raise WarehouseError(
                        f"{resolved}: not a study warehouse "
                        "(a foreign SQLite database)"
                    )
                if readonly:
                    raise WarehouseError(f"{resolved}: warehouse is not initialized")
            elif version > WAREHOUSE_SCHEMA_VERSION or not has_tables:
                raise WarehouseError(
                    f"{resolved}: unsupported warehouse schema {version} "
                    f"(this build reads versions 1..{WAREHOUSE_SCHEMA_VERSION})"
                )
            elif readonly and version < WAREHOUSE_SCHEMA_VERSION:
                raise WarehouseError(
                    f"{resolved}: warehouse schema {version} is too old; open it "
                    "for writing once (any `repro warehouse ingest`) to migrate it"
                )
            if not readonly:
                cls._migrate(connection, version)
            kind_row = connection.execute(
                "SELECT value FROM meta WHERE key = 'kind'"
            ).fetchone()
            if kind_row is None or kind_row[0] != WAREHOUSE_KIND:
                raise WarehouseError(
                    f"{resolved}: not a study warehouse "
                    f"(kind {kind_row[0] if kind_row else None!r})"
                )
        except sqlite3.Error as error:
            connection.close()
            raise WarehouseError(
                f"{resolved}: not a usable warehouse ({error})"
            ) from error
        except WarehouseError:
            connection.close()
            raise
        return cls(connection, resolved, readonly)

    @classmethod
    def _migrate(cls, connection: sqlite3.Connection, version: int) -> None:
        """Replay the migration suffix from *version* to current."""
        for target, statements in enumerate(_MIGRATIONS[version:], start=version + 1):
            with connection:
                for statement in statements:
                    connection.execute(statement)
                connection.execute(f"PRAGMA user_version = {target}")
        if version == 1 and connection.execute(
            "SELECT MIN(substr(source, 1, 6) = 'watch:') FROM ingests"
        ).fetchone()[0]:
            # Only watch sessions fed this file, each merging its cycle
            # deltas into the study the 1 -> 2 step made the snapshot
            # part.  A session now stores its whole study as its own
            # part, so that one would count everything twice: its next
            # write brings the study back.
            with connection:
                connection.execute("DELETE FROM parts WHERE owner = ''")
                for table in ("datasets", "cells", "streaks", "caveats", "query_texts"):
                    connection.execute(f"DELETE FROM {table}")
                if connection.execute(
                    "SELECT value FROM meta WHERE key = 'fts'"
                ).fetchone() == ("fts5",):
                    connection.execute(
                        "INSERT INTO query_fts(query_fts) VALUES ('rebuild')"
                    )
        if version == 0:
            with connection:
                fts = "fts5"
                try:
                    connection.execute(
                        "CREATE VIRTUAL TABLE query_fts USING fts5("
                        "text, content='query_texts', content_rowid='id')"
                    )
                except sqlite3.OperationalError:  # pragma: no cover - no FTS5
                    fts = "like"
                connection.executemany(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    [("kind", WAREHOUSE_KIND), ("generation", "0"), ("fts", fts)],
                )

    def close(self) -> None:
        """Close the database handle (idempotent)."""
        try:
            self._connection.close()
        except sqlite3.Error:  # pragma: no cover - close never fails in practice
            pass

    def __enter__(self) -> "StudyWarehouse":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- small helpers --------------------------------------------------

    def _meta(self, key: str, default: Optional[str] = None) -> Optional[str]:
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else row[0]

    @property
    def generation(self) -> int:
        """Number of state-changing writes so far (cache key)."""
        return int(self._meta("generation", "0"))

    def _guard(self, error: sqlite3.Error) -> "WarehouseError":
        return WarehouseError(f"{self.path}: warehouse query failed ({error})")

    # -- writes ---------------------------------------------------------

    def ingest(self, study: CorpusStudy, *, source: str = "<memory>") -> str:
        """Merge *study* into the snapshot part; returns ``"merged"`` or
        ``"unchanged"``.

        The upsert is :meth:`CorpusStudy.merge`, so
        ``ingest(a); ingest(b)`` leaves exactly the state of
        ``ingest(merge(a, b))``, and re-ingesting a byte-equivalent
        snapshot (same content digest) is a no-op — shard files can be
        re-shipped safely.  Everything — ledger row, part, derived
        tables, FTS index — commits in one transaction; incompatible
        studies (corpus flavour, streak parameters) raise
        :class:`~repro.exceptions.WarehouseError` before anything is
        written.
        """
        return self._write("", study, source, True, encode_study(study), None)

    def replace_part(
        self,
        owner: str,
        study: CorpusStudy,
        *,
        source: str,
        body: str,
        rows: Sequence[_LongRow],
    ) -> str:
        """Store *study* as the part of *owner* (a ``repro watch``
        session), keeping the part's place in the fold; returns
        ``"replaced"`` or ``"unchanged"`` (the owner's part already
        holds this study).

        *body* is *study*'s :func:`~repro.analysis.snapshot.encode_study`
        text and *rows* its :func:`~repro.reporting.reporters.study_long_rows`,
        which the caller has at hand: the write stores and digests the
        body, and a lone part's rows are the ``cells``.  Commits like
        :meth:`ingest`.  The handle keeps *study* itself as the decoded
        part: the caller must not change it afterwards.
        """
        return self._write(owner, study, source, False, body, rows)

    def _write(
        self,
        owner: str,
        study: CorpusStudy,
        source: str,
        merge: bool,
        body: str,
        rows: Optional[Sequence[_LongRow]],
    ) -> str:
        if self.readonly:
            raise WarehouseError(f"{self.path}: warehouse opened read-only")
        # Unprofiled, the body is the text snapshot_digest hashes.
        digest = (
            hashlib.sha256(body.encode("utf-8")).hexdigest()
            if study.pass_profile is None
            else snapshot_digest(json.loads(body))
        )
        try:
            known = self._connection.execute(
                "SELECT 1 FROM ingests WHERE digest = ?", (digest,)
            ).fetchone() is not None
            # A known study is merged already; a replaced part may be
            # missing or hold another study (a migrated warehouse).
            if known and (
                merge
                or self._connection.execute(
                    "SELECT body = ? FROM parts WHERE owner = ?", (body, owner)
                ).fetchone() == (1,)
            ):
                return "unchanged"
        except sqlite3.Error as error:
            raise self._guard(error) from error
        parts = dict(self._parts())
        # The merge below mutates the cached snapshot part in place, so
        # the cache is dropped until the commit: a failed merge or write
        # must not leave a half-merged part behind it.
        self._cache = None
        try:
            part = study
            if merge:
                part = parts.get(owner, CorpusStudy(dedup=study.dedup)).merge(study)
                body = encode_study(part)
            parts[owner] = part
            folded = _fold(parts)
        except ValueError as error:
            raise WarehouseError(f"cannot ingest {source}: {error}") from error
        self._flat = None if rows is None else (study, rows)
        try:
            with self._connection:
                self._connection.execute(
                    "INSERT OR IGNORE INTO ingests (digest, source, datasets, queries)"
                    " VALUES (?, ?, ?, ?)",
                    (
                        digest,
                        source,
                        json.dumps(list(study.datasets)),
                        study.query_count,
                    ),
                )
                self._connection.execute(
                    "INSERT INTO parts (owner, body) VALUES (?, ?)"
                    " ON CONFLICT (owner) DO UPDATE SET body = excluded.body",
                    (owner, body),
                )
                derived = self._rebuild_derived(folded)
                generation = self.generation + 1
                self._connection.execute(
                    "UPDATE meta SET value = ? WHERE key = 'generation'",
                    (str(generation),),
                )
        except sqlite3.Error as error:
            self._derived = None
            raise self._guard(error) from error
        finally:
            self._flat = None
        # The parts are what the stored bodies decode to, and the
        # derived rows what the tables hold: they become the cache of
        # the new generation.
        self._cache = (generation, parts, folded)
        self._derived = (generation, derived)
        return "merged" if merge else "replaced"

    def _rebuild_derived(self, study: CorpusStudy) -> DerivedRows:
        """Bring the derived tables to *study*, the new fold (caller
        holds the transaction); returns its derived rows.

        Only rows that differ from the current generation's are
        written (:mod:`repro.warehouse.derived`): the rows this handle
        wrote for it or, when another handle wrote since, the rows the
        tables hold.
        """
        # Only writes need the derived-row model: read-only handles
        # (``repro serve``) never import it.
        from .derived import derived_rows, read_rows, write_rows

        kept = self._derived
        if kept is not None and kept[0] == self.generation:
            old = kept[1]
        else:
            old = read_rows(self._connection)
        flat = self._flat
        rows = flat[1] if flat is not None and flat[0] is study else study_long_rows(study)
        new = derived_rows(study, rows)
        write_rows(self._connection, old, new, study, self._meta("fts") == "fts5")
        return new

    # -- the served study -----------------------------------------------

    def _parts(self) -> Dict[str, CorpusStudy]:
        """The stored parts by owner, in fold (``seq``) order, decoded
        once per generation."""
        generation = self.generation
        if self._cache is None or self._cache[0] != generation:
            try:
                rows = self._connection.execute(
                    "SELECT owner, body FROM parts ORDER BY seq"
                ).fetchall()
            except sqlite3.Error as error:
                raise self._guard(error) from error
            parts = {owner: _decode_study(self.path, body) for owner, body in rows}
            self._cache = (generation, parts, _fold(parts) if parts else None)
        return self._cache[1]

    def study(self) -> Optional[CorpusStudy]:
        """The served study, the fold of the parts, or ``None`` for an
        empty warehouse (cached per generation, like the parts)."""
        self._parts()
        return self._cache[2]

    def _require_study(self) -> CorpusStudy:
        study = self.study()
        if study is None:
            raise WarehouseError(
                f"{self.path}: warehouse is empty (nothing ingested yet)"
            )
        return study

    def render(self, format: str = "text") -> str:
        """The full report in *format*, through the reporter registry.

        Byte-identical to ``repro report`` over the equivalently merged
        snapshot — the warehouse serves exactly the fold of its parts."""
        return render_report(self._require_study(), format)

    def table_text(self, table: int) -> str:
        """Table *table* (1–6) as its text-report block.

        The block is the report section ``table{N}`` rendered as text,
        so it is a byte-exact slice of the full text report."""
        section = REPORT_SECTIONS.get(f"table{table}")
        if section is None:
            raise WarehouseError(f"no such table {table} (the paper has tables 1-6)")
        blocks = section(self._require_study())
        if not blocks:
            raise WarehouseError(
                "table 6 has no data: no ingested study ran the streaks metric"
            )
        return render_text(blocks)

    # -- indexed queries ------------------------------------------------

    def datasets(
        self, *, limit: int = 50, offset: int = 0
    ) -> Tuple[int, List[Dict[str, Any]]]:
        """Per-dataset pipeline counters, paginated (total, items)."""
        try:
            total = self._connection.execute(
                "SELECT COUNT(*) FROM datasets"
            ).fetchone()[0]
            rows = self._connection.execute(
                f"SELECT {_DATASET_COLUMNS} FROM datasets"
                " ORDER BY rowid LIMIT ? OFFSET ?",
                (limit, offset),
            ).fetchall()
        except sqlite3.Error as error:
            raise self._guard(error) from error
        return total, [dict(zip(_DATASET_KEYS, row)) for row in rows]

    def dataset(self, name: str) -> Optional[Dict[str, Any]]:
        """One dataset's row, or ``None`` when unknown."""
        try:
            row = self._connection.execute(
                f"SELECT {_DATASET_COLUMNS} FROM datasets WHERE name = ?",
                (name,),
            ).fetchone()
        except sqlite3.Error as error:
            raise self._guard(error) from error
        return None if row is None else dict(zip(_DATASET_KEYS, row))

    def table_cells(
        self,
        table: int,
        *,
        dataset: Optional[str] = None,
        limit: int = 50,
        offset: int = 0,
    ) -> Tuple[int, List[Dict[str, str]]]:
        """Table *table*'s measurement cells, paginated (total, items).

        Tables 1 and 6 are per-dataset and can be scoped with
        *dataset*; tables 2–5 are corpus-wide (the scope is ignored
        beyond validating the dataset exists — callers do that)."""
        sections = TABLE_SECTIONS.get(table)
        if sections is None:
            raise WarehouseError(f"no such table {table} (the paper has tables 1-6)")
        where = f"section IN ({', '.join('?' for _ in sections)})"
        arguments: List[Any] = list(sections)
        if dataset is not None and table == 1:
            where += " AND row = ?"
            arguments.append(dataset)
        elif dataset is not None and table == 6:
            where += " AND col = ?"
            arguments.append(dataset)
        try:
            total = self._connection.execute(
                f"SELECT COUNT(*) FROM cells WHERE {where}", arguments
            ).fetchone()[0]
            rows = self._connection.execute(
                f"SELECT section, row, col, value FROM cells WHERE {where}"
                " ORDER BY section, row, col LIMIT ? OFFSET ?",
                [*arguments, limit, offset],
            ).fetchall()
        except sqlite3.Error as error:
            raise self._guard(error) from error
        items = [
            {"section": section, "row": row, "column": col, "value": value}
            for section, row, col, value in rows
        ]
        return total, items

    def streak_histograms(
        self, *, limit: int = 50, offset: int = 0
    ) -> Tuple[int, List[Dict[str, Any]]]:
        """Per-dataset streak digests, paginated (total, items)."""
        try:
            total = self._connection.execute(
                "SELECT COUNT(*) FROM datasets WHERE streak_count IS NOT NULL"
            ).fetchone()[0]
            names = self._connection.execute(
                "SELECT name, streak_count, longest_streak FROM datasets"
                " WHERE streak_count IS NOT NULL"
                " ORDER BY rowid LIMIT ? OFFSET ?",
                (limit, offset),
            ).fetchall()
            items = []
            for name, count, longest in names:
                histogram = {
                    bucket: bucket_count
                    for bucket, bucket_count in self._connection.execute(
                        "SELECT bucket, count FROM streaks WHERE dataset = ?"
                        " ORDER BY rowid",
                        (name,),
                    )
                }
                items.append(
                    {
                        "dataset": name,
                        "streak_count": count,
                        "longest": longest,
                        "histogram": histogram,
                    }
                )
        except sqlite3.Error as error:
            raise self._guard(error) from error
        return total, items

    def caveats(self) -> Dict[str, int]:
        """Coverage-caveat counters (both zero on clean corpora)."""
        try:
            rows = self._connection.execute(
                "SELECT name, dropped FROM caveats ORDER BY name"
            ).fetchall()
        except sqlite3.Error as error:
            raise self._guard(error) from error
        return {name: dropped for name, dropped in rows}

    def search(
        self, query: str, *, limit: int = 50, offset: int = 0
    ) -> Tuple[int, List[Dict[str, str]]]:
        """Full-text search over the indexed query texts.

        Uses FTS5 ``MATCH`` (phrase/boolean syntax supported) when the
        warehouse was built with FTS5, a plain substring scan
        otherwise.  A syntactically invalid FTS expression raises
        :class:`~repro.exceptions.WarehouseError`."""
        if not query.strip():
            raise WarehouseError("empty search query")
        if self._meta("fts") == "fts5":
            try:
                total = self._connection.execute(
                    "SELECT COUNT(*) FROM query_fts WHERE query_fts MATCH ?",
                    (query,),
                ).fetchone()[0]
                rows = self._connection.execute(
                    "SELECT q.dataset, q.kind, q.text"
                    " FROM query_fts f JOIN query_texts q ON q.id = f.rowid"
                    " WHERE query_fts MATCH ? ORDER BY rank, q.id"
                    " LIMIT ? OFFSET ?",
                    (query, limit, offset),
                ).fetchall()
            except sqlite3.OperationalError as error:
                raise WarehouseError(
                    f"invalid search query {query!r} ({error})"
                ) from error
            except sqlite3.Error as error:
                raise self._guard(error) from error
        else:  # pragma: no cover - builds without FTS5
            escaped = (
                query.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
            )
            pattern = f"%{escaped}%"
            try:
                total = self._connection.execute(
                    "SELECT COUNT(*) FROM query_texts"
                    " WHERE text LIKE ? ESCAPE '\\'",
                    (pattern,),
                ).fetchone()[0]
                rows = self._connection.execute(
                    "SELECT dataset, kind, text FROM query_texts"
                    " WHERE text LIKE ? ESCAPE '\\' ORDER BY id"
                    " LIMIT ? OFFSET ?",
                    (pattern, limit, offset),
                ).fetchall()
            except sqlite3.Error as error:
                raise self._guard(error) from error
        items = [
            {"dataset": dataset, "kind": kind, "text": text}
            for dataset, kind, text in rows
        ]
        return total, items

    # -- introspection --------------------------------------------------

    def ingest_log(self) -> List[Dict[str, Any]]:
        """The append ledger: every distinct study ever written."""
        try:
            rows = self._connection.execute(
                "SELECT seq, digest, source, datasets, queries"
                " FROM ingests ORDER BY seq"
            ).fetchall()
        except sqlite3.Error as error:
            raise self._guard(error) from error
        return [
            {
                "seq": seq,
                "digest": digest,
                "source": source,
                "datasets": json.loads(datasets),
                "queries": queries,
            }
            for seq, digest, source, datasets, queries in rows
        ]

    def stats(self) -> Dict[str, Any]:
        """Warehouse-level facts for ``repro warehouse stats``."""
        try:
            counts = {
                table: self._connection.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
                for table in ("ingests", "datasets", "cells", "query_texts")
            }
        except sqlite3.Error as error:
            raise self._guard(error) from error
        study = self.study()
        try:
            size = os.path.getsize(self.path)
        except OSError:  # pragma: no cover - file vanished mid-run
            size = 0
        return {
            "path": self.path,
            "warehouse_schema": WAREHOUSE_SCHEMA_VERSION,
            "generation": self.generation,
            "fts": self._meta("fts", "like"),
            "corpus": (
                None if study is None else ("Unique" if study.dedup else "Valid")
            ),
            "ingests": counts["ingests"],
            "datasets": counts["datasets"],
            "cells": counts["cells"],
            "query_texts": counts["query_texts"],
            "size_bytes": size,
        }
