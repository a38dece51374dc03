"""Persistent cross-run structural-signature store (SQLite-backed).

The ``structure`` pass dominates study wall time, and its in-run LRU
(:class:`~repro.analysis.context.StructureCache`) already serves ~91%
of lookups — but every process starts cold, so re-analyzing a grown
corpus re-pays treewidth/hypertree/shape for shapes measured in
earlier runs.  This module persists the signature → entry map across
runs:

* :class:`StructureStore` — the SQLite backend.  WAL journal with
  ``synchronous=NORMAL`` (safe for concurrent reader processes while a
  parent writes), schema-versioned via ``PRAGMA user_version``, keyed
  by ``(signature hash, kind, code_version)``.  The code version is a
  digest of the classifier sources, so entries written by an older
  shape/treewidth/hypertree implementation are simply never served —
  no manual invalidation step exists or is needed.
* :class:`StoreBackedStructureCache` — the in-process layer: a normal
  bounded LRU that falls back to the store on miss and records fresh
  computations as *pending* rows for a later batch flush.

Concurrency model (matching :mod:`repro.analysis.parallel`): workers
attach **read-only**; only the parent — or a serial run — writes, in
batches at chunk boundaries, with ``INSERT OR IGNORE`` upserts so
concurrent or repeated flushes of the same signature are harmless.

The store is **transparent**: signature equality implies the relabeled
structures are identical (see :mod:`repro.analysis.context`), so a
warm run is byte-identical to a cold run, which is byte-identical to a
store-less run.  It is also **expendable**: a corrupted, truncated or
foreign file degrades to a cold run with a :class:`RuntimeWarning`,
never an exception — deleting the file is always safe.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sqlite3
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ioutils import atomic_write_text
from .context import HypertreeEntry, StructureCache, StructureEntry
from .shapes import ShapeProfile

__all__ = [
    "CODE_VERSION",
    "STORE_SCHEMA_VERSION",
    "StoreBackedStructureCache",
    "StructureStore",
    "code_version",
    "decode_entry",
    "encode_entry",
    "open_structure_cache",
    "signature_hash",
]

#: Version of the SQLite schema below, recorded in ``PRAGMA
#: user_version``.  A file carrying any other version (or none at all
#: while claiming content) is treated as unusable, not migrated.
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE entries (
    sig TEXT NOT NULL,
    kind TEXT NOT NULL,
    code_version TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (sig, kind, code_version)
) WITHOUT ROWID
"""

#: Seconds SQLite waits on a locked database before giving up.  Writes
#: are parent-only and batched, so contention is rare and short.
_BUSY_TIMEOUT = 30.0

#: The store file's sidecar metadata (informational; the database is
#: self-describing).  Written atomically on close, exercising the same
#: helper the study snapshots use.
_SIDECAR_SUFFIX = ".meta.json"


def code_version() -> str:
    """Digest of the classifier implementations feeding the store.

    Any change to the shape classifier, the treewidth/hypertree
    algorithms, the canonicalization or the signature scheme changes
    this digest, and with it the store key — entries computed by older
    code are never served to newer code (or vice versa).
    """
    digest = hashlib.sha256()
    for name in ("canonical", "context", "hypertree", "shapes", "treewidth"):
        # By module path: the package attribute ``treewidth`` is the function.
        module = importlib.import_module(f".{name}", __package__)
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()[:16]


#: The running process's code version, computed once at import.
CODE_VERSION = code_version()


# ---------------------------------------------------------------------------
# Entry codec
# ---------------------------------------------------------------------------


def signature_hash(signature: Tuple) -> str:
    """Stable hex digest of a structural signature.

    Signatures are nested tuples of ints and strings, whose ``repr``
    is injective and identical across processes — unlike ``hash()``,
    which is salted per process.
    """
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()


def encode_entry(key: Tuple, entry: object) -> Tuple[str, str, str]:
    """Encode a cache entry as a ``(kind, sig_hash, payload)`` row.

    *key* is the in-memory cache key ``(kind, signature)`` with kind
    ``"g"`` (canonical graph) or ``"h"`` (canonical hypergraph).
    """
    kind, signature = key
    if kind == "g":
        profile = entry.profile  # type: ignore[attr-defined]
        payload = {
            "shape": [
                profile.single_edge,
                profile.chain,
                profile.chain_set,
                profile.star,
                profile.tree,
                profile.forest,
                profile.cycle,
                profile.flower,
                profile.flower_set,
                profile.shortest_cycle,
            ],
            "width": entry.width,  # type: ignore[attr-defined]
            "uses_constants": entry.uses_constants,  # type: ignore[attr-defined]
        }
    elif kind == "h":
        payload = {
            "width": entry.width,  # type: ignore[attr-defined]
            "node_count": entry.node_count,  # type: ignore[attr-defined]
        }
    else:  # pragma: no cover - no third signature kind exists
        raise ValueError(f"unknown structure-cache key kind {kind!r}")
    return kind, signature_hash(signature), json.dumps(payload, separators=(",", ":"))


def decode_entry(kind: str, payload: str) -> object:
    """Inverse of :func:`encode_entry`; raises ``ValueError`` on junk."""
    try:
        data = json.loads(payload)
        if kind == "g":
            shape = data["shape"]
            single_edge, chain, chain_set, star, tree, forest = shape[:6]
            cycle, flower, flower_set, shortest_cycle = shape[6:10]
            return StructureEntry(
                profile=ShapeProfile(
                    single_edge=bool(single_edge),
                    chain=bool(chain),
                    chain_set=bool(chain_set),
                    star=bool(star),
                    tree=bool(tree),
                    forest=bool(forest),
                    cycle=bool(cycle),
                    flower=bool(flower),
                    flower_set=bool(flower_set),
                    shortest_cycle=(
                        None if shortest_cycle is None else int(shortest_cycle)
                    ),
                ),
                width=int(data["width"]),
                uses_constants=bool(data["uses_constants"]),
            )
        if kind == "h":
            return HypertreeEntry(
                width=int(data["width"]), node_count=int(data["node_count"])
            )
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise ValueError(f"undecodable {kind!r} entry: {error}") from error
    raise ValueError(f"unknown entry kind {kind!r}")


# ---------------------------------------------------------------------------
# The SQLite backend
# ---------------------------------------------------------------------------


class StructureStore:
    """One open structure-store database file.

    Construct via :meth:`open`, which returns ``None`` (after a
    :class:`RuntimeWarning`) instead of raising when the file is
    corrupt, truncated, schema-mismatched or otherwise unusable — the
    caller then simply runs cold.  Runtime SQLite errors likewise
    disable the store for the rest of the run rather than propagate.
    """

    __slots__ = ("path", "code_version", "readonly", "served", "_connection", "_failed")

    def __init__(
        self,
        connection: sqlite3.Connection,
        path: str,
        version: str,
        readonly: bool,
    ) -> None:
        self._connection = connection
        self.path = path
        self.code_version = version
        self.readonly = readonly
        #: Entries served from disk by :meth:`get` over this handle's
        #: lifetime (in-memory LRU hits never reach the store).
        self.served = 0
        self._failed = False

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: object,
        *,
        readonly: bool = False,
        version: Optional[str] = None,
    ) -> Optional["StructureStore"]:
        """Open (and, writable, initialize) the store at *path*.

        Returns ``None`` — with a :class:`RuntimeWarning` — whenever
        the file cannot serve as a store: unreadable, not SQLite, wrong
        schema version, or (read-only) simply absent.  Never raises.
        """
        resolved = str(path)
        if version is None:
            version = CODE_VERSION
        try:
            if readonly:
                uri = f"file:{Path(resolved).resolve().as_posix()}?mode=ro"
                connection = sqlite3.connect(uri, uri=True, timeout=_BUSY_TIMEOUT)
            else:
                connection = sqlite3.connect(resolved, timeout=_BUSY_TIMEOUT)
        except sqlite3.Error as error:
            _warn_degraded(resolved, f"cannot open ({error})")
            return None
        try:
            if not readonly:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
            user_version = connection.execute("PRAGMA user_version").fetchone()[0]
            has_entries = (
                connection.execute(
                    "SELECT name FROM sqlite_master"
                    " WHERE type = 'table' AND name = 'entries'"
                ).fetchone()
                is not None
            )
            if user_version == 0 and not has_entries:
                if readonly:
                    _warn_degraded(resolved, "store is not initialized")
                    connection.close()
                    return None
                connection.execute(_SCHEMA)
                connection.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION}")
                connection.commit()
            elif user_version != STORE_SCHEMA_VERSION or not has_entries:
                _warn_degraded(
                    resolved,
                    f"unsupported store schema {user_version}"
                    f" (expected {STORE_SCHEMA_VERSION})",
                )
                connection.close()
                return None
        except sqlite3.Error as error:
            _warn_degraded(resolved, f"not a usable store ({error})")
            connection.close()
            return None
        return cls(connection, resolved, version, readonly)

    def close(self) -> None:
        """Flush the sidecar metadata (writable stores) and close."""
        if not self.readonly and not self._failed:
            try:
                stats = self.stats()
                atomic_write_text(
                    self.path + _SIDECAR_SUFFIX,
                    json.dumps(
                        {
                            "store_schema": STORE_SCHEMA_VERSION,
                            "code_version": self.code_version,
                            "entries": stats["entries"],
                        },
                        indent=2,
                    )
                    + "\n",
                )
            except (sqlite3.Error, OSError):  # pragma: no cover - best effort
                pass
        try:
            self._connection.close()
        except sqlite3.Error:  # pragma: no cover - close never fails in practice
            pass

    def _fail(self, reason: str) -> None:
        """Disable the store for the rest of the run, loudly but once."""
        if not self._failed:
            self._failed = True
            _warn_degraded(self.path, reason)

    # -- reads ----------------------------------------------------------

    def get(self, key: Tuple) -> Optional[object]:
        """The decoded entry under cache key *key*; ``None`` on miss.

        A read error or an undecodable row disables the store (one
        warning) and reports a miss — the caller recomputes, so results
        are unaffected.
        """
        if self._failed:
            return None
        kind, signature = key
        try:
            row = self._connection.execute(
                "SELECT payload FROM entries"
                " WHERE sig = ? AND kind = ? AND code_version = ?",
                (signature_hash(signature), kind, self.code_version),
            ).fetchone()
        except sqlite3.Error as error:
            self._fail(f"read failed ({error})")
            return None
        if row is None:
            return None
        try:
            entry = decode_entry(kind, row[0])
        except ValueError as error:
            self._fail(str(error))
            return None
        self.served += 1
        return entry

    # -- writes ---------------------------------------------------------

    def put_many(self, rows: Sequence[Tuple[str, str, str]]) -> None:
        """Upsert encoded ``(kind, sig_hash, payload)`` rows in one batch.

        ``INSERT OR IGNORE`` keeps concurrent flushes of the same
        signature (two workers measuring the same shape in different
        chunks) harmless: first write wins, and both writes carry the
        identical payload anyway.
        """
        if not rows or self.readonly or self._failed:
            return
        try:
            self._connection.executemany(
                "INSERT OR IGNORE INTO entries"
                " (sig, kind, code_version, payload) VALUES (?, ?, ?, ?)",
                [
                    (sig_hash, kind, self.code_version, payload)
                    for kind, sig_hash, payload in rows
                ],
            )
            self._connection.commit()
        except sqlite3.Error as error:
            self._fail(f"write failed ({error})")

    def clear(self) -> int:
        """Delete every entry (all code versions); returns the count."""
        cursor = self._connection.execute("DELETE FROM entries")
        self._connection.commit()
        return cursor.rowcount

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Entry counts by kind and staleness, plus file-level facts."""
        per_kind = {"g": 0, "h": 0}
        total = 0
        current = 0
        for kind, entry_version, count in self._connection.execute(
            "SELECT kind, code_version, COUNT(*) FROM entries"
            " GROUP BY kind, code_version"
        ):
            total += count
            if entry_version == self.code_version:
                current += count
                if kind in per_kind:
                    per_kind[kind] += count
        try:
            size = os.path.getsize(self.path)
        except OSError:  # pragma: no cover - file vanished mid-run
            size = 0
        return {
            "path": self.path,
            "store_schema": STORE_SCHEMA_VERSION,
            "code_version": self.code_version,
            "entries": total,
            "current": current,
            "stale": total - current,
            "graph_entries": per_kind["g"],
            "hypergraph_entries": per_kind["h"],
            "size_bytes": size,
        }


def _warn_degraded(path: str, reason: str) -> None:
    warnings.warn(
        f"structure cache {path}: {reason}; continuing without the "
        "persistent store (cold run, results unaffected)",
        RuntimeWarning,
        stacklevel=3,
    )


# ---------------------------------------------------------------------------
# The in-process layer
# ---------------------------------------------------------------------------


class StoreBackedStructureCache(StructureCache):
    """A :class:`StructureCache` LRU with a persistent second level.

    Lookups try the in-memory LRU first, then the store; store hits
    are promoted into the LRU (and counted in :attr:`store_hits`, the
    delta profiled runs report).  Fresh computations are recorded as
    pending rows — drained via :meth:`take_pending` by whichever
    process owns a writable handle — so read-only workers still
    contribute their discoveries through the parent's batch flush.

    A ``store`` of ``None`` (the degraded-open case) makes this class
    behave exactly like its base: transparent either way.
    """

    __slots__ = ("store", "store_hits", "_pending")

    def __init__(self, capacity: int, store: Optional[StructureStore]) -> None:
        super().__init__(capacity)
        self.store = store
        self.store_hits = 0
        self._pending: List[Tuple[str, str, str]] = []

    @property
    def enabled(self) -> bool:
        """Whether lookups can ever succeed (LRU capacity or a store)."""
        return self.capacity > 0 or self.store is not None

    def get(self, key: Tuple) -> Optional[object]:
        """LRU first, then the persistent store (promoting on hit)."""
        entry = super().get(key)
        if entry is not None or self.store is None:
            return entry
        stored = self.store.get(key)
        if stored is None:
            return None
        self.store_hits += 1
        # Promote via the base class: a store-served entry is not a
        # fresh discovery, so it must not re-enter the pending queue.
        StructureCache.put(self, key, stored)
        return stored

    def put(self, key: Tuple, entry: object) -> None:
        """Store in the LRU and queue the row for the next batch flush."""
        StructureCache.put(self, key, entry)
        if self.store is not None:
            self._pending.append(encode_entry(key, entry))

    def take_pending(self) -> List[Tuple[str, str, str]]:
        """Drain the pending encoded rows (ownership passes to caller)."""
        pending, self._pending = self._pending, []
        return pending

    def flush(self) -> None:
        """Write pending rows through a writable store, if any."""
        if self.store is not None and not self.store.readonly:
            self.store.put_many(self.take_pending())

    def close(self) -> None:
        """Flush and close the underlying store handle."""
        self.flush()
        if self.store is not None:
            self.store.close()
            self.store = None


# ---------------------------------------------------------------------------
# Driver helpers
# ---------------------------------------------------------------------------


def open_structure_cache(options: Any, *, readonly: bool = False) -> StructureCache:
    """The structural cache a driver (or pool worker) should use.

    Plain LRU when ``options.structure_cache_path`` is unset; otherwise
    a :class:`StoreBackedStructureCache` over the store at that path —
    opened read-only for workers, writable for serial runs and parents.
    A failed open degrades to the plain-LRU behavior.
    """
    path = getattr(options, "structure_cache_path", None)
    if path is None:
        return StructureCache(options.cache_size)
    store = StructureStore.open(path, readonly=readonly)
    return StoreBackedStructureCache(options.cache_size, store)
