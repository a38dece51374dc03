"""The log-processing pipeline of the paper's §2.

Raw log entries go through three stages:

1. **Cleaning** — entries that are not queries (HTTP requests without a
   ``query=`` parameter, junk lines) are dropped; the survivors make up
   the *Total* column of Table 1.
2. **Parsing** — each candidate query is parsed; parse failures are
   counted, and the parseable queries form the *Valid* column.  (The
   paper used Apache Jena 3.0.1; we use :mod:`repro.sparql`.)
3. **Deduplication** — exact duplicates are removed, yielding the
   *Unique* column on which the paper's main-body analysis runs.

The pipeline is built around the mergeable :class:`LogShard`
accumulator: one shard is the result of running clean → parse → dedup
over a slice of the raw stream, and :meth:`LogShard.merge` combines
shards so the stream can be processed in chunks (possibly on several
worker processes, see :mod:`repro.analysis.parallel`) without changing
the result.  Deduplication is two-phase: each shard keeps a
text → count map, and the maps are merged before the unique stream is
materialized.

The :class:`QueryLog` produced here is the input to every analysis in
:mod:`repro.analysis.study`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..exceptions import SparqlSyntaxError
from ..rdf.namespaces import WELL_KNOWN_PREFIXES
from ..sparql import ast, parse_query

if TYPE_CHECKING:  # pragma: no cover - typing only; logs never imports analysis
    from ..analysis.streaks import StreakAccumulator

__all__ = [
    "ParsedQuery",
    "ParseCache",
    "LogShard",
    "QueryLog",
    "build_query_log",
    "process_entries",
]


@dataclass(frozen=True)
class ParsedQuery:
    """A parsed query together with its raw text and multiplicity."""

    text: str
    query: ast.Query
    count: int  # occurrences in the Valid stream


class ParseCache:
    """Parse-result cache keyed by query text.

    Real endpoint logs are extremely duplicate-heavy (the paper's Valid
    vs Unique gap in Table 1), so re-parsing the same text is the main
    avoidable cost of the pipeline.  One instance is shared across all
    chunks and datasets of an in-process run (the ingest driver keeps
    one per run; pool workers keep one per prefix environment), or
    across several :func:`process_entries` calls by hand.  Entries are
    keyed by text only, so all calls must use the same prefix
    environment; the cache pins the environment of its first parse and
    raises on a mismatch rather than returning ASTs parsed under the
    wrong prefixes.
    """

    __slots__ = ("_entries", "_prefixes", "_last_prefixes_obj", "hits", "misses")

    def __init__(self) -> None:
        self._entries: Dict[str, Optional[ast.Query]] = {}
        self._prefixes: Optional[Dict[str, str]] = None
        self._last_prefixes_obj: Optional[Dict[str, str]] = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, text: str) -> bool:
        return text in self._entries

    def parse(
        self, text: str, prefixes: Optional[Dict[str, str]] = None
    ) -> Optional[ast.Query]:
        """Parse *text* (``None`` for invalid queries), memoized."""
        if prefixes is not self._last_prefixes_obj:
            # One full comparison per distinct mapping object; streams
            # passing the same dict repeatedly take the identity path.
            if self._prefixes is None:
                self._prefixes = dict(prefixes) if prefixes else {}
            elif (prefixes or {}) != self._prefixes:
                raise ValueError(
                    "ParseCache is shared across different prefix environments; "
                    "use a fresh cache per prefix mapping"
                )
            self._last_prefixes_obj = prefixes
        try:
            cached = self._entries[text]
        except KeyError:
            self.misses += 1
        else:
            self.hits += 1
            return cached
        try:
            result: Optional[ast.Query] = parse_query(text, extra_prefixes=prefixes)
        except SparqlSyntaxError:
            result = None
        self._entries[text] = result
        return result


@dataclass
class LogShard:
    """Mergeable partial result of the clean → parse → dedup pipeline.

    ``order`` records the first-occurrence order of unique valid texts,
    ``counts`` their multiplicities, and ``parsed`` their ASTs.  Merging
    two shards (in stream order) yields exactly the shard the serial
    pipeline would have produced over the concatenated input.
    """

    total: int = 0
    valid: int = 0
    order: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    parsed: Dict[str, ast.Query] = field(default_factory=dict)
    #: The streak scan (Table 6) of this slice of the *raw* entry
    #: stream; ``None`` unless ``streaks`` is selected.
    streaks: Optional["StreakAccumulator"] = None

    def merge(self, other: "LogShard") -> "LogShard":
        """Fold *other* (the next slice of the stream) into this shard."""
        self.total += other.total
        self.valid += other.valid
        for text in other.order:
            if text not in self.parsed:
                self.parsed[text] = other.parsed[text]
                self.order.append(text)
        for text, count in other.counts.items():
            self.counts[text] = self.counts.get(text, 0) + count
        if self.streaks is None:
            self.streaks = other.streaks
        elif other.streaks is not None:
            self.streaks.merge(other.streaks)
        return self

    def to_query_log(self, name: str) -> "QueryLog":
        """Materialize the Table 1 view of this shard."""
        log = QueryLog(
            name=name, total=self.total, valid=self.valid, streaks=self.streaks
        )
        for text in self.order:
            log.parsed.append(
                ParsedQuery(text=text, query=self.parsed[text], count=self.counts[text])
            )
        return log


@dataclass
class QueryLog:
    """One dataset's processed log with Table 1 counters."""

    name: str
    total: int = 0
    valid: int = 0
    parsed: List[ParsedQuery] = field(default_factory=list)
    #: The streak scan over this log's ordered raw stream
    #: (``repro.analysis.study`` copies it onto the dataset stats, like
    #: the Table 1 counters).  ``None`` unless ingestion ran with
    #: ``streaks`` selected.
    streaks: Optional["StreakAccumulator"] = None

    @property
    def unique(self) -> int:
        """Number of unique valid queries (Table 1's Unique column)."""
        return len(self.parsed)

    def unique_queries(self) -> Iterable[ParsedQuery]:
        """The deduplicated stream (main-body analyses)."""
        return iter(self.parsed)

    def valid_queries(self) -> Iterable[ParsedQuery]:
        """The duplicate-retaining stream (appendix analyses): each
        unique query repeated ``count`` times."""
        for parsed in self.parsed:
            for _ in range(parsed.count):
                yield parsed

    def summary_row(self) -> Tuple[str, int, int, int]:
        """The dataset's Table 1 row: (name, total, valid, unique)."""
        return (self.name, self.total, self.valid, self.unique)


def process_entries(
    raw_queries: Iterable[str],
    extra_prefixes: Optional[Dict[str, str]] = None,
    cache: Optional[ParseCache] = None,
) -> LogShard:
    """Run clean → parse → dedup over one slice of the raw stream.

    Endpoints pre-declare common prefixes, so parsing uses
    :data:`~repro.rdf.namespaces.WELL_KNOWN_PREFIXES` (plus
    *extra_prefixes*) before declaring an entry invalid.
    """
    shard = LogShard()
    prefixes = dict(WELL_KNOWN_PREFIXES)
    if extra_prefixes:
        prefixes.update(extra_prefixes)
    if cache is None:
        cache = ParseCache()
    for text in raw_queries:
        shard.total += 1
        query = cache.parse(text, prefixes)
        if query is None:
            continue
        shard.valid += 1
        if text not in shard.counts:
            shard.order.append(text)
            shard.parsed[text] = query
            shard.counts[text] = 1
        else:
            shard.counts[text] += 1
    return shard


def build_query_log(
    name: str,
    raw_queries: Iterable[str],
    extra_prefixes: Optional[Dict[str, str]] = None,
    *,
    cache: Optional[ParseCache] = None,
) -> QueryLog:
    """Run the clean → parse → dedup pipeline over raw query texts.

    *raw_queries* is the post-cleaning stream (strings that look like
    queries) and may be a one-shot lazy iterator, e.g. from
    :func:`repro.logs.sources.iter_entries`; it is consumed
    incrementally, in-process.  Entries failing to parse count toward
    Total but not Valid.  For chunked, bounded-memory or multi-worker
    ingestion of whole corpora use
    :func:`repro.analysis.parallel.build_query_logs_parallel`.
    """
    return process_entries(raw_queries, extra_prefixes, cache).to_query_log(name)
