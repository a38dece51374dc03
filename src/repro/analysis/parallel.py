"""Sharded, streaming, multiprocessing-capable pipeline and study drivers.

The paper's headline corpus is ~180M queries; a strictly serial
clean → parse → measure pass bounds corpus size by one core — and a
driver that materializes the raw stream before sharding it bounds
corpus size by one heap.  This module does neither: the work is split
into chunks *lazily*, the chunks are executed with a bounded number in
flight (``imap``-style backpressure), and the partial results are
combined in stream order through the mergeable accumulators
(:class:`~repro.logs.pipeline.LogShard`,
:class:`~repro.analysis.study.DatasetStats`,
:class:`~repro.analysis.study.CorpusStudy`):

* :func:`build_query_logs_parallel` — clean → parse → dedup over
  chunks of raw entries.  Deduplication is two-phase: each shard
  builds its own text → count map and the maps are merged in stream
  order before the unique stream is materialized.
* :func:`study_corpus_parallel` — the full corpus study over chunks of
  the (already deduplicated) per-dataset query streams.

Both accept plain iterators — e.g. the lazy file sources of
:mod:`repro.logs.sources` — and never pull more than
``workers × _CHUNKS_PER_WORKER`` chunks of input into memory at once:
peak ingestion memory is O(workers × chunk_size), not O(log size).
(The deduplicated unique set is accumulated by design — it *is* the
result — so total memory is chunk window + unique state.)

Each driver has exactly two executors and picks one from what it can
observe — there is no option to choose:

* **in-process** when ``workers == 1`` or the input turns out to hold at
  most one chunk: chunks run in the calling process against run-local
  caches (one :class:`~repro.logs.pipeline.ParseCache`, one
  :class:`~repro.analysis.context.StructureCache`), with no pickling
  and no transport recorded;
* **pool** otherwise: chunks are submitted to a persistent
  :class:`WorkerPool` — the caller's (an
  :class:`~repro.api.AnalysisSession` keeps one), or a temporary one
  that lives for the call.

The parallel runtime itself is built from three reusable pieces:

* :class:`WorkerPool` — a persistent process pool created once (per
  :class:`~repro.api.AnalysisSession`) and reused across datasets,
  corpora and runs, so repeated runs don't pay a fork storm.  Workers
  keep *keyed* caches (parse caches per prefix environment, structure
  caches per option set) that stay warm across runs on the same pool.
* adaptive chunk sizing (:func:`adaptive_chunk_sizes`) — chunks start
  small and grow geometrically toward ~``_TARGET_CHUNKS_PER_WORKER``
  chunks per worker, so tiny corpora stay near serial cost and huge
  corpora amortize IPC.  ``workers=1`` collapses to one chunk per
  dataset; explicit ``chunk_size`` still pins a fixed size.
* compact shard transport — pool workers serialize their results
  themselves and return ``bytes``: pre-reduced payloads (counter
  deltas, streak boundary state, fully reduced partial studies — never
  the chunk's AST object graphs), with the parent counting exactly how
  many bytes each chunk shipped (:class:`TransportStats`, surfaced as
  ``PassProfile`` counters).

Chunks are always folded into one accumulator in stream order, so both
executors reproduce the one-pass result exactly — including counter key
order, which breaks ties in table rendering.  Every merge costs in
proportion to its right operand (the received chunk) or to bounded
state, so the fold touches each item once.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from ..logs.pipeline import LogShard, ParseCache, ParsedQuery, QueryLog, process_entries
from .context import DEFAULT_OPTIONS, AnalysisOptions, StructureCache
from .passes import PassProfile, resolve_passes, run_passes, streaks_selected
from .streaks import SIMILARITY_COUNTERS, StreakAccumulator
from .study import CorpusStudy, DatasetStats

__all__ = [
    "DEFAULT_STREAM_CHUNK_SIZE",
    "TransportStats",
    "WorkerPool",
    "adaptive_chunk_sizes",
    "build_query_logs_parallel",
    "iter_scheduled_chunks",
    "measure_chunk",
    "resolve_workers",
    "study_corpus_parallel",
]

_Payload = TypeVar("_Payload")
_Result = TypeVar("_Result")

#: Target number of in-flight chunks per worker.  More than one chunk
#: per worker smooths load imbalance (shape/treewidth analysis cost
#: varies wildly per query) while keeping the backpressure window — and
#: therefore peak memory — a small fixed multiple of the chunk size.
#: The value is deterministic so chunk boundaries and merge order never
#: depend on timing.
_CHUNKS_PER_WORKER = 4

#: Steady-state chunk-count target of the adaptive schedule: chunk
#: sizes grow until the whole input splits into about this many chunks
#: per worker.  Enough chunks to smooth load imbalance, few enough
#: that per-chunk IPC stays amortized.
_TARGET_CHUNKS_PER_WORKER = 8

#: First chunk size of the adaptive schedule: small, so short inputs
#: produce their first result (and their only chunks) near serial cost.
_ADAPTIVE_INITIAL_CHUNK = 64

#: Chunk size used when the input is a one-shot iterator whose length
#: is unknowable up front (the streaming ingestion path).  Also the
#: growth cap of the adaptive schedule on such streams — memory stays
#: bounded without counting the stream first.
DEFAULT_STREAM_CHUNK_SIZE = 1024


def resolve_workers(workers: Union[int, str, None]) -> int:
    """Normalize a worker count (``None``/``0``/``"auto"`` → all CPUs).

    ``"auto"`` is the spelling the CLI accepts; it resolves to the CPUs
    usable by this process (``os.process_cpu_count`` where available,
    ``os.cpu_count`` otherwise).  Any other string raises.
    """
    if isinstance(workers, str):
        if workers != "auto":
            raise ValueError(
                f"workers must be a positive integer or 'auto', got {workers!r}"
            )
        workers = None
    if workers is None or workers <= 0:
        return getattr(os, "process_cpu_count", os.cpu_count)() or 1
    return workers


def adaptive_chunk_sizes(
    total: Optional[int], workers: int
) -> Iterator[int]:
    """The adaptive chunk-size schedule: small first, growing toward few.

    Yields chunk sizes forever (the chunker stops pulling when the
    input runs dry).  Sizes start at ``_ADAPTIVE_INITIAL_CHUNK`` and
    double until the whole input would split into about
    ``_TARGET_CHUNKS_PER_WORKER`` chunks per worker — so a tiny corpus
    is one or two cheap chunks while a huge one settles into large,
    IPC-amortizing chunks after a logarithmic ramp.  *total* ``None``
    (an unsized stream) caps growth at ``DEFAULT_STREAM_CHUNK_SIZE``
    instead, keeping the memory bound that streaming mode promises.

    ``workers == 1`` yields the whole (sized) input as one chunk: the
    driver's in-process executor then runs it with zero chunking or
    merge overhead.  The schedule depends only on ``(total, workers)``,
    never on timing, so chunk boundaries are deterministic.
    """
    if workers == 1 and total is not None:
        size = max(1, total)
        while True:
            yield size
    if total is None:
        cap = DEFAULT_STREAM_CHUNK_SIZE
    else:
        cap = max(
            _ADAPTIVE_INITIAL_CHUNK,
            -(-total // (workers * _TARGET_CHUNKS_PER_WORKER)),
        )
    size = min(_ADAPTIVE_INITIAL_CHUNK, cap)
    while True:
        yield size
        size = min(size * 2, cap)


def _chunk_schedule(
    chunk_size: Optional[int], total: Optional[int], workers: int
) -> Iterator[int]:
    """Fixed sizes for an explicit *chunk_size*, adaptive otherwise."""
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        return repeat(chunk_size)
    return adaptive_chunk_sizes(total, workers)


def iter_scheduled_chunks(
    items: Iterable[_Payload], sizes: Iterator[int]
) -> Iterator[List[_Payload]]:
    """Lazily split *items* into contiguous chunks sized by *sizes*.

    Accepts any iterable — including one-shot iterators — and never
    holds more than one chunk of it.  *sizes* may be shared between
    several chunkers (the drivers share one schedule across all datasets
    of a corpus, so the geometric ramp happens once per run, not once
    per dataset).
    """
    iterator = iter(items)
    for size in sizes:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


# ---------------------------------------------------------------------------
# Transport accounting and the persistent worker pool
# ---------------------------------------------------------------------------


@dataclass
class TransportStats:
    """What a sharded run shipped and how long merging took.

    Filled by the drivers when the caller passes one in (the
    :class:`~repro.api.AnalysisSession` does, folding the totals into
    the run's :class:`~repro.analysis.passes.PassProfile`).  A chunk
    counts as *shipped* when its result crossed the pool boundary as a
    serialized payload; the in-process executor (``workers=1``, or an
    input of at most one chunk) ships nothing.
    """

    #: Chunk results that came back as serialized payloads.
    chunks_shipped: int = 0
    #: Total pickled bytes of those payloads.
    shipped_bytes: int = 0
    #: Parent-side wall time spent merging partial results.
    merge_seconds: float = 0.0

    def add_to_profile(self, profile: PassProfile) -> None:
        """Fold these counters into a run's pass profile."""
        profile.chunks_shipped += self.chunks_shipped
        profile.shipped_bytes += self.shipped_bytes
        profile.merge_seconds += self.merge_seconds


def _receive(result: object, transport: Optional[TransportStats]) -> object:
    """A chunk result as an object: pool results arrive pickled (and
    count as shipped), in-process results pass through untouched."""
    if not isinstance(result, bytes):
        return result
    if transport is not None:
        transport.chunks_shipped += 1
        transport.shipped_bytes += len(result)
    return pickle.loads(result)


class WorkerPool:
    """A persistent worker pool, reused across datasets, corpora and runs.

    A driver called without one opens a temporary pool for the call —
    correct, but a session analyzing many corpora would pay the process
    start-up cost every time.  A ``WorkerPool`` owns one
    :class:`~concurrent.futures.ProcessPoolExecutor` (fork context
    where available), created lazily on first submit and kept until
    :meth:`close`.

    Workers keep *keyed* state, because one pool serves runs with
    different configurations: parse caches are keyed by prefix
    environment (a :class:`~repro.logs.pipeline.ParseCache` is pinned
    to one), structure caches by the option fields they depend on.
    State stays warm across runs — which can only change *when* a
    result is computed, never what it is (cache-transparency
    invariant).

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, workers: Union[int, str, None] = None) -> None:
        self.workers = resolve_workers(workers)
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        """The underlying executor, created on first use."""
        if self._executor is None:
            context = _fork_context()
            kwargs = {} if context is None else {"mp_context": context}
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, **kwargs
            )
        return self._executor

    @property
    def started(self) -> bool:
        """Whether worker processes exist yet (the pool is lazy)."""
        return self._executor is not None

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker entry points (top-level so they pickle under spawn and fork)
# ---------------------------------------------------------------------------


#: Keyed per-worker parse caches of pool workers.  A ParseCache is
#: pinned to one prefix environment (it raises on a mismatch), so a
#: pool worker serving many runs keeps one cache per environment.
_POOL_PARSE_CACHES: Dict[object, ParseCache] = {}

#: Keyed per-worker structure caches of pool workers, one per
#: ``cache_size`` — the option field the cache is built from.  Warm
#: entries surviving across runs is exactly the cache-transparency
#: invariant: results never change, only timings.
_POOL_STRUCTURE_CACHES: Dict[int, StructureCache] = {}


def _pool_parse_cache(extra_prefixes: Optional[Dict[str, str]]) -> ParseCache:
    key = (
        None if not extra_prefixes else tuple(sorted(extra_prefixes.items()))
    )
    cache = _POOL_PARSE_CACHES.get(key)
    if cache is None:
        cache = _POOL_PARSE_CACHES[key] = ParseCache()
    return cache


def _pool_structure_cache(options: AnalysisOptions) -> StructureCache:
    cache = _POOL_STRUCTURE_CACHES.get(options.cache_size)
    if cache is None:
        cache = _POOL_STRUCTURE_CACHES[options.cache_size] = StructureCache(
            options.cache_size
        )
    return cache


def _ingest_scored(
    name: str,
    texts: List[str],
    extra_prefixes: Optional[Dict[str, str]],
    options: Optional[AnalysisOptions],
    lookahead: Optional[List[str]],
    cache: Optional[ParseCache],
) -> Tuple[str, LogShard, Optional[Dict[str, int]]]:
    """Clean → parse → dedup one chunk and, with *options* (which the
    driver passes only when ``streaks`` is selected), scan its raw
    texts for streaks, capturing the similarity-counter delta it caused.

    Streak detection must see the stream *before* deduplication —
    duplicate entries are exactly what streaks are made of — so it
    rides the ingestion chunks, not the measure phase.  Lean ingestion
    (``options.lean_ingestion``, a ``streaks``-only selection) skips
    clean → parse → dedup: the shard needs nothing but its Total
    counter, and Valid/Unique honestly report 0.

    *lookahead* — the first ``window`` raw texts of the *next* chunk of
    the same dataset — lets the worker precompute the similarity
    decisions the parent's merge-time boundary stitch will need
    (:meth:`~repro.analysis.streaks.StreakAccumulator
    .precompute_boundary`), moving that scoring off the serial merge
    path and onto the pool.

    :data:`~repro.analysis.streaks.SIMILARITY_COUNTERS` is per-process
    state; without this capture, counter work done on pool workers
    would silently vanish from the parent's numbers (under-reporting
    ``dp_skip_rate`` in profiled sharded runs).  The capture is
    transactional — snapshot, scan, delta, restore — so a chunk counts
    exactly once whether it ran on a worker or (the in-process
    executor) in the parent process itself, where the parent later
    :meth:`adds <repro.analysis.streaks.SimilarityCounters.add>` the
    shipped delta unconditionally.
    """
    if options is None:
        return name, process_entries(texts, extra_prefixes, cache), None
    if options.lean_ingestion:
        shard = LogShard(total=len(texts))
    else:
        shard = process_entries(texts, extra_prefixes, cache)
    before = SIMILARITY_COUNTERS.to_dict()
    scan = StreakAccumulator(options.streak_window, options.streak_threshold)
    for text in texts:
        scan.push(text)
    if lookahead is not None:
        scan.precompute_boundary(lookahead)
    shard.streaks = scan
    delta = SIMILARITY_COUNTERS.delta_since(before)
    SIMILARITY_COUNTERS.restore(before)
    return name, shard, delta


def _pool_parse_chunk(
    payload: Tuple[
        str,
        List[str],
        Optional[Dict[str, str]],
        Optional[AnalysisOptions],
        Optional[List[str]],
    ],
) -> bytes:
    """Pool ingestion worker: keyed cache, pre-pickled result.

    Returning ``bytes`` makes the transport explicit: the parent counts
    exactly ``len(result)`` shipped bytes per chunk, and the executor's
    own result pickling degenerates to a cheap bytes copy.
    """
    name, texts, extra_prefixes, options, lookahead = payload
    cache = _pool_parse_cache(extra_prefixes)
    result = _ingest_scored(name, texts, extra_prefixes, options, lookahead, cache)
    return pickle.dumps(result, pickle.HIGHEST_PROTOCOL)


def _pool_measure_chunk(
    payload: Tuple[str, List[ParsedQuery], bool, AnalysisOptions],
) -> bytes:
    """Pool measure worker: compact, pre-reduced transport.

    What comes back is the fully reduced partial study — plain counters
    and histograms, a couple of KB regardless of chunk size — never the
    chunk's AST object graphs, which stay on the worker.  Pre-pickling
    it here makes the shipped size explicit: the parent counts exactly
    ``len(result)`` bytes per chunk.
    """
    dataset, queries, dedup, options = payload
    cache = _pool_structure_cache(options)
    study = measure_chunk(
        dataset, queries, dedup=dedup, options=options, cache=cache
    )
    return pickle.dumps(study, pickle.HIGHEST_PROTOCOL)


def measure_chunk(
    dataset: str,
    queries: Iterable[ParsedQuery],
    dedup: bool = True,
    options: AnalysisOptions = DEFAULT_OPTIONS,
    cache: Optional[StructureCache] = None,
) -> CorpusStudy:
    """Measure one chunk of a dataset's unique stream into a partial study.

    *cache* may be shared across chunks (it is transparent — results
    never depend on it); with ``options.profile`` the chunk's own
    timings and the cache hit/miss delta it caused land on the partial
    study's ``pass_profile``, merged in stream order like every other
    accumulator.
    """
    passes = resolve_passes(options.metrics)
    profile = PassProfile() if options.profile else None
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    study = CorpusStudy(dedup=dedup)
    stats = DatasetStats(name=dataset)
    study.datasets[dataset] = stats
    for parsed in queries:
        run_passes(
            study,
            stats,
            parsed,
            1 if dedup else parsed.count,
            passes=passes,
            options=options,
            cache=cache,
            profile=profile,
        )
    if profile is not None:
        if cache is not None:
            profile.cache_hits = cache.hits - hits_before
            profile.cache_misses = cache.misses - misses_before
        study.pass_profile = profile
    return study


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return None


def _execute(
    local_fn: Callable[[_Payload], _Result],
    pool_fn: Callable[[_Payload], object],
    payloads: Iterable[_Payload],
    workers: int,
    max_inflight: Optional[int] = None,
    pool: Optional[WorkerPool] = None,
) -> Iterator[object]:
    """The two executors: *local_fn* in-process, or *pool_fn* on a pool.

    Results are yielded strictly in input order, which is what makes
    the stream-order fold reproducible.  In-process when
    ``workers == 1`` or *payloads* turns out to hold at most one item:
    fully lazy, no :mod:`multiprocessing` and no pickling.  Otherwise on
    *pool* (or a temporary :class:`WorkerPool` that lives as long as
    the returned iterator), pulling at most *max_inflight* (default
    ``workers × _CHUNKS_PER_WORKER``) payloads ahead of the consumer, so
    peak memory is bounded by that window, not by the stream.
    """
    iterator = iter(payloads)
    if workers > 1:
        head = list(islice(iterator, 2))
        iterator = chain(head, iterator)
        if len(head) > 1:
            if max_inflight is None:
                max_inflight = workers * _CHUNKS_PER_WORKER
            max_inflight = max(max_inflight, workers)
            with WorkerPool(workers) if pool is None else nullcontext(pool) as active:
                executor = active.executor()
                pending: deque = deque()
                for payload in iterator:
                    pending.append(executor.submit(pool_fn, payload))
                    if len(pending) >= max_inflight:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            return
    for payload in iterator:
        yield local_fn(payload)


# ---------------------------------------------------------------------------
# Public drivers
# ---------------------------------------------------------------------------


def _corpus_total(corpora: Mapping[str, Iterable]) -> Optional[int]:
    """Total sized length of a corpus, or ``None`` with any lazy stream.

    When every stream knows its length, the adaptive schedule sizes
    chunks against the whole corpus (many small logs must not explode
    into many tiny shards).  Any unsized iterator in the mix means
    streaming mode: growth caps at a fixed size so memory stays bounded
    without counting the stream first.
    """
    total = 0
    for texts in corpora.values():
        if not hasattr(texts, "__len__"):
            return None
        total += len(texts)  # type: ignore[arg-type]
    return total


def build_query_logs_parallel(
    corpora: Mapping[str, Iterable[str]],
    extra_prefixes: Optional[Dict[str, str]] = None,
    *,
    workers: Union[int, str, None] = None,
    chunk_size: Optional[int] = None,
    options: Optional[AnalysisOptions] = None,
    pool: Optional[WorkerPool] = None,
    transport: Optional[TransportStats] = None,
) -> Dict[str, QueryLog]:
    """Streaming clean → parse → dedup over a whole corpus of raw logs.

    All datasets share one executor, so small logs don't each pay the
    pool start-up cost — and with *pool* (a persistent
    :class:`WorkerPool`) not even this run pays it.  Corpus values may
    be lists *or* lazy iterators (e.g.
    :func:`repro.logs.sources.iter_entries`); either way the stream is
    chunked lazily (adaptive sizes unless *chunk_size* pins one) and
    consumed with bounded in-flight chunks.  Per dataset, shards fold
    into one :class:`~repro.logs.pipeline.LogShard` in stream order: the
    result is identical to :func:`~repro.logs.pipeline.process_entries`
    over the whole stream.  *transport* (when given) receives the
    shipped-bytes and merge-time accounting.

    *options* may select the streak scan (``metrics`` containing
    ``streaks``): each chunk then also feeds its raw texts, in order,
    to a per-chunk :class:`~repro.analysis.streaks.StreakAccumulator`,
    and the chunk accumulators are stitched in stream order onto
    ``QueryLog.streaks`` — byte-identical to a serial scan of the
    whole log.  Each chunk payload also carries a lookahead of its
    successor's head, so workers pre-score the boundary similarity
    decisions the stitch will consult instead of computing them on the
    serial merge path.  With ``options.lean_ingestion`` the parse /
    dedup / AST stages are skipped entirely (the streak scan reads the
    raw stream): Total stays exact, Valid/Unique report 0.
    """
    workers = pool.workers if pool is not None else resolve_workers(workers)
    schedule = _chunk_schedule(chunk_size, _corpus_total(corpora), workers)
    if options is not None and not streaks_selected(options.metrics):
        options = None  # nothing order-aware to compute; keep payloads lean
    if (
        options is not None
        and options.lean_ingestion
        and resolve_passes(options.metrics)
    ):
        # Per-query passes need parsed ASTs; lean mode is only honored
        # for sequence-only selections (the facade validates this — a
        # direct caller gets the safe behavior, not empty tables).
        options = replace(options, lean_ingestion=False)
    # Boundary lookahead: give each chunk the first streak-window texts
    # of its successor, so workers pre-score the merge-time boundary
    # stitch (see _ingest_scored).  Costs holding one extra chunk in
    # the producer — the backpressure window is unchanged.
    lookahead_size = options.streak_window if options is not None else 0

    def payloads() -> Iterator[
        Tuple[
            str,
            List[str],
            Optional[Dict[str, str]],
            Optional[AnalysisOptions],
            Optional[List[str]],
        ]
    ]:
        """Lazily yield (dataset, chunk, prefixes, options, lookahead)."""
        for name, texts in corpora.items():
            held: Optional[List[str]] = None
            for chunk in iter_scheduled_chunks(texts, schedule):
                if held is not None:
                    yield (name, held, extra_prefixes, options,
                           chunk[:lookahead_size])
                held = chunk
            if held is not None:
                yield (name, held, extra_prefixes, options, None)

    # The in-process executor shares one run-local parse cache across
    # all chunks and datasets — duplicate-heavy logs parse O(unique)
    # texts, not O(total).  Run-local (not module state), so successive
    # runs can't leak prefix environments.
    cache = ParseCache()

    def parse_local(payload):
        """Parse one chunk in-process, sharing the run-local cache."""
        name, texts, prefixes, chunk_options, lookahead = payload
        return _ingest_scored(name, texts, prefixes, chunk_options, lookahead, cache)

    merged: Dict[str, LogShard] = {name: LogShard() for name in corpora}
    for result in _execute(
        parse_local, _pool_parse_chunk, payloads(), workers, pool=pool
    ):
        name, shard, counter_delta = _receive(result, transport)
        started = perf_counter()
        merged[name].merge(shard)
        if transport is not None:
            transport.merge_seconds += perf_counter() - started
        if counter_delta is not None:
            # Fold the chunk's similarity-counter work into the parent's
            # per-process counters; without this, instrumentation done on
            # pool workers would be silently dropped from sharded runs.
            SIMILARITY_COUNTERS.add(counter_delta)
    if options is not None:
        # An empty corpus yields zero chunks and therefore no worker-built
        # accumulator; a selected streak scan must still come back as
        # (empty) state, exactly like a serial scan of an empty stream.
        for shard in merged.values():
            if shard.streaks is None:
                shard.streaks = StreakAccumulator(
                    options.streak_window, options.streak_threshold
                )
    return {name: shard.to_query_log(name) for name, shard in merged.items()}


def study_corpus_parallel(
    logs: Mapping[str, QueryLog],
    dedup: bool = True,
    *,
    workers: Union[int, str, None] = None,
    chunk_size: Optional[int] = None,
    options: Optional[AnalysisOptions] = None,
    pool: Optional[WorkerPool] = None,
    transport: Optional[TransportStats] = None,
) -> CorpusStudy:
    """The corpus study driver behind :func:`~repro.analysis.study.study_corpus`.

    The Table 1 counters (Total/Valid/Unique) are carried by the
    pre-created per-dataset stats; chunk studies contribute measurement
    counters only, so merging never double-counts the pipeline totals.
    Chunks are produced lazily and kept in flight in bounded number, so
    even a huge materialized log is never copied wholesale into a
    payload list.  Partial studies fold into the result in stream order.

    In-process runs measure every chunk against one run-local structure
    cache.  Pool runs ship query chunks in and get compact pre-reduced
    partial studies back (pre-pickled, counted into *transport*).
    """
    workers = pool.workers if pool is not None else resolve_workers(workers)
    if options is None:
        options = DEFAULT_OPTIONS
    study = CorpusStudy(dedup=dedup)
    if options.profile:
        # A profiled run reports a profile even when nothing was measured.
        study.pass_profile = PassProfile()
    total = sum(log.unique for log in logs.values())
    schedule = _chunk_schedule(chunk_size, total, workers)
    for name, log in logs.items():
        # The streak scan (like the Table 1 counters) was computed at
        # ingestion over the whole ordered stream; chunk studies carry
        # none, so merging never double-counts it.  Copied so merging
        # studies never mutates the log.
        study.datasets[name] = DatasetStats(
            name=name, total=log.total, valid=log.valid, unique=log.unique,
            streaks=None if log.streaks is None else log.streaks.copy(),
        )

    def chunk_payloads() -> Iterator[Tuple[str, List[ParsedQuery], bool, AnalysisOptions]]:
        """Lazily yield (dataset, chunk, dedup, options) payloads."""
        for name, log in logs.items():
            for chunk in iter_scheduled_chunks(log.unique_queries(), schedule):
                yield (name, chunk, dedup, options)

    # The in-process executor shares one run-local cache across all
    # chunks and datasets — duplicate shapes reuse their structure
    # results.  Run-local (not module state), so successive runs with
    # different options can't interfere.
    run_cache = StructureCache(options.cache_size)

    def measure_local(payload):
        """Measure one chunk in-process, sharing the run-local cache."""
        name, chunk, chunk_dedup, chunk_options = payload
        return measure_chunk(
            name, chunk, dedup=chunk_dedup, options=chunk_options,
            cache=run_cache,
        )

    for result in _execute(
        measure_local, _pool_measure_chunk, chunk_payloads(), workers, pool=pool
    ):
        partial = _receive(result, transport)
        started = perf_counter()
        study.merge(partial)
        if transport is not None:
            transport.merge_seconds += perf_counter() - started
    return study
