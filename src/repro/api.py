"""Stable public API facade: sessions, requests, results, snapshots.

Everything the CLI (and any downstream program) needs to run the
paper's study lives behind three small types:

* :class:`AnalysisRequest` — a frozen, typed description of *what* to
  analyze: file inputs or in-memory corpora, the corpus flavour
  (``dedup``), the pass selection and limits, and the execution knobs
  (workers, chunk size).
* :class:`AnalysisSession` — the orchestrator: resolves inputs, runs
  ingestion (clean → parse → dedup) and the analyzer-pass study, and
  wraps the outcome.  One session serves many requests, holding a
  persistent worker pool that multi-worker runs reuse.
* :class:`AnalysisResult` — the outcome: the
  :class:`~repro.analysis.study.CorpusStudy`, the processed
  :class:`~repro.logs.pipeline.QueryLog` objects (when ingestion ran
  in-session), the optional :class:`~repro.analysis.passes.PassProfile`
  and the :class:`CoverageCaveats`.  Results render through the
  reporter registry (:meth:`AnalysisResult.render`) and serialize to
  versioned JSON snapshots (:meth:`AnalysisResult.save` /
  :func:`load_study`) that can be shipped between machines and merged.

Quickstart::

    from repro.api import analyze

    result = analyze("endpoint.log", workers=4)
    print(result.render("text"))          # the paper's tables
    result.save("study.json")             # portable snapshot

    from repro.api import load_study, merge_studies
    merged = merge_studies([load_study("a.json"), load_study("b.json")])

File inputs always stream (bounded-memory ingestion); in-memory
corpora keep the sized chunk schedule.  All invariants of the
underlying drivers hold through the facade: serial ≡ sharded ≡
streamed byte-identity, and
``merge(load(a), load(b)) ≡ merge(a, b)`` round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from .analysis.context import (
    DEFAULT_SHAPE_NODE_LIMIT,
    DEFAULT_STRUCTURE_CACHE_SIZE,
    AnalysisOptions,
)
from .analysis.parallel import (
    TransportStats,
    WorkerPool,
    build_query_logs_parallel,
    resolve_workers,
)
from .analysis.passes import (
    PassProfile,
    resolve_passes,
    sequence_only_selection,
)
from .analysis.snapshot import load_study, save_study
from .analysis.streaks import DEFAULT_STREAK_THRESHOLD, DEFAULT_STREAK_WINDOW
from .analysis.study import CorpusStudy, study_corpus
from .logs import QueryLog, dataset_name, iter_entries
from .reporting.reporters import render_report

if TYPE_CHECKING:
    from .analysis.incremental import WatchCycle, WatchSession

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "AnalysisSession",
    "CoverageCaveats",
    "WatchCycle",
    "WatchSession",
    "analyze",
    "analyze_corpora",
    "load_study",
    "merge_studies",
    "open_warehouse",
    "save_study",
]

PathLike = Union[str, Path]


def __getattr__(name: str) -> Any:
    """Import the watch session types on first access (PEP 562).

    Only ``repro watch`` needs the watch machinery, and every spawned
    ``repro`` process pays for each module it imports.
    """
    if name not in ("WatchCycle", "WatchSession"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .analysis import incremental

    value = getattr(incremental, name)
    globals()[name] = value
    return value


@dataclass(frozen=True)
class AnalysisRequest:
    """A typed, immutable description of one study run.

    Exactly one of *inputs* (paths to query/log files, gzip files, or
    log directories — dataset names derive from the file stems) or
    *corpora* (a name → raw-query-texts mapping, values may be one-shot
    iterators) must be provided.
    """

    #: Files/directories to ingest; dataset names come from the stems.
    inputs: Tuple[PathLike, ...] = ()
    #: In-memory corpora: dataset name → raw query texts.
    corpora: Optional[Mapping[str, Iterable[str]]] = None
    #: ``True`` → Unique corpus (paper main body); ``False`` → Valid
    #: corpus, weighting every query by its multiplicity (appendix).
    dedup: bool = True
    #: Analyzer passes to run (``None`` = every per-query pass; the
    #: ``streaks`` sequence pass is opt-in by name); see
    #: ``repro.analysis.passes``.
    metrics: Optional[Tuple[str, ...]] = None
    #: Skip the structure pass above this canonical-graph node count.
    shape_node_limit: int = DEFAULT_SHAPE_NODE_LIMIT
    #: Capacity of the structural-signature cache (0 disables).
    cache_size: int = DEFAULT_STRUCTURE_CACHE_SIZE
    #: Collect per-pass wall times onto the result's profile.
    profile: bool = False
    #: Lookbehind window of the ``streaks`` sequence pass (§8).
    streak_window: int = DEFAULT_STREAK_WINDOW
    #: Normalized-Levenshtein similarity threshold for streaks.
    streak_threshold: float = DEFAULT_STREAK_THRESHOLD
    #: Worker processes for ingestion and measurement: a positive int
    #: (1 = in-process) or ``"auto"`` for all CPUs available to this
    #: process — the recommended setting on multi-core machines.
    workers: Union[int, str] = 1
    #: Entries per shard; ``None`` uses the adaptive schedule (chunks
    #: start small and grow geometrically — see
    #: :func:`repro.analysis.parallel.adaptive_chunk_sizes`).
    chunk_size: Optional[int] = None
    #: Extra PREFIX declarations assumed by the endpoint's parser.
    extra_prefixes: Optional[Mapping[str, str]] = None

    def options(self) -> AnalysisOptions:
        """The per-query analysis options this request implies.

        A selection of sequence metrics only (``streaks``) ingests
        leanly: no SPARQL parsing, deduplication or AST retention, as
        the streak scan reads the raw ordered stream; Table 1's Valid
        and Unique then read 0."""
        return AnalysisOptions(
            metrics=self.metrics,
            shape_node_limit=self.shape_node_limit,
            cache_size=self.cache_size,
            profile=self.profile,
            streak_window=self.streak_window,
            streak_threshold=self.streak_threshold,
            lean_ingestion=sequence_only_selection(self.metrics),
        )

    def validate(self) -> None:
        """Raise ``ValueError`` on contradictions a run would hit later.

        Range checks of the analysis limits live in
        :class:`~repro.analysis.context.AnalysisOptions`, which
        :meth:`options` builds."""
        if self.inputs and self.corpora is not None:
            raise ValueError("provide either inputs or corpora, not both")
        if not self.inputs and self.corpora is None:
            raise ValueError("nothing to analyze: provide inputs or corpora")
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise ValueError(
                    f"workers must be a positive integer or 'auto', "
                    f"got {self.workers!r}"
                )
        elif self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        self.options()  # out-of-range limits raise here
        resolve_passes(self.metrics)  # unknown metric names raise here
        if self.inputs:
            seen: Dict[str, PathLike] = {}
            for path in self.inputs:
                name = dataset_name(Path(path))
                if name in seen:
                    raise ValueError(
                        f"inputs {seen[name]} and {path} both map to dataset "
                        f"name {name!r}; rename one"
                    )
                seen[name] = path


@dataclass(frozen=True)
class CoverageCaveats:
    """Data the analysis limits dropped (and accounted for) in a run."""

    #: Queries whose canonical graph exceeded the shape-node limit.
    shape_limit_skipped: int = 0
    #: Non-Ctract path expressions beyond the Table 5 sample cap.
    non_ctract_truncated: int = 0

    @classmethod
    def from_study(cls, study: CorpusStudy) -> "CoverageCaveats":
        """Read the drop counters off a finished study."""
        return cls(
            shape_limit_skipped=study.shape_limit_skipped,
            non_ctract_truncated=study.non_ctract_truncated,
        )

    @property
    def clean(self) -> bool:
        """``True`` when no limit dropped anything."""
        return not (self.shape_limit_skipped or self.non_ctract_truncated)


@dataclass
class AnalysisResult:
    """The outcome of one study run (or a loaded/merged snapshot)."""

    #: Every measurement of the paper, with per-dataset stats.
    study: CorpusStudy
    #: Processed logs when ingestion ran in-session; ``None`` for
    #: results rebuilt from snapshots (Table 1 still renders — the
    #: pipeline counters live on ``study.datasets``).
    logs: Optional[Dict[str, QueryLog]] = None
    #: The request that produced this result, when known.
    request: Optional[AnalysisRequest] = None

    @property
    def profile(self) -> Optional[PassProfile]:
        """Per-pass wall times and cache stats of a profiled run."""
        return self.study.pass_profile

    @property
    def caveats(self) -> CoverageCaveats:
        """What the analysis limits dropped (all zero on clean runs)."""
        return CoverageCaveats.from_study(self.study)

    def render(self, format: str = "text") -> str:
        """Render through the reporter registry (`text`, `json`, …)."""
        return render_report(self.study, format)

    def to_dict(self) -> Dict[str, object]:
        """The study's versioned JSON-native snapshot."""
        return self.study.to_dict()

    def save(self, path: PathLike) -> None:
        """Write the snapshot to *path* (reload via :func:`load_study`)."""
        save_study(self.study, path)

    @classmethod
    def load(cls, path: PathLike) -> "AnalysisResult":
        """Rebuild a result from a saved snapshot (no logs attached)."""
        return cls(study=load_study(path))

    def merge(self, other: "AnalysisResult") -> "AnalysisResult":
        """Fold *other* into this result (stream order, in place).

        The logs survive only when the two sides cover disjoint
        datasets; on overlap they are dropped (set to ``None``) rather
        than letting one side's :class:`QueryLog` silently shadow the
        other while the study stats sum — Table 1 still renders from
        the merged per-dataset stats either way."""
        self.study.merge(other.study)
        if (
            self.logs is not None
            and other.logs is not None
            and not set(self.logs) & set(other.logs)
        ):
            self.logs.update(other.logs)
        else:
            self.logs = None
        return self


class AnalysisSession:
    """Orchestrates ingestion → analyzer passes → study.

    Every :meth:`run` resolves its request from scratch — no parse
    caches or prefix environments leak between runs — but the session
    owns one persistent :class:`~repro.analysis.parallel.WorkerPool`,
    created lazily on the first multi-worker run and reused across
    requests, datasets and corpora, so repeated runs don't pay the
    worker start-up cost again.  (Worker-side caches staying warm
    across runs is safe: they are keyed per configuration and
    transparent — results never change, only timings.)

    Usable as a context manager; :meth:`close` shuts the pool down and
    is idempotent.  Single-worker sessions never spawn a pool.
    """

    def __init__(self) -> None:
        self._pool: Optional[WorkerPool] = None

    def close(self) -> None:
        """Shut down the session's worker pool, if one was created."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _pool_for(self, workers: int) -> Optional[WorkerPool]:
        """The session pool sized for *workers* (``None`` when in-process).

        A size change replaces the pool; otherwise the existing one —
        and its warm worker caches — is reused as-is."""
        if workers <= 1:
            return None
        if self._pool is not None and self._pool.workers != workers:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = WorkerPool(workers)
        return self._pool

    def run(self, request: AnalysisRequest) -> AnalysisResult:
        """Execute *request* end to end and wrap the outcome."""
        request.validate()
        pool = self._pool_for(resolve_workers(request.workers))
        transport = TransportStats()
        logs = self.ingest(request, pool=pool, transport=transport)
        study = self.measure(logs, request, pool=pool, transport=transport)
        if request.profile:
            # Shipped-bytes/merge-time accounting rides the profile (a
            # lean sequence-only run has no measure-phase profile yet).
            if study.pass_profile is None:
                study.pass_profile = PassProfile()
            transport.add_to_profile(study.pass_profile)
        return AnalysisResult(study=study, logs=logs, request=request)

    def ingest(
        self,
        request: AnalysisRequest,
        *,
        pool: Optional[WorkerPool] = None,
        transport: Optional[TransportStats] = None,
    ) -> Dict[str, QueryLog]:
        """Clean → parse → dedup the request's inputs into query logs.

        Sequence metrics (``streaks``) are computed here — the ordered
        raw stream no longer exists after deduplication — by the
        chunked driver, whose per-chunk accumulators stitch back to the
        exact one-pass scan.  A sequence-only selection ingests leanly
        (no parse/dedup/AST retention; see
        :meth:`AnalysisRequest.options`)."""
        prefixes = dict(request.extra_prefixes) if request.extra_prefixes else None
        # One executor over all datasets: one parse cache in-process,
        # one worker start-up on a pool; lazy sources keep peak memory
        # O(workers × chunk).
        return build_query_logs_parallel(
            self._resolve_corpora(request),
            prefixes,
            workers=pool.workers if pool is not None else resolve_workers(request.workers),
            chunk_size=request.chunk_size,
            options=request.options(),
            pool=pool,
            transport=transport,
        )

    def measure(
        self,
        logs: Mapping[str, QueryLog],
        request: AnalysisRequest,
        *,
        pool: Optional[WorkerPool] = None,
        transport: Optional[TransportStats] = None,
    ) -> CorpusStudy:
        """Run the analyzer-pass study over already-processed logs."""
        return study_corpus(
            logs,
            dedup=request.dedup,
            workers=pool.workers if pool is not None else resolve_workers(request.workers),
            chunk_size=request.chunk_size,
            options=request.options(),
            pool=pool,
            transport=transport,
        )

    def _resolve_corpora(
        self, request: AnalysisRequest
    ) -> Mapping[str, Iterable[str]]:
        """In-memory corpora as given; file inputs as lazy streams."""
        if request.corpora is not None:
            return request.corpora
        paths = [Path(path) for path in request.inputs]
        return {dataset_name(path): iter_entries(path) for path in paths}


def analyze(*inputs: PathLike, **kwargs: object) -> AnalysisResult:
    """One-call facade over files: ``analyze("a.log", workers=4)``.

    Keyword arguments are :class:`AnalysisRequest` fields."""
    request = AnalysisRequest(inputs=tuple(inputs), **kwargs)  # type: ignore[arg-type]
    with AnalysisSession() as session:
        return session.run(request)


def analyze_corpora(
    corpora: Mapping[str, Iterable[str]], **kwargs: object
) -> AnalysisResult:
    """One-call facade over in-memory corpora (name → raw texts)."""
    request = AnalysisRequest(corpora=corpora, **kwargs)  # type: ignore[arg-type]
    with AnalysisSession() as session:
        return session.run(request)


def merge_studies(studies: Iterable[CorpusStudy]) -> CorpusStudy:
    """Merge studies (typically loaded snapshots) in the given order.

    ``merge_studies([load_study(a), load_study(b)])`` renders the same
    report bytes as merging the in-memory studies directly — snapshots
    preserve counter insertion order, which report rendering depends
    on.  All studies must share the same corpus flavour, which is
    inferred from the first study (so at least one is required)."""
    merged: Optional[CorpusStudy] = None
    for study in studies:
        if merged is None:
            merged = CorpusStudy(dedup=study.dedup)
        merged.merge(study)
    if merged is None:
        raise ValueError("merge_studies: need at least one study")
    return merged


def open_warehouse(path: PathLike, *, readonly: bool = False):
    """Open (or, unless *readonly*, create) a persistent study warehouse.

    A warehouse is a SQLite file study snapshots are upserted into
    (:meth:`~repro.warehouse.StudyWarehouse.ingest`) and queried
    without re-running analysis — per-dataset stats, table cells,
    streak histograms, full-text search — with reports rendered
    through the reporter registry, byte-identical to
    :func:`render_report` on the equivalently merged study::

        from repro.api import analyze, open_warehouse

        with open_warehouse("study.warehouse") as warehouse:
            warehouse.ingest(analyze("endpoint.log").study)
            print(warehouse.render("text"))

    Raises :class:`~repro.exceptions.WarehouseError` for an unusable
    file (corrupt, foreign, or from a newer schema)."""
    from .warehouse import StudyWarehouse

    return StudyWarehouse.open(path, readonly=readonly)
