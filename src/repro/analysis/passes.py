"""Composable analyzer passes over a shared :class:`AnalysisContext`.

The corpus study used to be one hardcoded per-query monolith
(``_analyze_query`` → ``_analyze_structure`` → ``_analyze_paths``).
This module breaks it into five independent passes over the memoized
context, each owning a disjoint set of :class:`CorpusStudy` counters:

========== ==========================================================
``shallow``   Table 1/2 counters, Figure 1 histograms, §4.4
              subqueries and projection.
``paths``     Table 5 property-path taxonomy (runs on the *unstripped*
              query — SERVICE clauses carry paths too).
``operators`` Table 3 operator sets.
``fragments`` §5.2 fragment memberships and Figure 5 size histograms.
``structure`` Table 4 shapes + treewidth, §6.1 girth/constants,
              §6.2 hypertree widths — the expensive pass, backed by
              the structural-signature cache.
========== ==========================================================

Because every counter belongs to exactly one pass and queries are
folded in stream order, the default pipeline reproduces the
pre-refactor monolith **byte-identically** (property-tested), and any
subset of passes (``AnalysisOptions.metrics``) yields exactly the
counters those passes own.  Adding a metric is now a one-file change:
implement :class:`AnalysisPass`, register it, give it counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Protocol, Tuple

from ..logs.pipeline import ParsedQuery
from ..sparql import ast
from ..sparql.serializer import serialize_path
from .context import DEFAULT_OPTIONS, AnalysisContext, AnalysisOptions, StructureCache
from .operators import TABLE3_ROWS
from .property_paths import classify_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .study import CorpusStudy, DatasetStats

__all__ = [
    "NON_CTRACT_LIMIT",
    "PASS_NAMES",
    "SEQUENCE_PASS_NAMES",
    "AnalysisPass",
    "PassProfile",
    "default_passes",
    "resolve_passes",
    "run_passes",
    "sequence_only_selection",
    "streaks_selected",
]

#: Cap on the number of non-Ctract path expressions kept for Table 5.
#: Overflow is counted in ``CorpusStudy.non_ctract_truncated`` instead
#: of being dropped silently.
NON_CTRACT_LIMIT = 100


class AnalysisPass(Protocol):
    """One measurement pass of the corpus study.

    A pass reads whatever derivations it needs from the context (they
    are memoized — asking twice is free) and increments only counters
    it owns.  Passes must not depend on other passes having run: any
    gating (Select/Ask only, AOF only, …) is re-derived from the
    context so that pass subsets stay correct.
    """

    #: Registry key, also used for ``--metrics`` and profiling rows.
    name: str

    def run(
        self, study: "CorpusStudy", stats: "DatasetStats", ctx: AnalysisContext
    ) -> None:
        """Measure one query into *study*/*stats*."""
        ...


class ShallowPass:
    """Keyword counts, triple histograms, subqueries, projection (§4)."""

    name = "shallow"

    def run(self, study, stats, ctx) -> None:
        """Count keywords, triples, subqueries and projection use."""
        features = ctx.features
        weight = ctx.weight
        study.query_count += weight
        stats.queries += weight
        stats.triple_sum += features.triple_count * weight
        # Sorted: ``keywords`` is a frozenset, so raw iteration order is
        # hash-seed dependent.  Tables render through KEYWORD_ORDER and
        # never noticed, but counter insertion order is serialized by
        # the JSON snapshots — it must not vary between processes.
        for keyword in sorted(features.keywords):
            study.keyword_counts[keyword] += weight
            stats.keyword_counts[keyword] += weight
        if not features.has_body:
            study.no_body_count += weight
        if features.uses_subquery:
            study.subquery_count += weight
        if features.uses_projection is True:
            study.projection_true += weight
            if ctx.query.query_type is ast.QueryType.ASK:
                study.ask_projection += weight
        elif features.uses_projection is None:
            study.projection_indeterminate += weight
        if features.is_select_or_ask():
            study.select_ask_count += weight
            stats.select_ask += weight
            stats.triple_hist[features.triple_count] += weight


class PathsPass:
    """Property-path taxonomy (Table 5, §7) over the unstripped query."""

    name = "paths"

    def run(self, study, stats, ctx) -> None:
        """Classify every property path of the unstripped query."""
        weight = ctx.weight
        for node in ctx.raw_facts.paths:
            study.property_path_total += weight
            classification = classify_path(node.path)
            if not classification.navigational:
                if classification.simple_form:
                    study.simple_path_forms[classification.simple_form] += weight
                continue
            study.path_types[classification.expression_type] += weight
            if classification.k is not None:
                study.path_type_k.setdefault(
                    classification.expression_type, []
                ).append(classification.k)
            if not classification.ctract:
                if len(study.non_ctract) < NON_CTRACT_LIMIT:
                    study.non_ctract.append(serialize_path(node.path))
                else:
                    study.non_ctract_truncated += 1


class OperatorsPass:
    """Operator-set classification of Select/Ask queries (Table 3)."""

    name = "operators"

    def run(self, study, stats, ctx) -> None:
        """Classify the query's operator set (Select/Ask only)."""
        if not ctx.features.is_select_or_ask():
            return
        weight = ctx.weight
        classification = ctx.operators
        if classification.pure:
            if classification.letters in TABLE3_ROWS:
                study.operator_sets[classification.letters] += weight
            else:
                study.operator_other_combination += weight
                study.operator_sets[classification.letters] += weight
        else:
            study.operator_other_features += weight


class FragmentsPass:
    """Fragment memberships and CQ-like size histograms (§5.2, Fig 5)."""

    name = "fragments"

    def run(self, study, stats, ctx) -> None:
        """Record fragment memberships and CQ-like size histograms."""
        if not ctx.features.is_select_or_ask():
            return
        fragments = ctx.fragments
        if not fragments.is_aof:
            return
        weight = ctx.weight
        study.aof_count += weight
        if fragments.is_well_designed:
            study.well_designed_count += weight
            if (
                fragments.has_simple_filters
                and fragments.interface_width is not None
                and fragments.interface_width > 1
            ):
                study.wide_interface_count += weight
        if fragments.is_cq:
            study.cq_count += weight
        if fragments.is_cqf:
            study.cqf_count += weight
        if fragments.is_cqof:
            study.cqof_count += weight

        triples = ctx.features.triple_count
        if triples >= 1:
            if fragments.is_cq:
                study.cq_sizes[triples] += weight
            if fragments.is_cqf:
                study.cqf_sizes[triples] += weight
            if fragments.is_cqof:
                study.cqof_sizes[triples] += weight


class StructurePass:
    """Deep structure: shapes, treewidth, girth, constants, hypertree
    widths (Table 4, §6).  The expensive pass — backed by the
    structural-signature cache on the context."""

    name = "structure"

    def run(self, study, stats, ctx) -> None:
        """Measure shapes, treewidth, girth and hypertree widths."""
        if not ctx.features.is_select_or_ask():
            return
        fragments = ctx.fragments
        if not fragments.is_aof:
            return
        weight = ctx.weight
        if ctx.predicate_variable:
            if fragments.is_cqof:
                study.predicate_variable_cqof += weight
                result = ctx.hypertree_result()
                study.hypertree_widths[result.width] += weight
                study.decomposition_nodes[result.node_count] += weight
            return
        if not (fragments.is_cq or fragments.is_cqf or fragments.is_cqof):
            return
        graph = ctx.graph()
        if graph.node_count() > ctx.options.shape_node_limit:
            study.shape_limit_skipped += weight
            return
        result = ctx.structure_result()
        memberships = result.profile.as_dict()
        for fragment, member in (
            ("CQ", fragments.is_cq),
            ("CQF", fragments.is_cqf),
            ("CQOF", fragments.is_cqof),
        ):
            if not member:
                continue
            study.shape_totals[fragment] += weight
            for shape, holds in memberships.items():
                if holds:
                    study.shape_counts[fragment][shape] += weight
            study.treewidth_counts[fragment][result.width] += weight
        if fragments.is_cq and result.profile.single_edge:
            study.single_edge_cq += weight
            if result.uses_constants:
                study.single_edge_cq_with_constants += weight
        if result.profile.shortest_cycle is not None and fragments.is_cqof:
            study.girth_hist[result.profile.shortest_cycle] += weight


#: The ordered default pipeline.  Order is documentation (it mirrors
#: the paper's sections); correctness does not depend on it because
#: passes own disjoint counters.
_REGISTRY: "Dict[str, AnalysisPass]" = {
    p.name: p
    for p in (ShallowPass(), PathsPass(), OperatorsPass(), FragmentsPass(), StructurePass())
}

#: Registry order, the vocabulary of ``--metrics``.
PASS_NAMES: Tuple[str, ...] = tuple(_REGISTRY)

#: Sequence metrics, also selectable via ``--metrics`` — but opt-in:
#: ``metrics=None`` means every per-query pass and *no* sequence metric.
#: ``streaks`` (Table 6) is the only one; it scans the ordered raw
#: stream during ingestion, so it is no :class:`AnalysisPass`.
SEQUENCE_PASS_NAMES: Tuple[str, ...] = ("streaks",)


def default_passes() -> Tuple[AnalysisPass, ...]:
    """The full default pipeline, in registry order."""
    return tuple(_REGISTRY.values())


def _check_known(metrics: Iterable[str]) -> set:
    requested = set(metrics)
    unknown = requested - set(PASS_NAMES) - set(SEQUENCE_PASS_NAMES)
    if unknown:
        raise ValueError(
            f"unknown metrics: {', '.join(sorted(unknown))} "
            f"(available: {', '.join(PASS_NAMES + SEQUENCE_PASS_NAMES)})"
        )
    return requested


def resolve_passes(metrics: Optional[Iterable[str]]) -> Tuple[AnalysisPass, ...]:
    """Resolve a ``--metrics`` selection to *per-query* pass instances.

    ``None`` (or selecting everything) is the default pipeline.  The
    selection is normalized to registry order so output never depends
    on how the user spelled it; unknown names raise ``ValueError``.
    Sequence-metric names (``streaks``) are accepted and skipped here —
    :func:`streaks_selected` is their half of the split.
    """
    if metrics is None:
        return default_passes()
    requested = _check_known(metrics)
    return tuple(_REGISTRY[name] for name in PASS_NAMES if name in requested)


def streaks_selected(metrics: Optional[Iterable[str]]) -> bool:
    """Whether a ``--metrics`` selection opts into the streak scan.

    ``None`` — the default pipeline — does not: streaks run only when
    named explicitly, because they scan the full ordered stream during
    ingestion.
    """
    return metrics is not None and "streaks" in _check_known(metrics)


def sequence_only_selection(metrics: Optional[Iterable[str]]) -> bool:
    """Whether *metrics* selects sequence passes and nothing else.

    The auto-lean predicate: such a run needs only the raw ordered
    stream, so ingestion can skip parsing, deduplication and AST
    retention entirely (``AnalysisOptions.lean_ingestion``).  ``None``
    — the default pipeline — is per-query-only, hence ``False``.
    """
    if metrics is None:
        return False
    requested = _check_known(metrics)
    return bool(requested) and requested <= set(SEQUENCE_PASS_NAMES)


@dataclass
class PassProfile:
    """Per-pass wall time and structural-cache statistics.

    Mergeable like every other accumulator, so sharded profiled runs
    fold their per-chunk profiles in stream order.  Wall times are
    measurement noise by nature — the profile is deliberately excluded
    from :class:`CorpusStudy` equality.
    """

    seconds: Dict[str, float] = field(default_factory=dict)
    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Chunk results that crossed the worker-pool boundary as
    #: serialized payloads (0 for in-process runs).
    chunks_shipped: int = 0
    #: Total pickled bytes of those shipped chunk results.
    shipped_bytes: int = 0
    #: Parent-side wall time spent merging partial shards/studies.
    merge_seconds: float = 0.0

    def merge(self, other: "PassProfile") -> "PassProfile":
        """Fold another profile's timings and cache stats into this one."""
        for name, elapsed in other.seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.queries += other.queries
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.chunks_shipped += other.chunks_shipped
        self.shipped_bytes += other.shipped_bytes
        self.merge_seconds += other.merge_seconds
        return self

    @property
    def total_seconds(self) -> float:
        """Total wall time across all passes."""
        return sum(self.seconds.values())

    @property
    def cache_hit_rate(self) -> float:
        """Structural-cache hit rate over all lookups (0.0 when none)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot (see :mod:`.snapshot`)."""
        from .snapshot import profile_to_dict

        return profile_to_dict(self)

    @classmethod
    def from_dict(cls, data: object) -> "PassProfile":
        """Inverse of :meth:`to_dict`; raises
        :class:`~repro.exceptions.StudySnapshotError` on malformed input."""
        from .snapshot import profile_from_dict

        return profile_from_dict(data)


def run_passes(
    study: "CorpusStudy",
    stats: "DatasetStats",
    parsed: ParsedQuery,
    weight: int,
    *,
    passes: Optional[Tuple[AnalysisPass, ...]] = None,
    options: AnalysisOptions = DEFAULT_OPTIONS,
    cache: Optional[StructureCache] = None,
    profile: Optional[PassProfile] = None,
) -> None:
    """Run a pass pipeline over one query.

    The single entry point every driver (serial, chunked, worker
    process) funnels through: builds the memoized context, runs the
    passes in order, and — when *profile* is given — charges each
    pass's wall time to its name.
    """
    if passes is None:
        passes = resolve_passes(options.metrics)
    ctx = AnalysisContext(
        parsed, stats.name, weight, options=options, cache=cache
    )
    if profile is None:
        for analysis_pass in passes:
            analysis_pass.run(study, stats, ctx)
        return
    profile.queries += 1
    seconds = profile.seconds
    for analysis_pass in passes:
        started = perf_counter()
        analysis_pass.run(study, stats, ctx)
        seconds[analysis_pass.name] = (
            seconds.get(analysis_pass.name, 0.0) + perf_counter() - started
        )
