"""Corpus-wide study driver: every measurement of the paper, one pass.

:func:`study_corpus` takes the processed :class:`~repro.logs.QueryLog`
objects and computes, per dataset and aggregated:

* Table 1 counters (carried through from the pipeline);
* Table 2 / Table 7 keyword counts;
* Figure 1 / Figure 8 triple-count histograms, S/A shares, Avg#T;
* Table 3 / Table 8 operator-set distribution with CPF subtotals;
* §4.4 subquery and projection statistics;
* §5.2 fragment sizes (AOF, CQ, CQF, well-designed, CQOF);
* Figure 5 / Figure 9 CQ-like size histograms;
* Table 4 / Table 9 cumulative shape analysis with treewidth rows;
* §6.1 shortest-cycle histogram and the constants rerun;
* §6.2 hypertree widths of predicate-variable queries;
* Table 5 / Figure 10 property-path taxonomy with Ctract outliers.

``dedup=True`` analyses the Unique corpus (paper main body);
``dedup=False`` weights every query by its multiplicity (the appendix's
Valid corpus).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Tuple,
)

from ..logs.pipeline import ParsedQuery, QueryLog
from .context import DEFAULT_OPTIONS, AnalysisOptions, StructureCache
from .features import KEYWORD_ORDER
from .operators import TABLE3_ROWS
from .passes import NON_CTRACT_LIMIT, PassProfile, resolve_passes, run_passes
from .shapes import SHAPE_ORDER
from .streaks import StreakAccumulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .parallel import TransportStats, WorkerPool

__all__ = ["DatasetStats", "CorpusStudy", "measure_query", "study_corpus"]

def _merge_counters(dst: MutableMapping, src: Mapping) -> None:
    """Add *src* into *dst* key-wise.

    ``Counter.__add__`` silently drops keys whose count is zero (or
    negative), so merging with ``+`` would erase explicitly-recorded
    zero buckets and change table shapes.  This helper preserves every
    key present on either side.
    """
    for key, value in src.items():
        dst[key] = dst.get(key, 0) + value


def _merge_fields(self, other, skip: frozenset) -> None:
    """Merge all dataclass fields by type: int adds, Counter key-merges.

    Introspecting the fields (instead of hand-maintained name lists)
    means a future metric added to the dataclass is merged — or, for a
    type with no obvious merge, rejected loudly — rather than silently
    dropped from sharded runs, which would break serial ≡ parallel.
    """
    for field_info in fields(self):
        name = field_info.name
        if name in skip:
            continue
        mine = getattr(self, name)
        theirs = getattr(other, name)
        if isinstance(mine, Counter):
            _merge_counters(mine, theirs)
        elif isinstance(mine, int):
            setattr(self, name, mine + theirs)
        else:
            raise TypeError(
                f"{type(self).__name__}.merge: no merge rule for field {name!r} "
                f"of type {type(mine).__name__}"
            )


@dataclass
class DatasetStats:
    """Per-dataset accumulators (Figure 1 needs per-dataset numbers)."""

    name: str
    total: int = 0
    valid: int = 0
    unique: int = 0
    queries: int = 0  # analyzed stream size (unique or valid)
    select_ask: int = 0
    triple_hist: Counter = field(default_factory=Counter)  # per S/A query
    triple_sum: int = 0  # over ALL queries (Avg#T is corpus-wide)
    keyword_counts: Counter = field(default_factory=Counter)
    #: Streak detection state over this dataset's *ordered* raw stream
    #: (§8, Table 6), carried from ingestion like the pipeline counters;
    #: ``None`` unless the ``streaks`` sequence metric ran.
    streaks: Optional[StreakAccumulator] = None

    def merge(self, other: "DatasetStats") -> "DatasetStats":
        """Fold another shard of the same dataset into this one.

        Shards of one dataset are slices of one ordered stream, merged
        in stream order — so streak accumulators *stitch* (``other`` is
        the continuation of ``self``'s stream) rather than add.  A
        one-sided accumulator is kept as-is: measure-phase shards never
        carry one (streaks ride ingestion), and a fresh stats object
        merging a streak-bearing shard adopts its state.
        """
        if other.name != self.name:
            raise ValueError(
                f"cannot merge stats for {other.name!r} into {self.name!r}"
            )
        _merge_fields(self, other, skip=frozenset({"name", "streaks"}))
        if other.streaks is not None:
            if self.streaks is None:
                self.streaks = other.streaks.copy()
            else:
                self.streaks.merge(other.streaks)
        if self.streaks is not None and self.streaks.length != self.total:
            # A stitched accumulator must cover the merged stream edge to
            # edge.  Length < total means one shard ran without the
            # streaks metric (its slice was never scanned, and the other
            # side's positions may be misaligned) — reporting its partial
            # Table 6 as the whole stream's would be silently wrong.
            raise ValueError(
                f"dataset {self.name!r}: streak state covers "
                f"{self.streaks.length} of {self.total} entries; all "
                "merged shards must run the streaks metric (or none)"
            )
        return self

    @property
    def select_ask_share(self) -> float:
        """Fraction of analyzed queries that are SELECT or ASK."""
        return self.select_ask / self.queries if self.queries else 0.0

    @property
    def average_triples(self) -> float:
        """Mean triple count over all analyzed queries (Figure 1 Avg#T)."""
        return self.triple_sum / self.queries if self.queries else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Versioned JSON-native snapshot (see :mod:`.snapshot`)."""
        from .snapshot import stats_to_dict

        return stats_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DatasetStats":
        """Inverse of :meth:`to_dict`; raises
        :class:`~repro.exceptions.StudySnapshotError` on malformed input."""
        from .snapshot import stats_from_dict

        return stats_from_dict(data)

    def triple_hist_percentages(self) -> Dict[str, float]:
        """Figure 1 buckets: '0'..'10' and '11+' as % of S/A queries."""
        buckets: Dict[str, float] = {}
        if not self.select_ask:
            return {str(i): 0.0 for i in range(11)} | {"11+": 0.0}
        for i in range(11):
            buckets[str(i)] = 100.0 * self.triple_hist.get(i, 0) / self.select_ask
        over = sum(count for size, count in self.triple_hist.items() if size >= 11)
        buckets["11+"] = 100.0 * over / self.select_ask
        return buckets


@dataclass
class CorpusStudy:
    """Aggregated results over the whole corpus."""

    dedup: bool = True
    datasets: Dict[str, DatasetStats] = field(default_factory=dict)

    # Shallow analysis
    keyword_counts: Counter = field(default_factory=Counter)
    query_count: int = 0
    select_ask_count: int = 0
    no_body_count: int = 0

    # Operator sets (Select/Ask only)
    operator_sets: Counter = field(default_factory=Counter)  # frozenset->n
    operator_other_combination: int = 0
    operator_other_features: int = 0

    # §4.4
    subquery_count: int = 0
    projection_true: int = 0
    projection_indeterminate: int = 0
    ask_projection: int = 0

    # §5.2 fragments (of Select/Ask)
    aof_count: int = 0
    cq_count: int = 0
    cqf_count: int = 0
    cqof_count: int = 0
    well_designed_count: int = 0
    wide_interface_count: int = 0  # well-designed, simple filters, iw > 1

    # Figure 5: sizes of CQ-like queries (triples >= 1)
    cq_sizes: Counter = field(default_factory=Counter)
    cqf_sizes: Counter = field(default_factory=Counter)
    cqof_sizes: Counter = field(default_factory=Counter)

    # Table 4: cumulative shape counts per fragment
    shape_counts: Dict[str, Counter] = field(
        default_factory=lambda: {"CQ": Counter(), "CQF": Counter(), "CQOF": Counter()}
    )
    shape_totals: Counter = field(default_factory=Counter)  # fragment -> n
    treewidth_counts: Dict[str, Counter] = field(
        default_factory=lambda: {"CQ": Counter(), "CQF": Counter(), "CQOF": Counter()}
    )
    girth_hist: Counter = field(default_factory=Counter)
    single_edge_cq: int = 0
    single_edge_cq_with_constants: int = 0

    # §6.2 hypergraphs (predicate-variable CQOF queries)
    predicate_variable_cqof: int = 0
    hypertree_widths: Counter = field(default_factory=Counter)
    decomposition_nodes: Counter = field(default_factory=Counter)

    # §7 property paths
    property_path_total: int = 0
    simple_path_forms: Counter = field(default_factory=Counter)  # "!a"/"^a"
    path_types: Counter = field(default_factory=Counter)
    path_type_k: Dict[str, List[int]] = field(default_factory=dict)
    non_ctract: List[str] = field(default_factory=list)

    # Coverage accounting: data the analysis limits would otherwise
    # drop silently (surfaced by the report's caveats section when nonzero).
    shape_limit_skipped: int = 0  # queries over the shape-node limit
    non_ctract_truncated: int = 0  # Table 5 outliers beyond the cap

    #: Per-pass timing / cache statistics of a profiled run
    #: (``AnalysisOptions.profile``); ``None`` otherwise.  Wall times
    #: are noise, so the profile never participates in equality.
    pass_profile: Optional[PassProfile] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    # Merge semantics
    # ------------------------------------------------------------------

    #: Fields :func:`_merge_fields` cannot handle generically; each has
    #: explicit handling in :meth:`merge`.
    _SPECIAL_MERGE_FIELDS = frozenset(
        {
            "dedup",
            "datasets",
            "shape_counts",
            "treewidth_counts",
            "path_type_k",
            "non_ctract",
            "pass_profile",
        }
    )

    def merge(self, other: "CorpusStudy") -> "CorpusStudy":
        """Fold a partial study (e.g. one shard's results) into this one.

        Merging in stream order reproduces the single-pass study
        exactly, including counter key order (which breaks ties in
        ``Counter.most_common``) and the non-Ctract sample.
        """
        if other.dedup != self.dedup:
            raise ValueError("cannot merge Unique-corpus and Valid-corpus studies")
        for name, stats in other.datasets.items():
            mine = self.datasets.get(name)
            if mine is None:
                mine = DatasetStats(name=name)
                self.datasets[name] = mine
            mine.merge(stats)
        _merge_fields(self, other, skip=self._SPECIAL_MERGE_FIELDS)
        for fragment, counts in other.shape_counts.items():
            _merge_counters(self.shape_counts.setdefault(fragment, Counter()), counts)
        for fragment, counts in other.treewidth_counts.items():
            _merge_counters(
                self.treewidth_counts.setdefault(fragment, Counter()), counts
            )
        for path_type, ks in other.path_type_k.items():
            self.path_type_k.setdefault(path_type, []).extend(ks)
        # The merged sample keeps the cap; overflow dropped *here* joins
        # the truncation counter (whose per-shard values were already
        # added by _merge_fields), so serial and sharded runs agree on
        # kept + truncated = total.
        remaining = max(0, NON_CTRACT_LIMIT - len(self.non_ctract))
        if remaining > 0:
            self.non_ctract.extend(other.non_ctract[:remaining])
        dropped = len(other.non_ctract) - remaining
        if dropped > 0:
            self.non_ctract_truncated += dropped
        if other.pass_profile is not None:
            if self.pass_profile is None:
                self.pass_profile = PassProfile()
            self.pass_profile.merge(other.pass_profile)
        return self

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Versioned, schema-checked JSON-native snapshot.

        Zero counts and counter insertion order are preserved, so a
        reloaded study renders byte-identical reports and merges
        exactly like the in-memory original (see :mod:`.snapshot`)."""
        from .snapshot import study_to_dict

        return study_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorpusStudy":
        """Inverse of :meth:`to_dict`; raises
        :class:`~repro.exceptions.StudySnapshotError` on malformed or
        mis-versioned input."""
        from .snapshot import study_from_dict

        return study_from_dict(data)

    # ------------------------------------------------------------------
    def keyword_table(self) -> List[Tuple[str, int, float]]:
        """Table 2 rows: (keyword, absolute, relative %)."""
        rows = []
        for keyword in KEYWORD_ORDER:
            absolute = self.keyword_counts.get(keyword, 0)
            relative = 100.0 * absolute / self.query_count if self.query_count else 0.0
            rows.append((keyword, absolute, relative))
        return rows

    def operator_table(self) -> List[Tuple[str, int, float]]:
        """Table 3 rows in paper order, plus subtotals."""
        denominator = self.select_ask_count or 1
        rows: List[Tuple[str, int, float]] = []

        def label(letters: frozenset) -> str:
            """Paper-style row label for an operator set (F written last)."""
            if not letters:
                return "none"
            # The paper writes operator sets with F last: "A, F",
            # "A, O, F", "A, O, U, F", …
            order = "AOUGF"
            return ", ".join(sorted(letters, key=order.index))

        cpf_subtotal = 0
        for letters in TABLE3_ROWS:
            count = self.operator_sets.get(letters, 0)
            rows.append((label(letters), count, 100.0 * count / denominator))
            if letters <= frozenset("AF"):
                cpf_subtotal += count
        rows.insert(
            4, ("CPF subtotal", cpf_subtotal, 100.0 * cpf_subtotal / denominator)
        )
        return rows

    def cpf_plus(self, letter: str) -> Tuple[int, float]:
        """The CPF+O / CPF+G / CPF+U increments of Table 3."""
        denominator = self.select_ask_count or 1
        increment = 0
        for letters, count in self.operator_sets.items():
            if letter in letters and letters <= frozenset("AF" + letter):
                increment += count
        return increment, 100.0 * increment / denominator

    def projection_bounds(self) -> Tuple[float, float]:
        """(lower %, upper %) of queries using projection (§4.4)."""
        if not self.query_count:
            return (0.0, 0.0)
        low = 100.0 * self.projection_true / self.query_count
        high = 100.0 * (
            self.projection_true + self.projection_indeterminate
        ) / self.query_count
        return (low, high)

    def shape_table(self, fragment: str) -> List[Tuple[str, int, float]]:
        """One Table 4 column block for fragment ∈ {CQ, CQF, CQOF}."""
        counts = self.shape_counts[fragment]
        total = self.shape_totals[fragment] or 1
        rows = [
            (shape, counts.get(shape, 0), 100.0 * counts.get(shape, 0) / total)
            for shape in SHAPE_ORDER
        ]
        tw = self.treewidth_counts[fragment]
        le2 = tw.get(1, 0) + tw.get(2, 0) + tw.get(0, 0)
        rows.append(("treewidth <= 2", le2, 100.0 * le2 / total))
        rows.append(("treewidth = 3", tw.get(3, 0), 100.0 * tw.get(3, 0) / total))
        rows.append(("total", self.shape_totals[fragment], 100.0))
        return rows

    def streak_histograms(self) -> Dict[str, Dict[str, int]]:
        """Table 6 columns: dataset → bucket-label histogram (row order),
        for every dataset whose ingestion ran the ``streaks`` metric.
        Empty when no dataset carries streak state."""
        return {
            name: stats.streaks.length_histogram()
            for name, stats in self.datasets.items()
            if stats.streaks is not None
        }

    def streak_longest(self) -> int:
        """Length of the longest streak across all datasets (0 if none)."""
        return max(
            (
                stats.streaks.longest
                for stats in self.datasets.values()
                if stats.streaks is not None
            ),
            default=0,
        )

    def path_table(self) -> List[Tuple[str, int, float, str]]:
        """Table 5 rows: (type, absolute, relative %, k-range)."""
        navigational = sum(self.path_types.values()) or 1
        rows = []
        for name, count in self.path_types.most_common():
            ks = self.path_type_k.get(name, [])
            if ks:
                lo, hi = min(ks), max(ks)
                k_range = str(lo) if lo == hi else f"{lo}-{hi}"
            else:
                k_range = ""
            rows.append((name, count, 100.0 * count / navigational, k_range))
        return rows


def measure_query(
    parsed: ParsedQuery,
    dataset: str = "corpus",
    weight: int = 1,
    dedup: bool = True,
    options: AnalysisOptions = DEFAULT_OPTIONS,
    cache: Optional[StructureCache] = None,
) -> CorpusStudy:
    """Measure a single query: the pure unit of work of the study.

    Returns a fresh single-query :class:`CorpusStudy` (with one
    :class:`DatasetStats` under *dataset*) and never mutates shared
    state, so results can be computed in any order — or on worker
    processes — and combined with :meth:`CorpusStudy.merge`.  Folding
    the per-query studies in stream order reproduces every measurement
    counter of :func:`study_corpus`; the Table 1 pipeline counters
    (total/valid/unique) come from the :class:`QueryLog`, not from
    measurement, and for the Valid corpus (``dedup=False``) pass
    ``weight=parsed.count`` to keep multiplicities.

    An optional shared *cache* (:class:`StructureCache`) lets repeated
    shapes reuse their structure results; it is transparent, so results
    are identical with or without one — but all calls sharing a cache
    must use the same *options*.
    """
    study = CorpusStudy(dedup=dedup)
    stats = DatasetStats(name=dataset)
    study.datasets[dataset] = stats
    run_passes(
        study,
        stats,
        parsed,
        weight,
        passes=resolve_passes(options.metrics),
        options=options,
        cache=cache,
    )
    return study


def study_corpus(
    logs: Mapping[str, QueryLog],
    dedup: bool = True,
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    options: Optional[AnalysisOptions] = None,
    pool: Optional["WorkerPool"] = None,
    transport: Optional["TransportStats"] = None,
) -> CorpusStudy:
    """Run the full analysis over processed logs.

    Delegates to the one study driver,
    :func:`~repro.analysis.parallel.study_corpus_parallel`: in-process
    at ``workers=1`` (or on an input of one chunk), otherwise the
    per-dataset query streams are split into lazily-produced chunks
    measured on a worker pool — *pool* when given, a temporary one
    otherwise — and the partial studies merged in stream order.  The
    result never depends on the executor.  *transport* (when given)
    receives the shipped-bytes and merge-time accounting.

    *options* selects passes (``metrics``), configures the shape-node
    limit and structural cache, and enables per-pass profiling (the
    profile lands on ``CorpusStudy.pass_profile``).
    """
    from .parallel import study_corpus_parallel

    return study_corpus_parallel(
        logs, dedup=dedup, workers=workers, chunk_size=chunk_size,
        options=options, pool=pool, transport=transport,
    )
