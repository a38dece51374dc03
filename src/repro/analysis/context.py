"""Per-query memoized analysis context and the structural-signature cache.

The analyzer passes of :mod:`repro.analysis.passes` share a number of
expensive derivations: feature extraction, operator classification,
fragment membership, the canonical graph and the canonical hypergraph.
All of them read one :class:`~repro.analysis.facts.QueryFacts` record,
built by a single walk of the query.  :class:`AnalysisContext` wraps
one ``(parsed query, dataset, weight)`` unit of work and computes each
derivation **lazily, at most once** — a pass can ask for
``ctx.fragments`` without caring whether an earlier pass already did.

On top of the per-query memoization sits a cross-query
:class:`StructureCache`: real logs are dominated by a small set of
recurring *structural shapes* (templated queries differing only in
constants), so shape profiles, treewidth and hypertree-width results
are cached under a **structural signature** of the canonical
graph/hypergraph.  Signatures relabel nodes by first appearance (and
abstract constant values down to their identity pattern), so two
queries that are renamings of one another share an entry; equal
signatures imply the relabeled structures are *identical*, which makes
the cache fully transparent — results with the cache enabled are
byte-identical to results with it disabled.

The cache is a bounded LRU (:data:`DEFAULT_STRUCTURE_CACHE_SIZE`
entries), so a per-worker cache adds O(capacity) memory and preserves
the O(workers × chunk) ingestion-memory invariant of
:mod:`repro.analysis.parallel`.

Paper mapping: shared derivation layer under every measurement pass
(Tables 2-5, Figures 1/5, secs 4-7).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..logs.pipeline import ParsedQuery
from ..rdf.terms import BlankNode, Variable
from ..sparql import ast, walk
from .canonical import (
    Hypergraph,
    canonical_graph,
    canonical_hypergraph,
    has_predicate_variable,
)
from .facts import QueryFacts, query_facts
from .features import QueryFeatures, extract_features
from .fragments import FragmentProfile, classify_fragments
from .graphutil import Multigraph
from .hypertree import hypertree_width
from .operators import OperatorClassification, classify_operators
from .shapes import ShapeProfile, classify_shape
from .streaks import DEFAULT_STREAK_THRESHOLD, DEFAULT_STREAK_WINDOW
from .treewidth import treewidth

__all__ = [
    "DEFAULT_SHAPE_NODE_LIMIT",
    "DEFAULT_STRUCTURE_CACHE_SIZE",
    "AnalysisContext",
    "AnalysisOptions",
    "HypertreeEntry",
    "StructureCache",
    "StructureEntry",
    "graph_signature",
    "hypergraph_signature",
]

#: Shape analysis is skipped for pathological graphs above this size —
#: the classifier is polynomial but flower detection tries every core.
DEFAULT_SHAPE_NODE_LIMIT = 400

#: Default capacity of the structural-signature LRU cache.  Entries are
#: small (a ShapeProfile plus two ints), so the bound is about keeping
#: per-worker memory fixed, not about byte counts.
DEFAULT_STRUCTURE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class AnalysisOptions:
    """Configuration of one study run, threaded through every driver.

    Immutable and picklable, so the parallel drivers can ship it to
    worker processes inside chunk payloads.  ``None`` metrics means the
    full default pipeline; ``cache_size=0`` disables the structural
    cache (results are identical either way — the cache is transparent).
    """

    #: Pass names to run, in registry order; ``None`` = all *per-query*
    #: passes (sequence passes such as ``streaks`` are opt-in by name).
    metrics: Optional[Tuple[str, ...]] = None
    #: Queries whose canonical graph exceeds this node count skip the
    #: structure pass (and are counted in ``shape_limit_skipped``).
    shape_node_limit: int = DEFAULT_SHAPE_NODE_LIMIT
    #: Capacity of the per-worker structural-signature cache; 0 disables.
    cache_size: int = DEFAULT_STRUCTURE_CACHE_SIZE
    #: Collect per-pass wall time and cache-hit statistics.
    profile: bool = False
    #: Streak lookbehind window for the ``streaks`` sequence pass (§8).
    streak_window: int = DEFAULT_STREAK_WINDOW
    #: Normalized-Levenshtein similarity threshold for streaks.
    streak_threshold: float = DEFAULT_STREAK_THRESHOLD
    #: Skip SPARQL parsing, deduplication and AST retention during
    #: ingestion — sequence passes read the raw ordered stream only, so
    #: a sequence-only run pays none of that cost.  Honored by the
    #: ingestion drivers only when the selected metrics contain no
    #: per-query pass (per-query passes need parsed ASTs).
    lean_ingestion: bool = False

    def __post_init__(self) -> None:
        """Reject out-of-range limits here, where every entry point —
        :class:`repro.api.AnalysisRequest` and ``repro watch`` alike —
        builds its options, before any state is written."""
        if self.shape_node_limit < 1:
            raise ValueError(
                f"shape_node_limit must be >= 1, got {self.shape_node_limit}"
            )
        if self.cache_size < 0:
            raise ValueError(
                f"cache_size must be >= 0 (0 disables), got {self.cache_size}"
            )
        if self.streak_window < 1:
            raise ValueError(
                f"streak_window must be >= 1, got {self.streak_window}"
            )
        if not 0.0 <= self.streak_threshold <= 1.0:  # also rejects NaN
            raise ValueError(
                f"streak_threshold must be within [0, 1], "
                f"got {self.streak_threshold}"
            )


#: Default options instance shared by every driver entry point.
DEFAULT_OPTIONS = AnalysisOptions()


# ---------------------------------------------------------------------------
# Structural signatures
# ---------------------------------------------------------------------------


def _node_kind(node: object) -> str:
    return "v" if isinstance(node, (Variable, BlankNode)) else "c"


def graph_signature(graph: Multigraph) -> Tuple:
    """A hashable structural key for a canonical graph.

    Nodes are relabeled by first appearance in the graph's
    deterministic edge enumeration and tagged with their kind
    (variable/blank vs constant), so queries that differ only in
    variable names or constant values map to the same signature.  Equal
    signatures imply the relabeled (node-typed) multigraphs are
    identical — every cached derivation (shape profile, treewidth,
    constant usage) is therefore exactly what a fresh computation would
    produce.
    """
    ids: Dict[object, Tuple[int, str]] = {}

    def nid(node: object) -> Tuple[int, str]:
        """First-appearance id and kind tag of *node*."""
        entry = ids.get(node)
        if entry is None:
            entry = ids[node] = (len(ids), _node_kind(node))
        return entry

    parts: List[Tuple] = [
        (nid(u), nid(v), multiplicity)
        for u, v, multiplicity in graph.edge_triples()
    ]
    for node in graph.nodes():
        if node not in ids:
            parts.append(("isolated", nid(node)))
    return tuple(parts)


def hypergraph_signature(hypergraph: Hypergraph) -> Tuple:
    """A hashable structural key for a canonical hypergraph.

    Edge members already assigned an index sort by it; fresh members
    are assigned indices in term sort order (deterministic, and stable
    across the duplicate-template case where queries reuse the same
    variable names and differ only in constants — constants are not
    hypergraph nodes at all).  Equal signatures imply the relabeled
    edge lists are identical, so cached hypertree results are exact.
    """
    ids: Dict[object, int] = {}
    parts: List[Tuple[int, ...]] = []
    for edge in hypergraph.edges:
        known = sorted(ids[member] for member in edge if member in ids)
        fresh = sorted(
            (member for member in edge if member not in ids),
            key=lambda term: term.sort_key(),
        )
        for member in fresh:
            ids[member] = len(ids)
        parts.append(tuple(known + [ids[member] for member in fresh]))
    return tuple(parts)


# ---------------------------------------------------------------------------
# Structural-signature cache
# ---------------------------------------------------------------------------


class StructureEntry(NamedTuple):
    """Cached derivations of one canonical-graph signature."""

    profile: ShapeProfile
    width: int
    #: Whether the graph has any constant node — equivalently, whether
    #: the constants-excluded rebuild has strictly fewer nodes (the
    #: §6.1 single-edge-CQ constants check), since every variable/blank
    #: endpoint survives ``include_constants=False``.
    uses_constants: bool


class HypertreeEntry(NamedTuple):
    """Cached derivations of one canonical-hypergraph signature."""

    width: int
    node_count: int


class StructureCache:
    """Bounded LRU cache of structure results keyed by signature.

    One instance per worker (or per serial run).  Graph and hypergraph
    entries share the capacity; eviction is least-recently-used.  The
    cache is *transparent*: because signature equality implies the
    underlying structures are identical up to relabeling — and every
    cached derivation is invariant under that relabeling — enabling or
    disabling it cannot change any study counter.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries")

    def __init__(self, capacity: int = DEFAULT_STRUCTURE_CACHE_SIZE) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything (capacity > 0)."""
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[object]:
        """The entry under *key*, bumping its recency; ``None`` on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Tuple, entry: object) -> None:
        """Store *entry* under *key*, evicting least-recently-used."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


# ---------------------------------------------------------------------------
# The per-query context
# ---------------------------------------------------------------------------

_UNSET = object()


class AnalysisContext:
    """Lazily memoized derivations of one query, shared by all passes.

    Every property is computed at most once per query, whatever subset
    of passes runs and in whatever order — adding a pass that re-asks
    for ``features`` or ``fragments`` costs a dict lookup, not a
    recomputation.
    """

    __slots__ = (
        "parsed",
        "dataset",
        "weight",
        "options",
        "cache",
        "_query",
        "_facts",
        "_raw_facts",
        "_features",
        "_operators",
        "_fragments",
        "_predicate_variable",
        "_graph",
        "_hypergraph",
        "_structure",
        "_hypertree",
    )

    def __init__(
        self,
        parsed: ParsedQuery,
        dataset: str,
        weight: int = 1,
        options: AnalysisOptions = DEFAULT_OPTIONS,
        cache: Optional[StructureCache] = None,
    ) -> None:
        self.parsed = parsed
        self.dataset = dataset
        self.weight = weight
        self.options = options
        self.cache = cache
        self._query = _UNSET
        self._facts = _UNSET
        self._raw_facts = _UNSET
        self._features = _UNSET
        self._operators = _UNSET
        self._fragments = _UNSET
        self._predicate_variable = _UNSET
        self._graph = _UNSET
        self._hypergraph = _UNSET
        self._structure = _UNSET
        self._hypertree = _UNSET

    # -- AST-level derivations ------------------------------------------

    @property
    def query(self) -> ast.Query:
        """The analysis view of the query: Wikidata queries get their
        SERVICE wrapper stripped (§4.3 fn 13)."""
        if self._query is _UNSET:
            query = self.parsed.query
            if self.dataset.lower().startswith("wikidata"):
                query = walk.strip_services(query)
            self._query = query
        return self._query

    @property
    def facts(self) -> QueryFacts:
        """The one walk over the analysis view that every derivation
        below reads."""
        if self._facts is _UNSET:
            self._facts = query_facts(self.query)
        return self._facts

    @property
    def raw_facts(self) -> QueryFacts:
        """Facts of the query exactly as parsed: Table 5 counts the
        property paths inside SERVICE clauses too.  Only a query that
        lost SERVICE clauses is walked a second time."""
        if self._raw_facts is _UNSET:
            raw = self.parsed.query
            self._raw_facts = self.facts if self.query is raw else query_facts(raw)
        return self._raw_facts

    @property
    def features(self) -> QueryFeatures:
        """Shallow features of the query (Tables 1/2, Figure 1)."""
        if self._features is _UNSET:
            self._features = extract_features(self.facts)
        return self._features

    @property
    def operators(self) -> OperatorClassification:
        """Operator-set classification of the query (Table 3)."""
        if self._operators is _UNSET:
            self._operators = classify_operators(self.facts)
        return self._operators

    @property
    def fragments(self) -> FragmentProfile:
        """Fragment memberships of the query (sec 5.2)."""
        if self._fragments is _UNSET:
            self._fragments = classify_fragments(self.facts)
        return self._fragments

    @property
    def predicate_variable(self) -> bool:
        """Whether any triple pattern has a variable predicate (sec 6.2)."""
        if self._predicate_variable is _UNSET:
            self._predicate_variable = has_predicate_variable(self.facts)
        return self._predicate_variable

    # -- Canonical structures -------------------------------------------

    def graph(self) -> Multigraph:
        """The canonical graph, memoized."""
        if self._graph is _UNSET:
            self._graph = canonical_graph(self.facts)
        return self._graph

    @property
    def hypergraph(self) -> Hypergraph:
        """The canonical hypergraph, memoized (sec 6.2)."""
        if self._hypergraph is _UNSET:
            self._hypergraph = canonical_hypergraph(self.facts)
        return self._hypergraph

    # -- Cached structure results ---------------------------------------

    def structure_result(self) -> StructureEntry:
        """Shape profile, treewidth and constant usage of the canonical
        graph — served from the structural cache when a query of the
        same shape was measured before."""
        if self._structure is _UNSET:
            graph = self.graph()
            cache, signature = self.cache, None
            entry: Optional[StructureEntry] = None
            if cache is not None and cache.enabled:
                signature = ("g", graph_signature(graph))
                entry = cache.get(signature)  # type: ignore[assignment]
            if entry is None:
                entry = StructureEntry(
                    profile=classify_shape(graph),
                    width=treewidth(graph).width,
                    uses_constants=any(
                        _node_kind(node) == "c" for node in graph.nodes()
                    ),
                )
                if signature is not None:
                    cache.put(signature, entry)
            self._structure = entry
        return self._structure

    def hypertree_result(self) -> HypertreeEntry:
        """Hypertree width and decomposition node count of the canonical
        hypergraph, served from the structural cache when possible."""
        if self._hypertree is _UNSET:
            hypergraph = self.hypergraph
            cache, signature = self.cache, None
            entry: Optional[HypertreeEntry] = None
            if cache is not None and cache.enabled:
                signature = ("h", hypergraph_signature(hypergraph))
                entry = cache.get(signature)  # type: ignore[assignment]
            if entry is None:
                result = hypertree_width(hypergraph)
                entry = HypertreeEntry(width=result.width, node_count=result.node_count)
                if signature is not None:
                    cache.put(signature, entry)
            self._hypertree = entry
        return self._hypertree
