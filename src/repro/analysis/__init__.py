"""Query-log analytics: the paper's core contribution."""

from .canonical import (
    Hypergraph,
    canonical_graph,
    canonical_hypergraph,
    has_predicate_variable,
)
from .context import (
    AnalysisContext,
    AnalysisOptions,
    StructureCache,
    graph_signature,
    hypergraph_signature,
)
from .facts import FilterFacts, QueryFacts, query_facts
from .features import QueryFeatures, detect_projection, extract_features
from .fragments import FragmentProfile, classify_fragments
from .graphutil import Multigraph
from .hypertree import HypertreeResult, hypertree_width
from .operators import (
    Operator,
    OperatorClassification,
    classify_operators,
)
from .parallel import (
    build_query_logs_parallel,
    measure_chunk,
    study_corpus_parallel,
)
from .passes import (
    PASS_NAMES,
    SEQUENCE_PASS_NAMES,
    AnalysisPass,
    PassProfile,
    default_passes,
    resolve_passes,
    run_passes,
)
from .property_paths import (
    PathClassification,
    classify_path,
    in_ctract,
    is_navigational,
)
from .shapes import ShapeProfile, classify_shape
from .streaks import (
    DEFAULT_STREAK_THRESHOLD,
    DEFAULT_STREAK_WINDOW,
    StreakAccumulator,
    levenshtein,
    strip_prefixes,
)
from .treewidth import TreewidthResult, treewidth, treewidth_at_most_2
from .welldesigned import (
    PatternTreeNode,
    build_pattern_tree,
    interface_width,
    is_well_designed,
    to_binary_algebra,
    tree_is_variable_connected,
)

__all__ = [
    "AnalysisContext",
    "AnalysisOptions",
    "AnalysisPass",
    "PASS_NAMES",
    "SEQUENCE_PASS_NAMES",
    "PassProfile",
    "StructureCache",
    "default_passes",
    "graph_signature",
    "hypergraph_signature",
    "resolve_passes",
    "run_passes",
    "Hypergraph",
    "canonical_graph",
    "canonical_hypergraph",
    "has_predicate_variable",
    "FilterFacts",
    "QueryFacts",
    "query_facts",
    "QueryFeatures",
    "detect_projection",
    "extract_features",
    "FragmentProfile",
    "classify_fragments",
    "Multigraph",
    "HypertreeResult",
    "hypertree_width",
    "Operator",
    "OperatorClassification",
    "classify_operators",
    "build_query_logs_parallel",
    "measure_chunk",
    "study_corpus_parallel",
    "PathClassification",
    "classify_path",
    "in_ctract",
    "is_navigational",
    "ShapeProfile",
    "classify_shape",
    "DEFAULT_STREAK_THRESHOLD",
    "DEFAULT_STREAK_WINDOW",
    "StreakAccumulator",
    "levenshtein",
    "strip_prefixes",
    "TreewidthResult",
    "treewidth",
    "treewidth_at_most_2",
    "PatternTreeNode",
    "build_pattern_tree",
    "interface_width",
    "is_well_designed",
    "to_binary_algebra",
    "tree_is_variable_connected",
]

