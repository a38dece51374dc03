"""repro — reproduction of "An Analytical Study of Large SPARQL Query
Logs" (Bonifati, Martens, Timm; VLDB 2017).

The library has six layers:

* :mod:`repro.rdf` — RDF terms, triples, indexed graph store;
* :mod:`repro.sparql` — SPARQL 1.1 tokenizer, parser, AST, serializer;
* :mod:`repro.engine` — query evaluation with two engine profiles
  (indexed vs nested-loop) for the paper's Figure 3 experiment;
* :mod:`repro.workload` — gMark-style graph/query generation and the
  calibrated synthetic log corpus standing in for the private logs;
* :mod:`repro.logs` — log formats and the clean/parse/dedup pipeline;
* :mod:`repro.analysis` — the paper's analyses: keyword/operator
  statistics, fragment classification (CQ/CQF/CQOF), canonical
  graph/hypergraph shapes, tree- and hypertree width, property-path
  taxonomy, and streak detection.

The stable programmatic surface is :mod:`repro.api`::

    from repro.api import analyze, load_study, merge_studies

    result = analyze("endpoint.log", workers=4)   # the full study
    print(result.render("markdown"))              # any registered format
    result.save("study.json")                     # portable snapshot
    merged = merge_studies([load_study("a.json"), load_study("b.json")])

Lower-level quickstart::

    from repro import parse_query, query_facts, classify_shape, canonical_graph
    query = parse_query("ASK WHERE { ?x <urn:p> ?y . ?y <urn:p> ?x }")
    shape = classify_shape(canonical_graph(query_facts(query)))
    assert shape.cycle
"""

import importlib
from typing import Any, Dict, List, Tuple

# The public names and the module each comes from.  They load on first
# access (PEP 562), so ``import repro`` or ``import repro.cli`` costs
# only the modules a caller actually uses: every spawned ``repro``
# process pays the import of each module it touches.
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "analysis": (
        "canonical_graph",
        "canonical_hypergraph",
        "classify_fragments",
        "classify_operators",
        "classify_path",
        "classify_shape",
        "extract_features",
        "hypertree_width",
        "query_facts",
        "treewidth",
    ),
    "analysis.parallel": (
        "build_query_logs_parallel",
        "measure_chunk",
        "study_corpus_parallel",
    ),
    "analysis.study": ("CorpusStudy", "DatasetStats", "measure_query", "study_corpus"),
    "api": (
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
    ),
    "engine": ("IndexedEngine", "NestedLoopEngine"),
    "exceptions": (
        "EvaluationError",
        "EvaluationTimeout",
        "LogFormatError",
        "ReporterRegistrationError",
        "ReproError",
        "SparqlSyntaxError",
        "StudySnapshotError",
        "WarehouseError",
        "WatchStateError",
        "WorkloadError",
    ),
    "logs": ("LogShard", "ParseCache", "QueryLog", "build_query_log", "process_entries"),
    "rdf": ("IRI", "BlankNode", "Graph", "Literal", "Triple", "Variable"),
    "reporting": (
        "Reporter",
        "get_reporter",
        "register_reporter",
        "render_report",
        "reporter_names",
    ),
    "sparql": ("parse_query", "serialize_query"),
    "warehouse": ("StudyWarehouse",),
    "workload": (
        "bib_schema",
        "generate_corpus",
        "generate_day_log",
        "generate_graph",
        "generate_workload",
    ),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

#: The layer subpackages, reachable as attributes (``repro.sparql``)
#: after a bare ``import repro``, as when the root imported them all.
_SUBPACKAGES = frozenset(
    {"analysis", "api", "engine", "exceptions", "logs", "rdf", "reporting", "sparql",
     "warehouse", "workload"}
)


def __getattr__(name: str) -> Any:
    """Import the module behind a public name on first access."""
    if name in _SOURCES:
        value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    elif name in _SUBPACKAGES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    """The loaded names and every public one."""
    return sorted(set(globals()) | set(__all__))


__version__ = "10.1.0"

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "AnalysisSession",
    "CoverageCaveats",
    "WatchCycle",
    "WatchSession",
    "WatchStateError",
    "analyze",
    "analyze_corpora",
    "load_study",
    "open_warehouse",
    "save_study",
    "StudySnapshotError",
    "StudyWarehouse",
    "WarehouseError",
    "Reporter",
    "get_reporter",
    "register_reporter",
    "render_report",
    "reporter_names",
    "canonical_graph",
    "canonical_hypergraph",
    "classify_fragments",
    "classify_operators",
    "classify_path",
    "classify_shape",
    "extract_features",
    "hypertree_width",
    "query_facts",
    "treewidth",
    "CorpusStudy",
    "DatasetStats",
    "measure_query",
    "study_corpus",
    "build_query_logs_parallel",
    "measure_chunk",
    "merge_studies",
    "study_corpus_parallel",
    "IndexedEngine",
    "NestedLoopEngine",
    "EvaluationError",
    "EvaluationTimeout",
    "LogFormatError",
    "ReporterRegistrationError",
    "ReproError",
    "SparqlSyntaxError",
    "WorkloadError",
    "LogShard",
    "ParseCache",
    "QueryLog",
    "build_query_log",
    "process_entries",
    "Graph",
    "IRI",
    "BlankNode",
    "Literal",
    "Triple",
    "Variable",
    "parse_query",
    "serialize_query",
    "bib_schema",
    "generate_corpus",
    "generate_day_log",
    "generate_graph",
    "generate_workload",
    "__version__",
]
