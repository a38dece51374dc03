"""Default pass pipeline ≡ the pre-refactor monolith (PR 3 tentpole).

The analyzer-pass framework replaced the hardcoded ``_analyze_query`` →
``_analyze_structure`` → ``_analyze_paths`` chain.  This module keeps a
verbatim copy of that monolith as a *reference implementation* and
property-tests that the default pipeline reproduces it — counter for
counter and byte for byte in the rendered report — on random query
streams, for both the Unique (dedup) and Valid (weighted) corpora.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.analysis.hypertree import hypertree_width
from repro.analysis.operators import TABLE3_ROWS
from repro.analysis.property_paths import classify_path
from repro.analysis.shapes import classify_shape
from repro.analysis.study import CorpusStudy, DatasetStats, study_corpus
from repro.analysis.treewidth import treewidth
from repro.logs import build_query_log
from repro.reporting import render_report
from repro.sparql import ast, walk
from repro.sparql.serializer import serialize_path

# The monolith's classifiers are the walker-based oracles: the passes
# read one QueryFacts record instead, and must still agree.
extract_features = oracles.features_reference
classify_operators = oracles.operators_reference
classify_fragments = oracles.fragments_reference
has_predicate_variable = oracles.predicate_variable_reference
canonical_graph = oracles.canonical_graph_reference
canonical_hypergraph = oracles.canonical_hypergraph_reference

_SHAPE_NODE_LIMIT = 400
_NON_CTRACT_LIMIT = 100

#: Queries exercising every pass: shallow keywords, paths (incl. a
#: non-Ctract one), operator sets, fragments, shapes/treewidth, and a
#: predicate-variable hypergraph query.  Invalid text keeps
#: Valid < Total like real logs.
ENTRY_POOL = [
    "ASK { ?s ?p ?o }",
    "SELECT * WHERE { ?a ?b ?c }",
    "SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y FILTER(?y > 3) } LIMIT 7",
    "SELECT ?x WHERE { ?x <urn:p>/<urn:q> ?y }",
    "ASK { ?s (<urn:a>/<urn:b>)* ?o }",
    "SELECT ?x WHERE { { ?x <urn:p> ?y } UNION { ?x <urn:q> ?y } "
    "OPTIONAL { ?x <urn:r> ?z } }",
    "SELECT ?x WHERE { ?x <urn:p> ?y . ?y <urn:p> ?x }",
    "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }",
    "ASK { ?a <urn:p> <urn:const> }",
    "ASK { ?x1 ?x2 ?x3 . ?x3 <urn:a> ?x4 . ?x4 ?x2 ?x5 }",
    "SELECT ?s WHERE { ?s <urn:p> ?o BIND(1 AS ?b) }",
    "DESCRIBE <urn:x>",
    "BROKEN {",
]


# ---------------------------------------------------------------------------
# Reference implementation: the pre-refactor monolith, verbatim.
# ---------------------------------------------------------------------------


def _legacy_analyze_query(study, stats, parsed, weight):
    query = parsed.query
    # Wikidata queries get their SERVICE wrapper stripped (§4.3 fn 13).
    if stats.name.lower().startswith("wikidata"):
        query = walk.strip_services(query)
    features = extract_features(query)

    study.query_count += weight
    stats.queries += weight
    stats.triple_sum += features.triple_count * weight
    for keyword in features.keywords:
        study.keyword_counts[keyword] += weight
        stats.keyword_counts[keyword] += weight
    if not features.has_body:
        study.no_body_count += weight
    if features.uses_subquery:
        study.subquery_count += weight
    if features.uses_projection is True:
        study.projection_true += weight
        if query.query_type is ast.QueryType.ASK:
            study.ask_projection += weight
    elif features.uses_projection is None:
        study.projection_indeterminate += weight

    _legacy_analyze_paths(study, parsed.query, weight)

    if not features.is_select_or_ask():
        return
    study.select_ask_count += weight
    stats.select_ask += weight
    stats.triple_hist[features.triple_count] += weight

    classification = classify_operators(query)
    if classification.pure:
        if classification.letters in TABLE3_ROWS:
            study.operator_sets[classification.letters] += weight
        else:
            study.operator_other_combination += weight
            study.operator_sets[classification.letters] += weight
    else:
        study.operator_other_features += weight

    fragments = classify_fragments(query)
    if not fragments.is_aof:
        return
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

    triples = features.triple_count
    if triples >= 1:
        if fragments.is_cq:
            study.cq_sizes[triples] += weight
        if fragments.is_cqf:
            study.cqf_sizes[triples] += weight
        if fragments.is_cqof:
            study.cqof_sizes[triples] += weight

    _legacy_analyze_structure(study, query, fragments, weight)


def _legacy_analyze_structure(study, query, fragments, weight):
    pattern = query.pattern
    if has_predicate_variable(pattern):
        if fragments.is_cqof:
            study.predicate_variable_cqof += weight
            hypergraph = canonical_hypergraph(pattern)
            result = hypertree_width(hypergraph)
            study.hypertree_widths[result.width] += weight
            study.decomposition_nodes[result.node_count] += weight
        return
    if not (fragments.is_cq or fragments.is_cqf or fragments.is_cqof):
        return
    graph = canonical_graph(pattern)
    if graph.node_count() > _SHAPE_NODE_LIMIT:
        return
    profile = classify_shape(graph)
    width = treewidth(graph)
    memberships = profile.as_dict()
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
        study.treewidth_counts[fragment][width.width] += weight
    if fragments.is_cq and profile.single_edge:
        study.single_edge_cq += weight
        constants_only = canonical_graph(pattern, include_constants=False)
        if constants_only.node_count() < graph.node_count():
            study.single_edge_cq_with_constants += weight
    if profile.shortest_cycle is not None and fragments.is_cqof:
        study.girth_hist[profile.shortest_cycle] += weight


def _legacy_analyze_paths(study, query, weight):
    pattern = query.pattern
    for node in oracles.path_patterns_reference(pattern):
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
        if not classification.ctract and len(study.non_ctract) < _NON_CTRACT_LIMIT:
            study.non_ctract.append(serialize_path(node.path))


def legacy_study_corpus(logs, dedup=True):
    """The pre-refactor serial driver, verbatim."""
    study = CorpusStudy(dedup=dedup)
    for name, log in logs.items():
        stats = DatasetStats(
            name=name, total=log.total, valid=log.valid, unique=log.unique
        )
        study.datasets[name] = stats
        for parsed in log.unique_queries():
            weight = 1 if dedup else parsed.count
            _legacy_analyze_query(study, stats, parsed, weight)
    return study


# ---------------------------------------------------------------------------
# The property: pipeline ≡ monolith
# ---------------------------------------------------------------------------


def build_logs(picks):
    entries = [ENTRY_POOL[i] for i in picks]
    # Split the stream over two datasets, one of them Wikidata-named so
    # the SERVICE-stripping view is exercised through the context.
    half = len(entries) // 2
    return {
        "endpoint": build_query_log("endpoint", entries[:half]),
        "WikiData17": build_query_log("WikiData17", entries[half:]),
    }


class TestPipelineEqualsMonolith:
    @settings(max_examples=40, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(ENTRY_POOL) - 1), max_size=40
        ),
        dedup=st.booleans(),
    )
    def test_random_streams(self, picks, dedup):
        logs = build_logs(picks)
        expected = legacy_study_corpus(logs, dedup=dedup)
        actual = study_corpus(logs, dedup=dedup)
        assert actual == expected
        assert render_report(actual, "text") == render_report(expected, "text")

    def test_whole_pool_once(self):
        logs = build_logs(range(len(ENTRY_POOL)))
        expected = legacy_study_corpus(logs)
        actual = study_corpus(logs)
        assert actual == expected
        assert render_report(actual, "text") == render_report(expected, "text")

    def test_valid_corpus_weights(self):
        picks = [0, 0, 0, 4, 4, 7, 8, 8, 8, 8, 2]
        logs = build_logs(picks)
        expected = legacy_study_corpus(logs, dedup=False)
        actual = study_corpus(logs, dedup=False)
        assert actual == expected
