"""The one-walk QueryFacts record ≡ the walker-based classifiers.

Every analyzer pass reads :func:`repro.analysis.facts.query_facts`
instead of walking the query itself.  The walkers it replaced live on
in ``tests/oracles.py``; this module checks that features, operator
sets, fragment profiles, canonical graphs and hypergraphs, simple
filters and property paths read off the record equal the oracles' on
generated ASTs, on hand-picked edge cases and on every query of the
corpora of seeds 10–12.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_graph_reference,
    canonical_hypergraph_reference,
    features_reference,
    fragments_reference,
    operators_reference,
    path_patterns_reference,
    predicate_variable_reference,
    simple_filter_reference,
)
from repro.analysis import (
    canonical_graph,
    canonical_hypergraph,
    classify_fragments,
    classify_operators,
    extract_features,
    has_predicate_variable,
    query_facts,
)
from repro.logs import build_query_log
from repro.rdf import IRI, Literal, Variable
from repro.sparql import ast, parse_query, walk
from repro.workload import generate_corpus
from test_property_based import cq_queries
from test_property_based_patterns import queries as aof_union_queries


def _graph_or_error(build, *args, **kwargs):
    try:
        graph = build(*args, **kwargs)
    except ValueError as error:
        return ("error", str(error))
    return (graph.nodes(), list(graph.edge_triples()))


def assert_facts_match_oracles(query):
    facts = query_facts(query)
    pattern = query.pattern
    assert extract_features(facts) == features_reference(query)
    assert classify_operators(facts) == operators_reference(query)
    assert classify_fragments(facts) == fragments_reference(query)
    assert has_predicate_variable(facts) == predicate_variable_reference(pattern)
    assert list(facts.paths) == path_patterns_reference(pattern)
    assert canonical_hypergraph(facts) == canonical_hypergraph_reference(pattern)
    for options in (
        {},
        {"include_constants": False},
        {"collapse_equalities": False},
    ):
        assert _graph_or_error(canonical_graph, facts, **options) == (
            _graph_or_error(canonical_graph_reference, pattern, **options)
        )
    body_filters = [
        node.expression
        for node in walk.iter_patterns(pattern, enter_subqueries=False)
        if isinstance(node, ast.FilterPattern)
    ]
    assert [f.simple for f in facts.filters] == [
        simple_filter_reference(expression) for expression in body_filters
    ]


def assert_both_views_match(query):
    """The query as parsed and its SERVICE-stripped Wikidata view."""
    assert_facts_match_oracles(query)
    stripped = walk.strip_services(query)
    if stripped is not query:
        assert_facts_match_oracles(stripped)


# ---------------------------------------------------------------------------
# A generator over every pattern and expression kind the passes look at
# ---------------------------------------------------------------------------

_variables = st.sampled_from([Variable(name) for name in "abcxyz"])
_iris = st.sampled_from([IRI(f"urn:p{i}") for i in range(4)])
_terms = st.one_of(_variables, _iris, st.just(Literal("v")))


def _var(variable):
    return ast.TermExpression(variable)


@st.composite
def expressions(draw, depth=2):
    options = ["term", "equality", "compare", "aggregate", "builtin"]
    if depth > 0:
        options += ["and", "exists"]
    kind = draw(st.sampled_from(options))
    if kind == "term":
        return ast.TermExpression(draw(_terms))
    if kind == "equality":
        return ast.Comparison("=", _var(draw(_variables)), _var(draw(_variables)))
    if kind == "compare":
        return ast.Comparison(
            draw(st.sampled_from(["<", "!=", "="])),
            ast.TermExpression(draw(_terms)),
            ast.TermExpression(draw(_terms)),
        )
    if kind == "aggregate":
        return ast.Aggregate(
            draw(st.sampled_from(["COUNT", "SUM", "SAMPLE", "GROUP_CONCAT"])),
            _var(draw(_variables)),
        )
    if kind == "builtin":
        return ast.BuiltinCall("BOUND", (_var(draw(_variables)),))
    if kind == "and":
        return ast.AndExpression(tuple(
            draw(st.lists(expressions(depth=depth - 1), min_size=2, max_size=3))
        ))
    return ast.ExistsExpression(
        draw(groups(depth=depth - 1)), negated=draw(st.booleans())
    )


@st.composite
def elements(draw, depth):
    options = ["triple", "triple", "path", "filter", "bind", "values"]
    if depth > 0:
        options += ["optional", "union", "graph", "minus", "service", "group",
                    "subquery"]
    kind = draw(st.sampled_from(options))
    if kind == "triple":
        return ast.TriplePattern(
            draw(_terms), draw(st.one_of(_iris, _variables)), draw(_terms)
        )
    if kind == "path":
        path = ast.PathMod(ast.PathIRI(draw(_iris)), draw(st.sampled_from("*+?")))
        return ast.PathPattern(draw(_terms), path, draw(_terms))
    if kind == "filter":
        return ast.FilterPattern(draw(expressions()))
    if kind == "bind":
        return ast.BindPattern(draw(expressions(depth=1)), draw(_variables))
    if kind == "values":
        return ast.ValuesPattern((draw(_variables),), ((draw(_iris),),))
    inner = draw(groups(depth=depth - 1))
    if kind == "optional":
        return ast.OptionalPattern(inner)
    if kind == "union":
        return ast.UnionPattern(inner, draw(groups(depth=depth - 1)))
    if kind == "graph":
        return ast.GraphGraphPattern(draw(st.one_of(_iris, _variables)), inner)
    if kind == "minus":
        return ast.MinusPattern(inner)
    if kind == "service":
        return ast.ServicePattern(draw(st.one_of(_iris, _variables)), inner)
    if kind == "group":
        return inner
    return ast.SubSelectPattern(draw(select_queries(inner)))


@st.composite
def groups(draw, depth=2):
    return ast.GroupPattern(tuple(
        draw(st.lists(elements(depth), min_size=0, max_size=4))
    ))


@st.composite
def select_queries(draw, pattern):
    if draw(st.booleans()):
        projection = ast.Projection(select_all=True)
    else:
        items = draw(st.lists(_variables, min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):
            items.append(ast.ProjectionExpression(draw(expressions(depth=0)),
                                                  Variable("agg")))
        projection = ast.Projection(
            items=tuple(items), distinct=draw(st.booleans()),
            reduced=draw(st.booleans()),
        )
    modifier = ast.SolutionModifier(
        having=tuple(draw(st.lists(expressions(depth=0), max_size=1))),
        order_by=tuple(
            ast.OrderCondition(expression)
            for expression in draw(st.lists(expressions(depth=0), max_size=1))
        ),
        limit=draw(st.one_of(st.none(), st.just(10))),
        offset=draw(st.one_of(st.none(), st.just(5))),
    )
    return ast.Query(
        query_type=ast.QueryType.SELECT,
        pattern=pattern,
        projection=projection,
        modifier=modifier,
    )


@st.composite
def rich_queries(draw):
    pattern = draw(groups())
    kind = draw(st.sampled_from(["select", "ask", "construct", "describe"]))
    if kind == "select":
        return draw(select_queries(pattern))
    if kind == "ask":
        return ast.Query(query_type=ast.QueryType.ASK, pattern=pattern)
    if kind == "construct":
        return ast.Query(query_type=ast.QueryType.CONSTRUCT, pattern=pattern)
    return ast.Query(
        query_type=ast.QueryType.DESCRIBE,
        pattern=draw(st.one_of(st.none(), st.just(pattern))),
        describe_all=True,
    )


@settings(max_examples=300, deadline=None)
@given(rich_queries())
def test_rich_queries_match_oracles(query):
    assert_both_views_match(query)


@settings(max_examples=100, deadline=None)
@given(aof_union_queries())
def test_aof_union_queries_match_oracles(query):
    assert_facts_match_oracles(query)


@settings(max_examples=100, deadline=None)
@given(cq_queries())
def test_cq_queries_match_oracles(query):
    assert_facts_match_oracles(query)


EDGE_CASES = [
    "DESCRIBE <urn:x>",
    "CONSTRUCT { ?s <urn:p> ?o } WHERE { ?s <urn:q> ?o OPTIONAL { ?o <urn:r> ?z } }",
    "SELECT ?s WHERE { ?s <urn:p> ?o BIND(1 AS ?b) }",
    "SELECT ?s ?b WHERE { ?s <urn:p> ?o BIND(EXISTS { ?o <urn:q> ?w } AS ?b) }",
    "SELECT ?s WHERE { ?s <urn:p> ?o FILTER EXISTS { ?o <urn:q> ?w "
    "OPTIONAL { ?w <urn:r> ?v } FILTER(?w = ?v) } }",
    "SELECT ?x WHERE { { SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x <urn:p> ?y "
    "FILTER NOT EXISTS { ?y <urn:q>+ ?x } } GROUP BY ?x HAVING(COUNT(?y) > 2) } }",
    "SELECT * WHERE { ?item <urn:p> ?v SERVICE <urn:label> { ?item <urn:l>/<urn:m> ?l } }",
    "SELECT ?item WHERE { SERVICE <urn:label> { ?item <urn:l> ?l } }",
    "ASK { GRAPH ?g { ?a <urn:p> ?b } MINUS { ?a <urn:q> ?b } VALUES ?a { <urn:x> } }",
    "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c FILTER(?a = ?c) FILTER(?b = ?a) }",
    "ASK { ?x1 ?x2 ?x3 . ?x3 <urn:a> ?x4 . ?x4 ?x2 ?x5 }",
    # Joins, filters and Opt inside a subquery stay out of the body's
    # operator set.
    "SELECT * WHERE { { SELECT ?x WHERE { ?x <urn:p> ?y . ?y <urn:q> ?z "
    "OPTIONAL { ?z <urn:r> ?w } FILTER(?y = ?z) } } }",
    "SELECT ?x WHERE { ?x <urn:p> ?y FILTER(?y > SUM(?x)) } ORDER BY DESC(?y) "
    "LIMIT 3 OFFSET 1",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_match_oracles(text):
    assert_both_views_match(parse_query(text))


@pytest.fixture(scope="module")
def corpus_queries():
    """The unique valid queries of corpus seeds 10-12 (perfbench seed
    1's corpora), at perfbench's scale."""
    queries = []
    for seed in (10, 11, 12):
        for name, texts in generate_corpus(scale=2e-5, seed=seed).items():
            log = build_query_log(name, texts)
            queries.extend(parsed.query for parsed in log.unique_queries())
    return queries


def test_every_corpus_query_matches_oracles(corpus_queries):
    assert len(corpus_queries) > 3000
    for query in corpus_queries:
        assert_both_views_match(query)
