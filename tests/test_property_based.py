"""Property-based tests (hypothesis) on core invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    canonical_graph,
    classify_shape,
    hypertree_width,
    levenshtein,
    query_facts,
    treewidth,
)
from repro.analysis.graphutil import Multigraph
from repro.rdf import IRI, Literal, Variable
from repro.sparql import ast, parse_query, serialize_query

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@st.composite
def terms(draw, allow_variable=True):
    kind = draw(st.integers(0, 2 if allow_variable else 1))
    if kind == 0:
        return IRI("urn:" + draw(_names))
    if kind == 1:
        return Literal(draw(_names))
    return Variable(draw(_names))


@st.composite
def triple_patterns(draw):
    subject = draw(st.one_of(st.builds(Variable, _names), st.builds(lambda n: IRI("urn:" + n), _names)))
    predicate = draw(st.one_of(st.builds(Variable, _names), st.builds(lambda n: IRI("urn:" + n), _names)))
    obj = draw(terms())
    return ast.TriplePattern(subject, predicate, obj)


@st.composite
def cq_queries(draw):
    """Random conjunctive ASK queries."""
    triples = draw(st.lists(triple_patterns(), min_size=1, max_size=6))
    return ast.Query(
        query_type=ast.QueryType.ASK,
        pattern=ast.GroupPattern(tuple(triples)),
    )


@st.composite
def random_multigraphs(draw):
    n = draw(st.integers(1, 8))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=0,
            max_size=14,
        )
    )
    g = Multigraph()
    for i in range(n):
        g.add_node(i)
    for u, v in edges:
        g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# Parser / serializer round-trip
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(cq_queries())
def test_serialize_parse_round_trip(query):
    text = serialize_query(query)
    reparsed = parse_query(text)
    assert reparsed.pattern == query.pattern
    assert reparsed.query_type == query.query_type


@settings(max_examples=60, deadline=None)
@given(cq_queries())
def test_serialization_idempotent(query):
    once = serialize_query(parse_query(serialize_query(query)))
    twice = serialize_query(parse_query(once))
    assert once == twice


# ---------------------------------------------------------------------------
# Shape / width invariants
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(random_multigraphs())
def test_shape_cumulative_invariants(graph):
    profile = classify_shape(graph)
    if profile.single_edge:
        assert profile.chain
    if profile.chain:
        assert profile.chain_set and profile.tree
    if profile.chain_set:
        assert profile.forest
    if profile.star:
        assert profile.tree
    if profile.tree:
        assert profile.forest and profile.flower
    if profile.cycle:
        assert profile.flower
    if profile.flower:
        assert profile.flower_set
    if profile.forest:
        assert profile.flower_set


@settings(max_examples=120, deadline=None)
@given(random_multigraphs())
def test_treewidth_bounds(graph):
    result = treewidth(graph)
    assert result.width >= 0
    # Treewidth is at most n-1.
    if graph.node_count() > 0:
        assert result.width <= max(0, graph.node_count() - 1)
    # Forest <=> treewidth <= 1 (when nonempty edges exist).
    if graph.is_acyclic_simple() and graph.edge_count() > 0:
        assert result.width == 1


@settings(max_examples=100, deadline=None)
@given(random_multigraphs())
def test_forest_iff_no_girth(graph):
    profile = classify_shape(graph)
    assert profile.forest == (profile.shortest_cycle is None)


@settings(max_examples=60, deadline=None)
@given(cq_queries())
def test_canonical_graph_edges_match_triples(query):
    from repro.analysis import has_predicate_variable

    if has_predicate_variable(query_facts(query)):
        return
    graph = canonical_graph(query_facts(query), collapse_equalities=False)
    triples = len(query.pattern.elements)
    assert graph.edge_count() == triples


@settings(max_examples=60, deadline=None)
@given(cq_queries())
def test_hypergraph_width_at_least_one_when_variables(query):
    from repro.analysis import canonical_hypergraph

    hypergraph = canonical_hypergraph(query_facts(query))
    result = hypertree_width(hypergraph)
    if hypergraph.edges:
        assert result.width >= 1
    else:
        assert result.width == 0


# ---------------------------------------------------------------------------
# Levenshtein metric properties
# ---------------------------------------------------------------------------

_words = st.text(alphabet=string.ascii_lowercase + " {}?<>:", max_size=25)


@settings(max_examples=200, deadline=None)
@given(_words, _words)
def test_levenshtein_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@settings(max_examples=200, deadline=None)
@given(_words, _words)
def test_levenshtein_identity_of_indiscernibles(a, b):
    distance = levenshtein(a, b)
    assert (distance == 0) == (a == b)


@settings(max_examples=100, deadline=None)
@given(_words, _words, _words)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@settings(max_examples=200, deadline=None)
@given(_words, _words)
def test_levenshtein_length_bounds(a, b):
    distance = levenshtein(a, b)
    assert distance >= abs(len(a) - len(b))
    assert distance <= max(len(a), len(b))


@settings(max_examples=200, deadline=None)
@given(_words, _words, st.integers(0, 30))
def test_banded_levenshtein_agrees_with_full(a, b, budget):
    full = levenshtein(a, b)
    banded = levenshtein(a, b, max_distance=budget)
    if full <= budget:
        assert banded == full
    else:
        assert banded is None
