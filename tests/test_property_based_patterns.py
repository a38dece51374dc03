"""Property-based tests over richer pattern grammars.

Extends the CQ-only strategies of ``test_property_based`` with
OPTIONAL / UNION / FILTER structure, checking the invariants that tie
the analyses together: round-trips, fragment-membership monotonicity,
engine agreement, and study accounting.
"""


from hypothesis import given, settings, strategies as st

from repro.analysis import (
    classify_fragments,
    classify_operators,
    extract_features,
    query_facts,
)
from repro.engine import IndexedEngine, NestedLoopEngine
from repro.rdf import IRI, Graph, Literal, Triple, Variable
from repro.sparql import ast, parse_query, serialize_query

_names = st.sampled_from(["a", "b", "c", "x", "y", "z", "s", "o"])
_iris = st.sampled_from([IRI(f"urn:p{i}") for i in range(5)])


@st.composite
def triple_patterns(draw):
    subject = Variable(draw(_names))
    predicate = draw(st.one_of(_iris, st.builds(Variable, _names)))
    obj = draw(
        st.one_of(
            st.builds(Variable, _names),
            _iris,
            st.builds(Literal, st.sampled_from(["v1", "v2"])),
        )
    )
    return ast.TriplePattern(subject, predicate, obj)


@st.composite
def simple_filters(draw):
    variable = Variable(draw(_names))
    value = Literal(str(draw(st.integers(0, 9))),
                    datatype="http://www.w3.org/2001/XMLSchema#integer")
    return ast.FilterPattern(
        ast.Comparison(
            draw(st.sampled_from(["=", "!=", "<", ">"])),
            ast.TermExpression(variable),
            ast.TermExpression(value),
        )
    )


@st.composite
def aof_patterns(draw, depth=2):
    elements = draw(st.lists(triple_patterns(), min_size=1, max_size=3))
    if depth > 0 and draw(st.booleans()):
        elements.append(
            ast.OptionalPattern(draw(aof_patterns(depth=depth - 1)))
        )
    if draw(st.booleans()):
        elements.append(draw(simple_filters()))
    return ast.GroupPattern(tuple(elements))


@st.composite
def general_patterns(draw):
    base = draw(aof_patterns())
    if draw(st.booleans()):
        other = draw(aof_patterns(depth=0))
        return ast.GroupPattern((ast.UnionPattern(base, other),))
    return base


@st.composite
def queries(draw):
    return ast.Query(
        query_type=ast.QueryType.ASK,
        pattern=draw(general_patterns()),
    )


@settings(max_examples=80, deadline=None)
@given(queries())
def test_round_trip_rich_patterns(query):
    reparsed = parse_query(serialize_query(query))
    assert reparsed.pattern == query.pattern


@settings(max_examples=80, deadline=None)
@given(queries())
def test_fragment_nesting(query):
    profile = classify_fragments(query_facts(query))
    if profile.is_cq:
        assert profile.is_cpf
    if profile.is_cqf:
        assert profile.is_cpf
        assert profile.is_aof
    if profile.is_cqof:
        assert profile.is_aof
        assert profile.is_well_designed


@settings(max_examples=80, deadline=None)
@given(queries())
def test_operator_classification_consistent_with_features(query):
    facts = query_facts(query)
    features = extract_features(facts)
    classification = classify_operators(facts)
    if classification.pure:
        letters = classification.letters
        assert ("Filter" in features.keywords) == ("F" in letters)
        assert ("Union" in features.keywords) == ("U" in letters)
        assert ("Opt" in features.keywords) == ("O" in letters)


@settings(max_examples=40, deadline=None)
@given(queries())
def test_engines_agree(query):
    graph = Graph()
    p0, p1 = IRI("urn:p0"), IRI("urn:p1")
    nodes = [IRI(f"urn:n{i}") for i in range(4)]
    for i, node in enumerate(nodes):
        graph.add(Triple(node, p0, nodes[(i + 1) % 4]))
        graph.add(Triple(node, p1, Literal(str(i),
                  datatype="http://www.w3.org/2001/XMLSchema#integer")))
    indexed = IndexedEngine(graph).evaluate(query)
    scanned = NestedLoopEngine(graph).evaluate(query)
    assert indexed == scanned  # both are bools for ASK
