"""Property-based tests over richer pattern grammars.

Extends the CQ-only strategies of ``test_property_based`` with
OPTIONAL / UNION / FILTER structure, checking the invariants that tie
the analyses together: round-trips, fragment-membership monotonicity,
engine agreement, and study accounting.  A second grammar draws
FILTER / BIND expressions, property paths and solution modifiers, and
checks that they round-trip through the serializer.
"""


from hypothesis import example, given, settings, strategies as st

from repro.analysis import (
    classify_fragments,
    classify_operators,
    extract_features,
    query_facts,
)
from repro.engine import IndexedEngine, NestedLoopEngine
from repro.rdf import IRI, XSD_BOOLEAN, XSD_INTEGER, Graph, Literal, Triple, Variable
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


_variables = st.builds(Variable, _names)
_literals = st.one_of(
    st.builds(lambda n: Literal(str(n), datatype=XSD_INTEGER), st.integers(0, 99)),
    st.builds(Literal, st.sampled_from(["v1", 'q"uo\\te', "a\nb"])),
    st.builds(lambda text: Literal(text, language="en"), st.sampled_from(["x", "y"])),
    st.just(Literal("true", datatype=XSD_BOOLEAN)),
)


def _tuples(children, min_size=0, max_size=3):
    return st.lists(children, min_size=min_size, max_size=max_size).map(tuple)


def _compound_expressions(children):
    return st.one_of(
        st.builds(ast.OrExpression, _tuples(children, 2)),
        st.builds(ast.AndExpression, _tuples(children, 2)),
        st.builds(ast.NotExpression, children),
        st.builds(ast.UnaryMinus, children),
        st.builds(
            ast.Comparison, st.sampled_from(["=", "!=", "<", ">", "<=", ">="]),
            children, children,
        ),
        st.builds(ast.Arithmetic, st.sampled_from("+-*/"), children, children),
        st.builds(ast.InExpression, children, _tuples(children), st.booleans()),
        st.builds(
            ast.BuiltinCall, st.sampled_from(["STR", "REGEX", "COALESCE"]), _tuples(children)
        ),
        st.builds(ast.FunctionCall, _iris, _tuples(children), st.booleans()),
        st.builds(
            ast.Aggregate, st.sampled_from(["SUM", "MIN", "SAMPLE"]), children, st.booleans()
        ),
        st.builds(
            ast.Aggregate, st.just("GROUP_CONCAT"), children, st.booleans(),
            st.sampled_from([None, ", ", '"\\']),
        ),
        st.just(ast.Aggregate("COUNT", None)),
        st.builds(ast.ExistsExpression, aof_patterns(depth=0), st.booleans()),
    )


#: FILTER / BIND expressions over every expression node.
expressions = st.recursive(
    st.builds(ast.TermExpression, st.one_of(_variables, _iris, _literals)),
    _compound_expressions,
    max_leaves=8,
)

#: Property paths; a bare IRI is a plain triple pattern, not a path.
paths = st.recursive(
    st.one_of(
        st.builds(ast.PathIRI, _iris),
        st.builds(ast.PathNegated, _tuples(_iris, 0, 2), _tuples(_iris, 0, 2)).filter(
            lambda path: path.forward or path.inverse
        ),
    ),
    lambda children: st.one_of(
        st.builds(ast.PathInverse, children),
        st.builds(ast.PathSequence, _tuples(children, 2)),
        st.builds(ast.PathAlternative, _tuples(children, 2)),
        st.builds(ast.PathMod, children, st.sampled_from("*+?")),
    ),
    max_leaves=6,
).filter(lambda path: not isinstance(path, ast.PathIRI))

#: GROUP BY takes variables, ``(expr AS ?v)`` and parenthesised
#: compound expressions (a bare IRI or literal would not re-parse).
_group_conditions = st.one_of(
    st.builds(ast.TermExpression, _variables),
    st.builds(ast.ProjectionExpression, expressions, _variables),
    expressions.filter(lambda expression: not isinstance(expression, ast.TermExpression)),
)

modifiers = st.builds(
    ast.SolutionModifier,
    group_by=_tuples(_group_conditions),
    having=_tuples(expressions),
    order_by=_tuples(st.builds(ast.OrderCondition, expressions, st.booleans())),
    limit=st.none() | st.integers(0, 999),
    offset=st.none() | st.integers(0, 999),
)


@st.composite
def projections(draw):
    distinct, reduced = draw(st.sampled_from([(False, False), (True, False), (False, True)]))
    if draw(st.booleans()):
        return ast.Projection(select_all=True, distinct=distinct, reduced=reduced)
    items = draw(_tuples(
        st.one_of(_variables, st.builds(ast.ProjectionExpression, expressions, _variables)),
        min_size=1,
    ))
    return ast.Projection(items=items, distinct=distinct, reduced=reduced)


@st.composite
def modified_queries(draw):
    elements = [draw(triple_patterns())] + draw(st.lists(
        st.one_of(
            st.builds(ast.FilterPattern, expressions),
            st.builds(ast.BindPattern, expressions, _variables),
            st.builds(ast.PathPattern, _variables, paths, _variables),
        ),
        max_size=3,
    ))
    return ast.Query(
        query_type=ast.QueryType.SELECT,
        pattern=ast.GroupPattern(tuple(elements)),
        projection=draw(projections()),
        modifier=draw(modifiers),
    )


@settings(max_examples=150, deadline=None)
@given(modified_queries())
# Two HAVING conditions once serialized as two HAVING clauses.
@example(ast.Query(
    query_type=ast.QueryType.SELECT,
    pattern=ast.GroupPattern((ast.TriplePattern(Variable("s"), IRI("urn:p0"), Variable("o")),)),
    projection=ast.Projection(select_all=True),
    modifier=ast.SolutionModifier(having=(
        ast.TermExpression(Variable("a")), ast.TermExpression(Variable("b")),
    )),
))
def test_round_trip_expressions_paths_and_modifiers(query):
    assert parse_query(serialize_query(query)) == query
