"""The precedence loops against the recursive-descent reference parser.

:class:`repro.sparql.parser.Parser` parses expressions and property
paths with one loop each; :class:`oracles.ParserReference` is the same
parser with one method per grammar level, as it was before.  Below the
nesting limit both must return equal ASTs, or both raise
:class:`SparqlSyntaxError`, on every input: the unique texts of corpus
seeds 10-12, the golden logs, byte mutations of the golden queries, and
drawn expression and path strings.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import ParserReference
from repro.exceptions import SparqlSyntaxError
from repro.rdf.namespaces import WELL_KNOWN_PREFIXES
from repro.sparql.parser import Parser
from repro.workload import generate_corpus
from test_lexer_fuzz import GOLDEN_QUERIES, mutated_golden


def outcome(parser, text, prefixes):
    try:
        return parser(text, extra_prefixes=prefixes).parse()
    except SparqlSyntaxError:
        return SparqlSyntaxError


def assert_same(text, prefixes_options=(None, WELL_KNOWN_PREFIXES)):
    for prefixes in prefixes_options:
        assert outcome(Parser, text, prefixes) == outcome(ParserReference, text, prefixes)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_corpus_seed_texts(seed):
    texts = set()
    for queries in generate_corpus(scale=2e-5, seed=seed).values():
        texts.update(queries)
    for text in sorted(texts):
        assert_same(text, (WELL_KNOWN_PREFIXES,))


def test_golden_queries():
    for text in GOLDEN_QUERIES:
        assert_same(text)


@settings(max_examples=300, deadline=None)
@given(mutated_golden())
def test_mutated_golden_queries(text):
    assert_same(text)


_ATOMS = st.sampled_from([
    "?a", "?b", "1", "2.5", '"s"', "true", "<urn:f>(?a, 1)", "STR(?a)",
    "COUNT(DISTINCT ?a)", "EXISTS { ?s ?p ?o }", "NOT EXISTS { }",
])
_BINARY = st.sampled_from(["||", "&&", "=", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/"])
_TRAILERS = st.sampled_from(["IN (?a, 1)", "NOT IN ()", "NOT IN (?b)", "IN", "NOT", ")", "(", ","])


@st.composite
def expressions(draw, depth=2):
    """Operator mixes with runs of unary operators, parentheses, chained
    comparisons, [NOT] IN and the odd stray token."""
    parts = []
    for index in range(draw(st.integers(1, 5))):
        if index:
            parts.append(draw(_BINARY))
        parts.extend(draw(st.text("!-+", max_size=3)))
        if depth and draw(st.integers(0, 3)) == 0:
            parts.append("(" + draw(expressions(depth - 1)) + ")")
        else:
            parts.append(draw(_ATOMS))
        if draw(st.integers(0, 5)) == 0:
            parts.append(draw(_TRAILERS))
    return " ".join(parts)


@settings(max_examples=400, deadline=None)
@given(expressions())
@example("?a = ?b = ?c")
@example("?a < ?b + 1 IN (2)")
@example("?a IN (1) NOT IN (2)")
@example("?a + ?b IN (1) * 2")
@example("?a IN (1) && ?b NOT IN (?c) || ! ?d")
@example("+ ?a - - ?b * + - ! ?c")
def test_drawn_expressions(expression):
    assert_same(f"SELECT * WHERE {{ FILTER ({expression}) }}", (None,))
    assert_same(f"SELECT ({expression} AS ?v) WHERE {{ }}", (None,))


_STEPS = st.sampled_from(["<urn:p>", "a", "!<urn:q>", "!(a|^<urn:r>)", "?x", "!()"])


@st.composite
def paths(draw, depth=2):
    """Sequences and alternatives of inverted, modified and
    parenthesised steps, with the odd stray token."""
    parts = []
    for index in range(draw(st.integers(1, 4))):
        if index:
            parts.append(draw(st.sampled_from(["/", "|"])))
        if draw(st.booleans()):
            parts.append("^")
        if depth and draw(st.integers(0, 2)) == 0:
            parts.append("(" + draw(paths(depth - 1)) + ")")
        else:
            parts.append(draw(_STEPS))
        parts.append(draw(st.sampled_from(["", "", "*", "+", "?", "^", ")"])))
    return " ".join(parts)


@settings(max_examples=300, deadline=None)
@given(paths())
@example("^(<urn:p>/a)* | !(^a)")
@example("(<urn:p>|<urn:q>)+ / ^<urn:r>?")
def test_drawn_paths(path):
    assert_same(f"SELECT * WHERE {{ ?s {path} ?o ; {path} [ {path} ?z ] }}", (None,))
