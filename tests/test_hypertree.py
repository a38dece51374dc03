"""Unit tests for generalized hypertree width (§6.2)."""

from repro.analysis import canonical_hypergraph, hypertree_width, query_facts
from repro.analysis.canonical import Hypergraph
from repro.rdf import Variable
from repro.sparql import parse_query


def hypergraph_of(text):
    return canonical_hypergraph(query_facts(parse_query(text)))


def hg(*edges):
    h = Hypergraph()
    for edge in edges:
        h.add_edge(frozenset(Variable(x) for x in edge))
    return h


class TestWidthOne:
    def test_single_edge(self):
        result = hypertree_width(hg(("a", "b")))
        assert result.width == 1 and result.exact

    def test_chain(self):
        result = hypertree_width(hg(("a", "b"), ("b", "c"), ("c", "d")))
        assert result.width == 1
        assert result.node_count == 3

    def test_acyclic_with_big_edge(self):
        # {a,b,c} covers {a,b} and {b,c}: α-acyclic.
        result = hypertree_width(hg(("a", "b", "c"), ("a", "b"), ("b", "c")))
        assert result.width == 1

    def test_star(self):
        result = hypertree_width(hg(("x", "a"), ("x", "b"), ("x", "c")))
        assert result.width == 1

    def test_empty(self):
        result = hypertree_width(Hypergraph())
        assert result.width == 0 and result.node_count == 0

    def test_node_count_equals_edges_for_width_one(self):
        h = hg(("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"))
        result = hypertree_width(h)
        assert result.node_count == len(h.distinct_edges())


class TestWidthTwo:
    def test_triangle(self):
        result = hypertree_width(hg(("a", "b"), ("b", "c"), ("c", "a")))
        assert result.width == 2 and result.exact

    def test_square_cycle(self):
        result = hypertree_width(
            hg(("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
        )
        assert result.width == 2

    def test_example_5_1(self):
        h = hypergraph_of(
            "ASK WHERE {?x1 ?x2 ?x3 . ?x3 <urn:a> ?x4 . ?x4 ?x2 ?x5}"
        )
        result = hypertree_width(h)
        assert result.width == 2

    def test_decomposition_nodes_small(self):
        result = hypertree_width(hg(("a", "b"), ("b", "c"), ("c", "a")))
        assert 1 <= result.node_count <= 3


class TestWidthThree:
    def test_three_dimensional_cycle(self):
        # Pairwise-overlapping binary edges over 6 nodes in a pattern
        # requiring width 3 is hard to build small; instead verify a
        # width-2 certificate is refused where impossible: K4 primal via
        # six binary edges needs width >= 2 but is coverable by 2 edges?
        # Use the standard 3-uniform "triangle of triples" instead.
        h = hg(
            ("a", "b", "x"),
            ("b", "c", "y"),
            ("c", "a", "z"),
            ("x", "y", "z"),
        )
        result = hypertree_width(h, max_width=4)
        assert result.exact
        assert result.width == 2

    def test_k4_binary_edges(self):
        h = hg(
            ("a", "b"), ("a", "c"), ("a", "d"),
            ("b", "c"), ("b", "d"), ("c", "d"),
        )
        result = hypertree_width(h)
        assert result.width == 2  # K4 has ghw 2 (each bag = 2 edges)

    def test_width_exceeding_max_returns_bound(self):
        # A 5-cycle of binary edges has ghw 2; force failure with
        # max_width=1 is impossible (function starts at acyclic check,
        # then k=2..max). Use max_width=1 via parameter.
        h = hg(("a", "b"), ("b", "c"), ("c", "a"))
        result = hypertree_width(h, max_width=1)
        assert not result.exact
        assert result.width == 3  # trivial bound: number of edges


class TestGYOInteraction:
    def test_duplicate_edges_do_not_inflate(self):
        h = hg(("a", "b"), ("a", "b"), ("b", "c"))
        result = hypertree_width(h)
        assert result.width == 1
        assert result.node_count == 2

    def test_single_variable_triple(self):
        h = hypergraph_of("ASK { ?a <urn:p> <urn:o> . ?a <urn:q> ?b }")
        result = hypertree_width(h)
        assert result.width == 1

    def test_search_limit_fallback(self):
        h = hg(*[(f"n{i}", f"n{(i + 1) % 70}") for i in range(70)])
        result = hypertree_width(h, search_limit=10)
        assert not result.exact
