"""Unit tests for canonical graphs and hypergraphs (§5)."""

import pytest

from repro.analysis import (
    canonical_graph,
    canonical_hypergraph,
    has_predicate_variable,
    query_facts,
)
from repro.rdf import IRI, Variable
from repro.sparql import parse_query


def facts_of(text):
    return query_facts(parse_query(text))


class TestCanonicalGraph:
    def test_chain_example_5_1(self):
        graph = canonical_graph(
            facts_of("ASK WHERE {?x1 <urn:a> ?x2 . ?x2 <urn:b> ?x3 . ?x3 <urn:c> ?x4}")
        )
        assert graph.node_count() == 4
        assert graph.edge_count() == 3
        degrees = sorted(graph.simple_degree(n) for n in graph.nodes())
        assert degrees == [1, 1, 2, 2]

    def test_direction_ignored(self):
        g1 = canonical_graph(facts_of("ASK { ?a <urn:p> ?b }"))
        g2 = canonical_graph(facts_of("ASK { ?b <urn:p> ?a }"))
        assert g1.edge_count() == g2.edge_count() == 1

    def test_self_loop(self):
        graph = canonical_graph(facts_of("ASK { ?x <urn:p> ?x }"))
        assert graph.has_loops()

    def test_parallel_edges_kept(self):
        graph = canonical_graph(
            facts_of("ASK { ?a <urn:p> ?b . ?a <urn:q> ?b }")
        )
        assert graph.multiplicity(
            Variable("a"), Variable("b")
        ) == 2

    def test_constants_are_nodes(self):
        graph = canonical_graph(facts_of("ASK { ?a <urn:p> <urn:const> }"))
        assert graph.has_node(IRI("urn:const"))
        assert graph.edge_count() == 1

    def test_exclude_constants(self):
        graph = canonical_graph(
            facts_of("ASK { ?a <urn:p> <urn:const> }"),
            include_constants=False,
        )
        assert graph.node_count() == 1
        assert graph.edge_count() == 0

    def test_exclude_constants_keeps_variable_edges(self):
        graph = canonical_graph(
            facts_of("ASK { ?a <urn:p> ?b . ?a <urn:q> <urn:c> }"),
            include_constants=False,
        )
        assert graph.node_count() == 2
        assert graph.edge_count() == 1

    def test_predicate_variable_raises(self):
        with pytest.raises(ValueError):
            canonical_graph(facts_of("ASK { ?a ?p ?b }"))

    def test_filter_equality_collapses_nodes(self):
        graph = canonical_graph(
            facts_of("ASK { ?a <urn:p> ?b . ?c <urn:q> ?d FILTER(?b = ?c) }")
        )
        # ?b and ?c merge: chain a-bc-d.
        assert graph.node_count() == 3
        assert graph.is_connected()

    def test_filter_collapse_can_create_cycle(self):
        graph = canonical_graph(
            facts_of(
                "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?a <urn:r> ?d "
                "FILTER(?c = ?d) }"
            )
        )
        assert graph.girth() == 3

    def test_collapse_disabled(self):
        graph = canonical_graph(
            facts_of("ASK { ?a <urn:p> ?b . ?c <urn:q> ?d FILTER(?b = ?c) }"),
            collapse_equalities=False,
        )
        assert graph.node_count() == 4

    def test_optional_triples_included(self):
        graph = canonical_graph(
            facts_of("SELECT * WHERE { ?a <urn:p> ?b OPTIONAL { ?b <urn:q> ?c } }")
        )
        assert graph.node_count() == 3
        assert graph.edge_count() == 2


class TestPredicateVariableDetection:
    def test_detects(self):
        assert has_predicate_variable(facts_of("ASK { ?a ?p ?b }"))

    def test_negative(self):
        assert not has_predicate_variable(facts_of("ASK { ?a <urn:p> ?b }"))

    def test_inside_optional(self):
        assert has_predicate_variable(
            facts_of("SELECT * WHERE { ?a <urn:p> ?b OPTIONAL { ?a ?p ?c } }")
        )


class TestCanonicalHypergraph:
    def test_example_5_1_hypergraph(self):
        hypergraph = canonical_hypergraph(
            facts_of("ASK WHERE {?x1 ?x2 ?x3 . ?x3 <urn:a> ?x4 . ?x4 ?x2 ?x5}")
        )
        assert len(hypergraph.edges) == 3
        sizes = sorted(len(e) for e in hypergraph.edges)
        assert sizes == [2, 3, 3]
        assert not hypergraph.is_acyclic()

    def test_constants_not_nodes(self):
        hypergraph = canonical_hypergraph(
            facts_of("ASK { ?a <urn:p> <urn:const> }")
        )
        assert hypergraph.nodes == {Variable("a")}

    def test_all_constant_triple_dropped(self):
        hypergraph = canonical_hypergraph(
            facts_of("ASK { <urn:s> <urn:p> <urn:o> }")
        )
        assert hypergraph.edges == []

    def test_acyclic_chain(self):
        hypergraph = canonical_hypergraph(
            facts_of("ASK { ?a ?p ?b . ?b ?q ?c }")
        )
        assert hypergraph.is_acyclic()

    def test_triangle_not_acyclic(self):
        hypergraph = canonical_hypergraph(
            facts_of(
                "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }"
            )
        )
        assert not hypergraph.is_acyclic()

    def test_distinct_edges_dedup(self):
        hypergraph = canonical_hypergraph(
            facts_of("ASK { ?a <urn:p> ?b . ?a <urn:q> ?b }")
        )
        assert len(hypergraph.edges) == 2
        assert len(hypergraph.distinct_edges()) == 1

    def test_primal_graph(self):
        hypergraph = canonical_hypergraph(facts_of("ASK { ?a ?p ?b }"))
        primal = hypergraph.primal_graph()
        assert primal.node_count() == 3
        assert primal.edge_count() == 3  # triangle over {a, p, b}
