"""Unit tests for the shape classifier (Table 4)."""

from repro.analysis import canonical_graph, classify_shape, query_facts
from repro.analysis.graphutil import Multigraph
from repro.analysis.shapes import (
    is_chain,
    is_chain_set,
    is_cycle,
    is_flower,
    is_flower_set,
    is_forest,
    is_petal,
    is_single_edge,
    is_star,
    is_tree,
)
from repro.sparql import parse_query


def graph_of(text):
    return canonical_graph(query_facts(parse_query(text)))


def build(*edges):
    g = Multigraph()
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestBasicShapes:
    def test_single_edge(self):
        g = graph_of("ASK { ?a <urn:p> ?b }")
        assert is_single_edge(g) and is_chain(g) and is_tree(g)

    def test_loop_is_not_single_edge(self):
        assert not is_single_edge(graph_of("ASK { ?a <urn:p> ?a }"))

    def test_chain(self):
        g = graph_of("ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }")
        assert is_chain(g) and not is_single_edge(g)

    def test_chain_set(self):
        g = graph_of("ASK { ?a <urn:p> ?b . ?c <urn:q> ?d }")
        assert is_chain_set(g) and not is_chain(g)

    def test_star(self):
        g = graph_of(
            "ASK { ?x <urn:p> ?a . ?x <urn:q> ?b . ?x <urn:r> ?c }"
        )
        assert is_star(g) and is_tree(g) and not is_chain(g)

    def test_two_centers_not_star(self):
        g = build((0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6))
        assert is_tree(g) and not is_star(g)

    def test_tree(self):
        g = graph_of(
            "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?b <urn:r> ?d . ?d <urn:s> ?e }"
        )
        assert is_tree(g) and is_forest(g)

    def test_forest(self):
        g = graph_of(
            "ASK { ?x <urn:p> ?a . ?x <urn:q> ?b . ?x <urn:r> ?c . ?m <urn:s> ?n }"
        )
        assert is_forest(g) and not is_tree(g)


class TestCycles:
    def test_triangle(self):
        g = graph_of("ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }")
        assert is_cycle(g) and is_petal(g) and is_flower(g)

    def test_two_node_cycle_from_parallel_edges(self):
        g = graph_of("ASK { ?a <urn:p> ?b . ?b <urn:q> ?a }")
        assert is_cycle(g)

    def test_self_loop_cycle(self):
        g = graph_of("ASK { ?a <urn:p> ?a }")
        assert is_cycle(g)

    def test_chain_not_cycle(self):
        assert not is_cycle(graph_of("ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }"))

    def test_cycle_with_tail_not_cycle(self):
        g = build((0, 1), (1, 2), (2, 0), (2, 3))
        assert not is_cycle(g)
        assert is_flower(g)  # triangle petal + stamen at node 2


class TestPetals:
    def test_theta_graph_is_petal(self):
        # Three disjoint paths between s=0 and t=3.
        g = build((0, 1), (1, 3), (0, 2), (2, 3), (0, 3))
        assert is_petal(g)

    def test_dumbbell_not_petal(self):
        # Two cycles joined by a path: exceptional degrees at two nodes
        # but the lobes are s–s / t–t chains.
        g = build(
            (0, 1), (1, 2), (2, 0),  # triangle at 0
            (0, 3),  # bridge
            (3, 4), (4, 5), (5, 3),  # triangle at 3
        )
        assert not is_petal(g)

    def test_cycle_is_petal(self):
        g = build((0, 1), (1, 2), (2, 3), (3, 0))
        assert is_petal(g)

    def test_petal_with_extra_leaf_not_petal(self):
        g = build((0, 1), (1, 3), (0, 2), (2, 3), (1, 9))
        assert not is_petal(g)


class TestFlowers:
    def test_flower_paper_style(self):
        # Core with two petals and two stamens.
        g = build(
            (0, 1), (1, 2), (2, 0),       # petal 1 (triangle)
            (0, 3), (3, 4), (4, 0),       # petal 2 (triangle)
            (0, 5), (5, 6),               # stamen (chain)
            (0, 7),                       # stamen (single edge)
        )
        assert is_flower(g)
        assert not is_tree(g) and not is_cycle(g)

    def test_tree_is_flower(self):
        g = build((0, 1), (1, 2), (1, 3))
        assert is_flower(g)

    def test_flower_with_stem(self):
        # A tree-not-chain attachment (stem) plus one petal.
        g = build(
            (0, 1), (1, 2), (2, 0),        # petal
            (0, 3), (3, 4), (3, 5),        # stem: tree branching at 3
        )
        assert is_flower(g)

    def test_two_separate_cycles_not_flower(self):
        # Two cycles sharing no node, connected by a path: no single
        # core covers both petals.
        g = build(
            (0, 1), (1, 2), (2, 0),
            (2, 3),
            (3, 4), (4, 5), (5, 3),
        )
        assert not is_flower(g)
        assert not is_flower_set(g)  # it is connected, so same verdict

    def test_flower_set(self):
        g = build(
            (0, 1), (1, 2), (2, 0),  # flower (cycle)
            (10, 11), (11, 12),      # chain (trivially a flower)
        )
        assert is_flower_set(g)
        assert not is_flower(g)  # not connected

    def test_loop_at_core_is_flower(self):
        g = build((0, 0), (0, 1))
        assert is_flower(g)


class TestClassifyProfile:
    def test_cumulative_containments(self):
        """Every Table 4 row must subsume its simpler rows."""
        samples = [
            "ASK { ?a <urn:p> ?b }",
            "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }",
            "ASK { ?x <urn:p> ?a . ?x <urn:q> ?b . ?x <urn:r> ?c }",
            "ASK { ?a <urn:p> ?b . ?c <urn:q> ?d }",
            "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }",
        ]
        for text in samples:
            profile = classify_shape(graph_of(text))
            if profile.single_edge:
                assert profile.chain
            if profile.chain:
                assert profile.chain_set and profile.tree
            if profile.star:
                assert profile.tree
            if profile.tree:
                assert profile.forest and profile.flower
            if profile.cycle:
                assert profile.flower
            if profile.flower or profile.forest:
                assert profile.flower_set

    def test_shortest_cycle_reported(self):
        profile = classify_shape(
            graph_of("ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }")
        )
        assert profile.shortest_cycle == 3

    def test_acyclic_has_no_shortest_cycle(self):
        profile = classify_shape(graph_of("ASK { ?a <urn:p> ?b }"))
        assert profile.shortest_cycle is None

    def test_as_dict_has_all_table4_rows(self):
        profile = classify_shape(graph_of("ASK { ?a <urn:p> ?b }"))
        assert set(profile.as_dict()) == {
            "single edge", "chain", "chain set", "star", "tree",
            "forest", "cycle", "flower", "flower set",
        }
