"""Canonical graphs and hypergraphs of queries (paper §5).

* The **canonical graph** of a *graph pattern* (a pattern whose triple
  patterns never use a variable in predicate position) has an edge
  {x, y} for every triple pattern (x, ℓ, y) with constant ℓ, and the
  subjects/objects as nodes.  Following footnote 20, filters of the
  form ``?x = ?y`` collapse the two nodes.
* The **canonical hypergraph** of any AOF pattern has one hyperedge per
  triple pattern, containing the *variables and blank nodes* of that
  triple (constants are not nodes of the hypergraph).

Edge direction and labels are dropped — the paper observes they do not
influence structure or cyclicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from ..rdf.terms import BlankNode, Term, Variable
from .facts import QueryFacts
from .graphutil import Multigraph

__all__ = [
    "Hypergraph",
    "canonical_graph",
    "canonical_hypergraph",
    "has_predicate_variable",
]


def has_predicate_variable(facts: QueryFacts) -> bool:
    """Does any triple pattern use a variable in predicate position?

    Such queries have no meaningful canonical graph (Example 5.1) and
    are analyzed through their hypergraph instead (§6.2).
    """
    return any(isinstance(triple.predicate, Variable) for triple in facts.triples)


def _equality_classes(facts: QueryFacts) -> Dict[Term, Term]:
    """Union-find representatives for ``?x = ?y`` filter collapsing."""
    parent: Dict[Term, Term] = {}

    def find(term: Term) -> Term:
        """Union-find root of *term*, with path compression."""
        root = term
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(term, term) != term:
            parent[term], term = root, parent[term]
        return root

    for constraint in facts.filters:
        if constraint.equality is not None:
            root_a, root_b = map(find, constraint.equality)
            if root_a != root_b:
                parent[root_a] = root_b
    return {term: find(term) for term in parent}


def canonical_graph(
    facts: QueryFacts,
    include_constants: bool = True,
    collapse_equalities: bool = True,
) -> Multigraph:
    """Build the canonical graph of the body behind *facts*, an AOF
    *graph pattern*.

    Raises :class:`ValueError` when a triple pattern has a variable
    predicate (callers should test :func:`has_predicate_variable`).

    With ``include_constants=False``, only variables and blank nodes
    become graph nodes (the paper's §6.1 constants-excluded rerun);
    triples with a constant endpoint then contribute an isolated node
    or nothing, rather than an edge.
    """
    representatives = (
        _equality_classes(facts) if collapse_equalities else {}
    )

    def rep(term: Term) -> Term:
        """Canonical representative of *term* under ``SameTerm`` merging."""
        return representatives.get(term, term)

    graph = Multigraph()
    for triple in facts.triples:
        if isinstance(triple.predicate, Variable):
            raise ValueError(
                "canonical graph undefined for predicate-variable triples"
            )
        subject, obj = rep(triple.subject), rep(triple.object)
        if include_constants:
            graph.add_edge(subject, obj)
            continue
        subject_is_node = isinstance(subject, (Variable, BlankNode))
        object_is_node = isinstance(obj, (Variable, BlankNode))
        if subject_is_node and object_is_node:
            graph.add_edge(subject, obj)
        elif subject_is_node:
            graph.add_node(subject)
        elif object_is_node:
            graph.add_node(obj)
    return graph


@dataclass
class Hypergraph:
    """A hypergraph: nodes plus a list of hyperedges (node frozensets).

    Empty hyperedges (triples without variables) are dropped — they
    contribute nothing to the structure.
    """

    nodes: Set[Term] = field(default_factory=set)
    edges: List[FrozenSet[Term]] = field(default_factory=list)

    def add_edge(self, edge: FrozenSet[Term]) -> None:
        """Add a hyperedge (duplicates collapse; supersets absorb)."""
        if edge:
            self.edges.append(edge)
            self.nodes |= edge

    def distinct_edges(self) -> List[FrozenSet[Term]]:
        """The edges with subset-dominated duplicates removed."""
        seen: Set[FrozenSet[Term]] = set()
        unique: List[FrozenSet[Term]] = []
        for edge in self.edges:
            if edge not in seen:
                seen.add(edge)
                unique.append(edge)
        return unique

    def primal_graph(self) -> Multigraph:
        """The Gaifman/primal graph: clique per hyperedge."""
        graph = Multigraph()
        for node in self.nodes:
            graph.add_node(node)
        seen_pairs: Set[FrozenSet[Term]] = set()
        for edge in self.edges:
            members = sorted(edge, key=lambda t: t.sort_key())
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    pair = frozenset((u, v))
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        graph.add_edge(u, v)
        return graph

    def is_acyclic(self) -> bool:
        """α-acyclicity via GYO reduction (ears removal).

        Repeatedly remove nodes contained in at most one hyperedge and
        hyperedges contained in another hyperedge; the hypergraph is
        acyclic iff this empties it.
        """
        edges = [set(edge) for edge in self.distinct_edges()]
        changed = True
        while changed and edges:
            changed = False
            # Remove hyperedges contained in another hyperedge.
            kept: List[Set[Term]] = []
            for i, edge in enumerate(edges):
                contained = any(
                    i != j and edge <= other
                    for j, other in enumerate(edges)
                )
                if contained:
                    changed = True
                else:
                    kept.append(edge)
            edges = kept
            # Remove nodes occurring in exactly one hyperedge.
            occurrence: Dict[Term, int] = {}
            for edge in edges:
                for node in edge:
                    occurrence[node] = occurrence.get(node, 0) + 1
            for edge in edges:
                lonely = {node for node in edge if occurrence[node] == 1}
                if lonely:
                    edge -= lonely
                    changed = True
            edges = [edge for edge in edges if edge]
        return not edges


def canonical_hypergraph(facts: QueryFacts) -> Hypergraph:
    """Build the canonical hypergraph of the AOF body behind *facts* (§5)."""
    hypergraph = Hypergraph()
    for triple in facts.triples:
        members = frozenset(
            term
            for term in triple.terms()
            if isinstance(term, (Variable, BlankNode))
        )
        hypergraph.add_edge(members)
    return hypergraph
