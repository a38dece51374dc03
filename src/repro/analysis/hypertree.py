"""Generalized hypertree width for small widths (paper §6.2).

The paper runs detkdecomp on the canonical hypergraphs of the 6.96M
CQOF queries with predicate variables and finds width 1 everywhere
except 86 queries of width 2 and eight of width 3, with decompositions
of at most ten nodes.  This module reproduces that measurement:

* width 1 is equivalent to α-acyclicity, decided by GYO reduction;
* width ≤ k (k = 2, 3, …) is decided by the standard top-down
  decomposition search: pick a bag that is the union of ≤ k hyperedges
  covering the connector set, split the remaining hyperedges into
  connected components, and recurse — memoized on (component,
  connector), which is exactly det-k-decomp's strategy.

The search also returns the number of decomposition nodes, which §6.2
uses as a proxy for caching opportunities in trie joins.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..rdf.terms import Term
from .canonical import Hypergraph

__all__ = ["hypertree_width", "HypertreeResult"]

Edge = FrozenSet[Term]


class HypertreeResult:
    """Width, exactness flag, and decomposition node count."""

    __slots__ = ("width", "exact", "node_count")

    def __init__(self, width: int, exact: bool, node_count: int) -> None:
        self.width = width
        self.exact = exact
        self.node_count = node_count

    def __repr__(self) -> str:
        marker = "" if self.exact else "<="
        return f"HypertreeResult({marker}{self.width}, nodes={self.node_count})"


def hypertree_width(
    hypergraph: Hypergraph, max_width: int = 4, search_limit: int = 64
) -> HypertreeResult:
    """Compute the (generalized) hypertree width of *hypergraph*.

    Returns exact results up to *max_width*; if no decomposition of
    width ≤ max_width exists (or the hypergraph has more than
    *search_limit* distinct edges), falls back to the trivial upper
    bound (one bag covering everything) with ``exact=False``.
    """
    edges = [frozenset(edge) for edge in hypergraph.distinct_edges()]
    if not edges:
        return HypertreeResult(0, True, 0)
    if hypergraph.is_acyclic():
        return HypertreeResult(1, True, len(edges))
    if len(edges) > search_limit:
        return HypertreeResult(len(edges), False, 1)
    for k in range(2, max_width + 1):
        node_count = _decompose_width(edges, k)
        if node_count is not None:
            return HypertreeResult(k, True, node_count)
    return HypertreeResult(len(edges), False, 1)


def _decompose_width(edges: List[Edge], k: int) -> Optional[int]:
    all_edges = tuple(edges)
    memo: Dict[Tuple[FrozenSet[Edge], FrozenSet[Term]], Optional[int]] = {}
    component = frozenset(edges)
    return _solve(component, frozenset(), all_edges, k, memo)


def _solve(
    component: FrozenSet[Edge],
    connector: FrozenSet[Term],
    all_edges: Tuple[Edge, ...],
    k: int,
    memo: Dict,
) -> Optional[int]:
    """Smallest node count of a width-≤k decomposition of *component*
    whose root bag covers *connector*; None if none exists."""
    key = (component, connector)
    if key in memo:
        return memo[key]
    memo[key] = None  # cycle guard; overwritten below on success
    component_nodes: Set[Term] = set().union(*component) | set(connector)
    # Candidate bags: unions of ≤ k edges that touch the component.
    relevant = [
        edge for edge in all_edges if edge & component_nodes
    ]
    best: Optional[int] = None
    for size in range(1, k + 1):
        for chosen in combinations(relevant, size):
            bag: Set[Term] = set().union(*chosen)
            if not connector <= bag:
                continue
            remaining = [edge for edge in component if not edge <= bag]
            if not remaining:
                cost = 1
            else:
                cost = _recurse_components(
                    remaining, bag, all_edges, k, memo
                )
                if cost is None:
                    continue
                cost += 1
            if best is None or cost < best:
                best = cost
        if best is not None and size == 1:
            # A single-edge bag already worked; wider bags cannot give a
            # *smaller* width, only (possibly) fewer nodes — keep
            # searching size 1 results only, for speed.
            break
    memo[key] = best
    return best


def _recurse_components(
    remaining: List[Edge],
    bag: Set[Term],
    all_edges: Tuple[Edge, ...],
    k: int,
    memo: Dict,
) -> Optional[int]:
    """Split *remaining* edges into [bag]-components and solve each."""
    components = _split_components(remaining, bag)
    total = 0
    for sub_edges in components:
        sub_nodes: Set[Term] = set().union(*sub_edges)
        connector = frozenset(sub_nodes & bag)
        cost = _solve(frozenset(sub_edges), connector, all_edges, k, memo)
        if cost is None:
            return None
        total += cost
    return total


def _split_components(edges: List[Edge], bag: Set[Term]) -> List[List[Edge]]:
    """Connected components of the edges when nodes in *bag* are cut."""
    unassigned = list(edges)
    components: List[List[Edge]] = []
    while unassigned:
        seed = unassigned.pop()
        component = [seed]
        frontier = set(seed) - bag
        changed = True
        while changed:
            changed = False
            still_unassigned = []
            for edge in unassigned:
                if set(edge) & frontier:
                    component.append(edge)
                    frontier |= set(edge) - bag
                    changed = True
                else:
                    still_unassigned.append(edge)
            unassigned = still_unassigned
        components.append(component)
    return components
