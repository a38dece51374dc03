"""Query-fragment classification (paper §5.2).

The paper studies nested fragments of And/Opt/Filter ("AOF") patterns:

* **CQ** (Definition 3.1): triple patterns + And only.
* **CPF** (Definition 4.1): triple patterns + And + Filter.
* **CQF** (Definition 5.2): CPF where every filter is *simple* —
  it mentions at most one variable, or has the form ``?x = ?y``.
* **AOF**: triple patterns + And + Opt + Filter (no property paths, no
  subqueries, no Graph/Union/anything else).
* **well-designed** (Definition 5.3, Pérez et al.): every Opt-pattern
  (P1 Opt P2) confines the variables of vars(P2) \\ vars(P1) to itself.
* **CQOF** (Definition 5.5): AOF patterns with simple filters admitting
  a well-designed pattern tree of interface width 1.

Pattern trees and interface width live in
:mod:`repro.analysis.welldesigned`; :func:`classify_fragments` reads
the other memberships off the query's
:class:`~repro.analysis.facts.QueryFacts`: the node classes of its body
and the simple-filter flag of each filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sparql import ast
from .facts import QueryFacts
from .welldesigned import (
    build_pattern_tree,
    interface_width,
    is_well_designed,
    to_binary_algebra,
)

__all__ = ["FragmentProfile", "classify_fragments"]

#: Node classes each fragment's body may contain.
_CQ_KINDS = frozenset({ast.GroupPattern, ast.TriplePattern})
_CPF_KINDS = _CQ_KINDS | {ast.FilterPattern}
_AOF_KINDS = _CPF_KINDS | {ast.OptionalPattern}


@dataclass(frozen=True)
class FragmentProfile:
    """Membership of one query in each fragment of §5.2."""

    is_aof: bool
    is_cq: bool
    is_cpf: bool
    is_cqf: bool
    is_well_designed: bool  # AOF + Def 5.3 (filters need not be simple)
    has_simple_filters: bool
    interface_width: Optional[int]  # None unless AOF and well-designed
    is_cqof: bool


_OUTSIDE = FragmentProfile(
    is_aof=False,
    is_cq=False,
    is_cpf=False,
    is_cqf=False,
    is_well_designed=False,
    has_simple_filters=False,
    interface_width=None,
    is_cqof=False,
)


def classify_fragments(facts: QueryFacts) -> FragmentProfile:
    """Classify the body of a Select/Ask query into the §5.2 fragments.

    Queries of other types (or without a body) are outside all
    fragments, and so is a body with a filter that uses EXISTS.
    """
    query = facts.query
    kinds = facts.body_kinds
    if (
        query.query_type not in (ast.QueryType.SELECT, ast.QueryType.ASK)
        or query.pattern is None
        or not kinds <= _AOF_KINDS
        or any(constraint.has_exists for constraint in facts.filters)
    ):
        return _OUTSIDE
    cpf = kinds <= _CPF_KINDS
    simple = all(constraint.simple for constraint in facts.filters)
    algebra = to_binary_algebra(query.pattern)
    well_designed = is_well_designed(algebra)
    width: Optional[int] = None
    cqof = False
    if well_designed:
        tree = build_pattern_tree(algebra)
        width = interface_width(tree)
        cqof = simple and width <= 1
    return FragmentProfile(
        is_aof=True,
        is_cq=kinds <= _CQ_KINDS,
        is_cpf=cpf,
        is_cqf=cpf and simple,
        is_well_designed=well_designed,
        has_simple_filters=simple,
        interface_width=width,
        is_cqof=cqof,
    )
