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
:mod:`repro.analysis.welldesigned`; this module provides the membership
predicates and a one-shot :func:`classify_fragments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..rdf.terms import Variable
from ..sparql import ast, walk
from .welldesigned import (
    build_pattern_tree,
    interface_width,
    is_well_designed,
    to_binary_algebra,
)

__all__ = [
    "FragmentProfile",
    "classify_fragments",
    "is_cq",
    "is_cpf",
    "is_cqf",
    "is_aof",
    "is_simple_filter",
]


def is_simple_filter(expression: ast.Expression) -> bool:
    """A filter constraint R is *simple* if vars(R) has at most one
    variable, or R is of the form ``?x = ?y`` (§5.2)."""
    variables = walk.expression_variables(expression)
    if len(variables) <= 1:
        # EXISTS would smuggle patterns into the filter; exclude it.
        return not _contains_exists(expression)
    if (
        isinstance(expression, ast.Comparison)
        and expression.op == "="
        and isinstance(expression.left, ast.TermExpression)
        and isinstance(expression.left.term, Variable)
        and isinstance(expression.right, ast.TermExpression)
        and isinstance(expression.right.term, Variable)
    ):
        return True
    return False


def _contains_exists(expression: ast.Expression) -> bool:
    return any(
        isinstance(node, ast.ExistsExpression)
        for node in walk.iter_expressions(expression)
    )


def _body_uses_only(pattern: Optional[ast.Pattern], allowed: tuple) -> bool:
    """True when every node of the pattern tree is a GroupPattern,
    a TriplePattern, or one of *allowed* node types."""
    if pattern is None:
        return False
    for node in walk.iter_patterns(pattern, enter_subqueries=False):
        if isinstance(node, (ast.GroupPattern, ast.TriplePattern)):
            continue
        if isinstance(node, allowed):
            if isinstance(node, ast.FilterPattern) and _contains_exists(
                node.expression
            ):
                return False
            continue
        return False
    return True


def is_cq(pattern: Optional[ast.Pattern]) -> bool:
    """Conjunctive query: triple patterns and And only."""
    return _body_uses_only(pattern, ())


def is_cpf(pattern: Optional[ast.Pattern]) -> bool:
    """Conjunctive pattern with filters: triples, And, Filter."""
    return _body_uses_only(pattern, (ast.FilterPattern,))


def is_cqf(pattern: Optional[ast.Pattern]) -> bool:
    """CPF with only simple filters (Definition 5.2)."""
    if not is_cpf(pattern):
        return False
    return _all_filters_simple(pattern)


def is_aof(pattern: Optional[ast.Pattern]) -> bool:
    """And/Opt/Filter pattern: triples, And, Opt, Filter."""
    return _body_uses_only(pattern, (ast.FilterPattern, ast.OptionalPattern))


def _all_filters_simple(pattern: Optional[ast.Pattern]) -> bool:
    for node in walk.iter_patterns(pattern, enter_subqueries=False):
        if isinstance(node, ast.FilterPattern):
            if not is_simple_filter(node.expression):
                return False
    return True


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


def classify_fragments(query: ast.Query) -> FragmentProfile:
    """Classify the body of a Select/Ask query into the §5.2 fragments.

    Queries of other types (or without a body) are outside all
    fragments.
    """
    pattern = query.pattern
    if query.query_type not in (ast.QueryType.SELECT, ast.QueryType.ASK):
        pattern = None
    aof = is_aof(pattern)
    if not aof:
        return FragmentProfile(
            is_aof=False,
            is_cq=False,
            is_cpf=False,
            is_cqf=False,
            is_well_designed=False,
            has_simple_filters=False,
            interface_width=None,
            is_cqof=False,
        )
    cq = is_cq(pattern)
    cpf = is_cpf(pattern)
    simple = _all_filters_simple(pattern)
    cqf = cpf and simple
    algebra = to_binary_algebra(pattern)
    well_designed = is_well_designed(algebra)
    width: Optional[int] = None
    cqof = False
    if well_designed:
        tree = build_pattern_tree(algebra)
        width = interface_width(tree)
        cqof = simple and width <= 1
    return FragmentProfile(
        is_aof=True,
        is_cq=cq,
        is_cpf=cpf,
        is_cqf=cqf,
        is_well_designed=well_designed,
        has_simple_filters=simple,
        interface_width=width,
        is_cqof=cqof,
    )
