"""Operator-set classification of query bodies (paper §4.3, Table 3).

For each Select/Ask query the paper asks: which operators from
O = {And, Filter, Opt, Graph, Union} does the body use — and does it
use *only* constructs built from those operators (plus triple
patterns)?  Queries whose body uses anything else (property paths,
Bind, Minus, subqueries, …) fall into an "other features" bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Tuple

from ..sparql import ast
from .facts import QueryFacts

__all__ = [
    "Operator",
    "OperatorClassification",
    "classify_operators",
    "TABLE3_ROWS",
]


class Operator(str, Enum):
    """The five operators of the paper's set O, with their letters."""

    AND = "A"
    FILTER = "F"
    OPT = "O"
    GRAPH = "G"
    UNION = "U"


#: The operator sets that get their own row in Table 3, in paper order.
#: (frozensets of letters; "none" is the empty set.)
TABLE3_ROWS: Tuple[FrozenSet[str], ...] = (
    frozenset(),
    frozenset("F"),
    frozenset("A"),
    frozenset("AF"),
    frozenset("O"),
    frozenset("OF"),
    frozenset("AO"),
    frozenset("AOF"),
    frozenset("G"),
    frozenset("U"),
    frozenset("UF"),
    frozenset("AU"),
    frozenset("AUF"),
    frozenset("AOUF"),
)


@dataclass(frozen=True)
class OperatorClassification:
    """Result of classifying one query body.

    *operators* is the set of O-operators present; *pure* is True when
    the body uses only triple patterns and operators from O.  A query
    counts toward a Table 3 row only when it is pure.
    """

    operators: FrozenSet[Operator]
    pure: bool

    @property
    def letters(self) -> FrozenSet[str]:
        """The operator set as paper letters (A, F, O, U, G)."""
        return frozenset(op.value for op in self.operators)


#: The pattern node classes that carry an O-operator.
_OPERATOR_KINDS = {
    ast.FilterPattern: Operator.FILTER,
    ast.OptionalPattern: Operator.OPT,
    ast.GraphGraphPattern: Operator.GRAPH,
    ast.UnionPattern: Operator.UNION,
}

#: Node classes a pure body may contain: triple patterns, groups (And)
#: and the other four operators of O.
_PURE_KINDS = frozenset(_OPERATOR_KINDS) | {ast.TriplePattern, ast.GroupPattern}


def classify_operators(facts: QueryFacts) -> OperatorClassification:
    """Classify the body of the query behind *facts* (Table 3 semantics).

    A body-less query is pure with an empty operator set ("none" in
    Table 3 includes queries without a body).  Property paths, Bind,
    Values, Minus, Service and subqueries take a body outside O, and so
    does a filter with EXISTS or an aggregate, which embeds more than
    the plain operators.
    """
    operators = {
        operator
        for kind, operator in _OPERATOR_KINDS.items()
        if kind in facts.body_kinds
    }
    if facts.body_joins:
        operators.add(Operator.AND)
    pure = facts.body_kinds <= _PURE_KINDS and not any(
        constraint.has_exists or constraint.has_aggregate
        for constraint in facts.filters
    )
    return OperatorClassification(frozenset(operators), pure)
