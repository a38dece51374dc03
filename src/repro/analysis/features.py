"""Per-query feature extraction (the paper's "shallow analysis", §4).

Reads, from a query's :class:`~repro.analysis.facts.QueryFacts`,
everything Table 2 / Table 7 (keyword counts), Figure 1 / Figure 8
(triple counts), and §4.4 (subqueries, projection) need.  Features come
from the AST — not from string matching — so e.g. ``And`` is only
counted when a group actually joins two patterns and a ``?filter``
variable never looks like a keyword.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from ..sparql import ast
from .facts import QueryFacts

__all__ = ["QueryFeatures", "extract_features", "KEYWORD_ORDER"]

#: Display order of the keyword rows of Table 2.
KEYWORD_ORDER = (
    "Select", "Ask", "Describe", "Construct",
    "Distinct", "Limit", "Offset", "Order By",
    "Filter", "And", "Union", "Opt", "Graph",
    "Not Exists", "Minus", "Exists",
    "Count", "Max", "Min", "Avg", "Sum",
    "Group By", "Having",
)


@dataclass
class QueryFeatures:
    """Everything the shallow analysis measures about one query."""

    query_type: ast.QueryType
    keywords: FrozenSet[str]
    #: Number of triple patterns (incl. property-path patterns), whole tree.
    triple_count: int
    #: Number of property-path patterns only.
    path_pattern_count: int
    has_body: bool
    uses_subquery: bool
    #: True / False / None (None = indeterminate because of Bind, §4.4).
    uses_projection: Optional[bool]

    def is_select_or_ask(self) -> bool:
        """Whether the query form is SELECT or ASK (the paper's S/A gate)."""
        return self.query_type in (ast.QueryType.SELECT, ast.QueryType.ASK)


def extract_features(facts: QueryFacts) -> QueryFeatures:
    """The :class:`QueryFeatures` of the query behind *facts*."""
    query = facts.query
    return QueryFeatures(
        query_type=query.query_type,
        keywords=facts.keywords,
        triple_count=facts.triple_count,
        path_pattern_count=len(facts.paths),
        has_body=query.has_body(),
        uses_subquery=ast.SubSelectPattern in facts.body_kinds,
        uses_projection=detect_projection(facts),
    )


# ---------------------------------------------------------------------------
# Projection detection (§4.4; SPARQL 1.1 rec §18.2.1)
# ---------------------------------------------------------------------------


def detect_projection(facts: QueryFacts) -> Optional[bool]:
    """Does the query behind *facts* use projection?

    Following §4.4 of the paper:

    * Ask queries project everything away, but the paper (following the
      rec's test) classifies variable-free Ask queries as *not* using
      projection — they merely test the presence of concrete triples.
      Ask queries with variables do use projection.
    * Select queries use projection when the selected variables are a
      strict subset of the pattern's in-scope variables.  ``SELECT *``
      never projects.
    * Returns ``None`` (indeterminate) when the answer depends on
      variables introduced by Bind — the paper reports 1.3% of queries
      in this category, bounding projection between 14.98% and 16.28%.

    Describe/Construct queries return ``False`` (projection is a
    Select/Ask concern in the paper's accounting).
    """
    query = facts.query
    if query.query_type is ast.QueryType.ASK:
        return bool(facts.body_variables)
    if query.query_type is not ast.QueryType.SELECT:
        return False
    projection = query.projection
    assert projection is not None
    if projection.select_all:
        return False
    body_vars = facts.body_variables
    selected = set(projection.variables())
    if selected >= body_vars:
        return False
    # Selected ⊊ body variables: definitely projects — unless the only
    # "missing" variables come from Bind, in which case visibility rules
    # make the classification tool-dependent; mirror the paper and
    # report indeterminate.
    if body_vars - selected <= facts.bind_variables:
        return None
    return True
