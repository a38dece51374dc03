"""One walk per query: the facts every analyzer pass reads.

The paper's classifications are all predicates on one query body:
Table 2's keywords, Table 3's operator sets over {And, Filter, Opt,
Graph, Union}, §5.2's CQ ⊂ CPF/CQF ⊂ AOF, the canonical graph and
hypergraph of §5 and the property paths of Table 5.  :func:`query_facts`
walks the query once, with an explicit stack, and records what those
predicates need; :mod:`.features`, :mod:`.operators`, :mod:`.fragments`
and :mod:`.canonical` read the record instead of walking again.

Two scopes matter.  The *body* is every pattern node outside
subqueries; EXISTS patterns inside a ``FILTER`` are part of it (they
are patterns of the same query).  Keywords, triple counts, property
paths and ``BIND`` variables also count nodes inside subqueries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ..rdf.terms import Variable
from ..sparql import ast, walk

__all__ = ["FilterFacts", "QueryFacts", "query_facts"]

_AGGREGATE_KEYWORDS = {
    "COUNT": "Count",
    "MAX": "Max",
    "MIN": "Min",
    "AVG": "Avg",
    "SUM": "Sum",
    "SAMPLE": "Sample",
    "GROUP_CONCAT": "Group Concat",
}

#: Keyword of each pattern node class whose presence is the keyword.
_NODE_KEYWORDS = {
    ast.UnionPattern: "Union",
    ast.OptionalPattern: "Opt",
    ast.GraphGraphPattern: "Graph",
    ast.MinusPattern: "Minus",
    ast.ServicePattern: "Service",
    ast.BindPattern: "Bind",
    ast.ValuesPattern: "Values",
    ast.FilterPattern: "Filter",
}


class FilterFacts(NamedTuple):
    """What the classifiers ask of one ``FILTER`` constraint."""

    #: The constraint contains EXISTS or NOT EXISTS.
    has_exists: bool
    #: The constraint contains an aggregate.
    has_aggregate: bool
    #: Simple in the sense of §5.2: at most one variable and no EXISTS,
    #: or the form ``?x = ?y``.
    simple: bool
    #: ``(?x, ?y)`` when the constraint is ``?x = ?y`` (footnote 20
    #: collapses the two nodes of the canonical graph), else ``None``.
    equality: Optional[Tuple[Variable, Variable]]


@dataclass(frozen=True)
class QueryFacts:
    """Everything the analyzer passes read about one query."""

    query: ast.Query
    #: Pattern node classes in the body.
    body_kinds: FrozenSet[type]
    #: Some group of the body joins two or more non-filter patterns.
    body_joins: bool
    #: The body's filters, in walk order.
    filters: Tuple[FilterFacts, ...]
    #: The body's triple patterns (no paths), in document order.
    triples: Tuple[ast.TriplePattern, ...]
    #: Every property-path pattern, subqueries included, in document order.
    paths: Tuple[ast.PathPattern, ...]
    #: Triple and property-path patterns, subqueries included.
    triple_count: int
    #: Variables bound by ``BIND``, subqueries included.
    bind_variables: FrozenSet[Variable]
    #: ``vars(P)`` of the body; a subquery adds its projected variables.
    body_variables: FrozenSet[Variable]
    #: Table 2 keywords of the query and its subqueries.
    keywords: FrozenSet[str]


class _Scan(NamedTuple):
    variables: Set[Variable]
    exists: List[ast.ExistsExpression]
    has_aggregate: bool


def _scan(expression: ast.Expression, keywords: Set[str]) -> _Scan:
    """One pass over *expression*: add its keywords, and collect its
    variables (not those inside EXISTS), EXISTS nodes and aggregates."""
    variables: Set[Variable] = set()
    exists: List[ast.ExistsExpression] = []
    has_aggregate = False
    for node in walk.iter_expressions(expression):
        if isinstance(node, ast.TermExpression):
            if isinstance(node.term, Variable):
                variables.add(node.term)
        elif isinstance(node, ast.Aggregate):
            has_aggregate = True
            keyword = _AGGREGATE_KEYWORDS.get(node.name)
            if keyword is not None:
                keywords.add(keyword)
        elif isinstance(node, ast.ExistsExpression):
            exists.append(node)
            keywords.add("Not Exists" if node.negated else "Exists")
    return _Scan(variables, exists, has_aggregate)


def _head_keywords(query: ast.Query, keywords: Set[str]) -> None:
    """Keywords of a query's form, projection and solution modifier."""
    keywords.add(query.query_type.value.title())
    modifier = query.modifier
    if modifier.limit is not None:
        keywords.add("Limit")
    if modifier.offset is not None:
        keywords.add("Offset")
    if modifier.order_by:
        keywords.add("Order By")
        for condition in modifier.order_by:
            _scan(condition.expression, keywords)
    if modifier.group_by:
        keywords.add("Group By")
    if modifier.having:
        keywords.add("Having")
        for expression in modifier.having:
            _scan(expression, keywords)
    projection = query.projection
    if projection is None:
        return
    if projection.distinct:
        keywords.add("Distinct")
    if projection.reduced:
        keywords.add("Reduced")
    for item in projection.items:
        if isinstance(item, ast.ProjectionExpression):
            _scan(item.expression, keywords)


def _joins(group: ast.GroupPattern) -> bool:
    """True when the group conjoins ≥ 2 non-filter patterns (the paper
    files SPARQL's '.'/';' conjunction under the And keyword)."""
    joinable = 0
    for element in group.elements:
        if not isinstance(element, ast.FilterPattern):
            joinable += 1
            if joinable >= 2:
                return True
    return False


def _equality(expression: ast.Expression) -> Optional[Tuple[Variable, Variable]]:
    if (
        isinstance(expression, ast.Comparison)
        and expression.op == "="
        and isinstance(expression.left, ast.TermExpression)
        and isinstance(expression.left.term, Variable)
        and isinstance(expression.right, ast.TermExpression)
        and isinstance(expression.right.term, Variable)
    ):
        return (expression.left.term, expression.right.term)
    return None


def query_facts(query: ast.Query) -> QueryFacts:
    """Walk *query* once and return its :class:`QueryFacts`.

    The walk is depth-first pre-order with an explicit stack, in the
    order of :func:`repro.sparql.walk.iter_patterns`, so recorded
    triples, filters and paths keep document order.
    """
    keywords: Set[str] = set()
    _head_keywords(query, keywords)
    kinds: Set[type] = set()
    joins = False
    filters: List[FilterFacts] = []
    triples: List[ast.TriplePattern] = []
    paths: List[ast.PathPattern] = []
    triple_count = 0
    bind_variables: Set[Variable] = set()
    body_variables: Set[Variable] = set()

    # (node, inside a subquery)
    stack: List[Tuple[ast.Pattern, bool]] = []
    if query.pattern is not None:
        stack.append((query.pattern, False))
    while stack:
        node, nested = stack.pop()
        kind = type(node)
        if not nested:
            kinds.add(kind)
        keyword = _NODE_KEYWORDS.get(kind)
        if keyword is not None:
            keywords.add(keyword)
        if kind is ast.TriplePattern:
            triple_count += 1
            if not nested:
                triples.append(node)
                for term in (node.subject, node.predicate, node.object):
                    if isinstance(term, Variable):
                        body_variables.add(term)
        elif kind is ast.GroupPattern:
            if _joins(node):
                keywords.add("And")
                joins = joins or not nested
            stack.extend((element, nested) for element in reversed(node.elements))
        elif kind is ast.PathPattern:
            triple_count += 1
            paths.append(node)
            if not nested:
                for term in (node.subject, node.object):
                    if isinstance(term, Variable):
                        body_variables.add(term)
        elif kind is ast.FilterPattern:
            scan = _scan(node.expression, keywords)
            if not nested:
                equality = _equality(node.expression)
                has_exists = bool(scan.exists)
                filters.append(FilterFacts(
                    has_exists=has_exists,
                    has_aggregate=scan.has_aggregate,
                    simple=equality is not None
                    or (not has_exists and len(scan.variables) <= 1),
                    equality=equality,
                ))
                body_variables |= scan.variables
            stack.extend((exists.pattern, nested) for exists in scan.exists)
        elif kind is ast.UnionPattern:
            stack.append((node.right, nested))
            stack.append((node.left, nested))
        elif kind is ast.OptionalPattern or kind is ast.MinusPattern:
            stack.append((node.pattern, nested))
        elif kind is ast.GraphGraphPattern or kind is ast.ServicePattern:
            term = node.graph if kind is ast.GraphGraphPattern else node.endpoint
            if not nested and isinstance(term, Variable):
                body_variables.add(term)
            stack.append((node.pattern, nested))
        elif kind is ast.BindPattern:
            scan = _scan(node.expression, keywords)
            bind_variables.add(node.variable)
            if not nested:
                body_variables.add(node.variable)
                body_variables |= scan.variables
                for exists in scan.exists:
                    body_variables |= walk.pattern_variables(exists.pattern)
        elif kind is ast.ValuesPattern:
            if not nested:
                body_variables.update(node.variables)
        elif kind is ast.SubSelectPattern:
            subquery = node.query
            _head_keywords(subquery, keywords)
            projection = subquery.projection
            if not nested and projection is not None and not projection.select_all:
                body_variables.update(projection.variables())
            if subquery.pattern is not None:
                stack.append((subquery.pattern, True))

    return QueryFacts(
        query=query,
        body_kinds=frozenset(kinds),
        body_joins=joins,
        filters=tuple(filters),
        triples=tuple(triples),
        paths=tuple(paths),
        triple_count=triple_count,
        bind_variables=frozenset(bind_variables),
        body_variables=frozenset(body_variables),
        keywords=frozenset(keywords),
    )
