"""Generic AST traversal utilities.

The analyzer passes read one walk per query
(:func:`repro.analysis.facts.query_facts`); these primitives serve that
walk, the well-designedness checks and the query rewrite that strips
SERVICE clauses.

Paper mapping: traversal primitives under the keyword/operator/path
analyses (Tables 2/3/5).
"""

from __future__ import annotations

from typing import Iterator, Optional, Set

from ..rdf.terms import Variable
from . import ast

__all__ = [
    "iter_patterns",
    "iter_expressions",
    "pattern_variables",
    "expression_variables",
    "strip_services",
]


def iter_patterns(
    pattern: Optional[ast.Pattern], enter_subqueries: bool = True
) -> Iterator[ast.Pattern]:
    """Depth-first pre-order iteration over all pattern nodes.

    When *enter_subqueries* is set, recurses into the WHERE patterns of
    ``SubSelectPattern`` nodes; EXISTS patterns inside filters are
    always entered (they are patterns of the same query).
    """
    if pattern is None:
        return
    stack = [pattern]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.GroupPattern):
            stack.extend(reversed(node.elements))
        elif isinstance(node, ast.UnionPattern):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (ast.OptionalPattern, ast.MinusPattern)):
            stack.append(node.pattern)
        elif isinstance(node, (ast.GraphGraphPattern, ast.ServicePattern)):
            stack.append(node.pattern)
        elif isinstance(node, ast.FilterPattern):
            for exists in _iter_exists(node.expression):
                stack.append(exists.pattern)
        elif isinstance(node, ast.SubSelectPattern):
            if enter_subqueries and node.query.pattern is not None:
                stack.append(node.query.pattern)


def _iter_exists(expression: ast.Expression) -> Iterator[ast.ExistsExpression]:
    for sub in iter_expressions(expression):
        if isinstance(sub, ast.ExistsExpression):
            yield sub


def iter_expressions(expression: ast.Expression) -> Iterator[ast.Expression]:
    """Depth-first pre-order iteration over expression nodes (does not
    descend into EXISTS patterns — use :func:`iter_patterns` for that)."""
    stack = [expression]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.OrExpression, ast.AndExpression)):
            stack.extend(reversed(node.operands))
        elif isinstance(node, ast.NotExpression):
            stack.append(node.operand)
        elif isinstance(node, (ast.Comparison, ast.Arithmetic)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, ast.InExpression):
            stack.extend(reversed(node.choices))
            stack.append(node.operand)
        elif isinstance(node, ast.UnaryMinus):
            stack.append(node.operand)
        elif isinstance(node, (ast.FunctionCall, ast.BuiltinCall)):
            stack.extend(reversed(node.args))
        elif isinstance(node, ast.Aggregate):
            if node.expression is not None:
                stack.append(node.expression)


def expression_variables(expression: ast.Expression) -> Set[Variable]:
    """Variables mentioned in *expression*, including inside EXISTS."""
    variables: Set[Variable] = set()
    for node in iter_expressions(expression):
        if isinstance(node, ast.TermExpression) and isinstance(node.term, Variable):
            variables.add(node.term)
        elif isinstance(node, ast.ExistsExpression):
            variables |= pattern_variables(node.pattern)
    return variables


def pattern_variables(pattern: Optional[ast.Pattern]) -> Set[Variable]:
    """``vars(P)``: every variable occurring anywhere in the pattern.

    Subqueries export only their projected variables (SPARQL variable
    scoping), so traversal does not descend into them.
    """
    variables: Set[Variable] = set()
    for node in iter_patterns(pattern, enter_subqueries=False):
        if isinstance(node, ast.TriplePattern):
            for term in node.terms():
                if isinstance(term, Variable):
                    variables.add(term)
        elif isinstance(node, ast.PathPattern):
            for term in (node.subject, node.object):
                if isinstance(term, Variable):
                    variables.add(term)
        elif isinstance(node, ast.FilterPattern):
            variables |= expression_variables(node.expression)
        elif isinstance(node, ast.BindPattern):
            variables.add(node.variable)
            variables |= expression_variables(node.expression)
        elif isinstance(node, ast.ValuesPattern):
            variables.update(node.variables)
        elif isinstance(node, ast.GraphGraphPattern):
            if isinstance(node.graph, Variable):
                variables.add(node.graph)
        elif isinstance(node, ast.ServicePattern):
            if isinstance(node.endpoint, Variable):
                variables.add(node.endpoint)
        elif isinstance(node, ast.SubSelectPattern):
            projection = node.query.projection
            if projection is not None and not projection.select_all:
                variables.update(projection.variables())
    return variables


def strip_services(query: ast.Query) -> ast.Query:
    """Return *query* with SERVICE subpatterns removed.

    The paper removes Wikidata's SERVICE subqueries (used only to set
    the output language) before the operator analysis (§4.3, fn. 13).
    """

    def rewrite(pattern: ast.Pattern) -> Optional[ast.Pattern]:
        """Rebuild *pattern* without SERVICE blocks (None = dropped)."""
        if isinstance(pattern, ast.ServicePattern):
            return None
        if isinstance(pattern, ast.GroupPattern):
            elements = []
            changed = False
            for element in pattern.elements:
                out = rewrite(element)
                if out is None:
                    changed = True
                else:
                    if out is not element:
                        changed = True
                    elements.append(out)
            if not elements:
                return None
            if not changed:
                return pattern
            return ast.GroupPattern(tuple(elements))
        if isinstance(pattern, ast.UnionPattern):
            left = rewrite(pattern.left)
            right = rewrite(pattern.right)
            if left is None:
                return right
            if right is None:
                return left
            if left is pattern.left and right is pattern.right:
                return pattern
            return ast.UnionPattern(left, right)
        if isinstance(pattern, ast.OptionalPattern):
            inner = rewrite(pattern.pattern)
            if inner is None:
                return None
            if inner is pattern.pattern:
                return pattern
            return ast.OptionalPattern(inner)
        if isinstance(pattern, ast.MinusPattern):
            inner = rewrite(pattern.pattern)
            if inner is None:
                return None
            if inner is pattern.pattern:
                return pattern
            return ast.MinusPattern(inner)
        if isinstance(pattern, ast.GraphGraphPattern):
            inner = rewrite(pattern.pattern)
            if inner is None:
                return None
            if inner is pattern.pattern:
                return pattern
            return ast.GraphGraphPattern(pattern.graph, inner)
        return pattern

    if query.pattern is None:
        return query
    new_pattern = rewrite(query.pattern)
    if new_pattern is query.pattern:
        return query
    return ast.Query(
        query_type=query.query_type,
        pattern=new_pattern,
        prologue=query.prologue,
        projection=query.projection,
        template=query.template,
        describe_targets=query.describe_targets,
        describe_all=query.describe_all,
        modifier=query.modifier,
        values=query.values,
        datasets=query.datasets,
    )
