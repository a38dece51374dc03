"""AST → SPARQL text serialization.

Produces canonical, re-parseable SPARQL 1.1 text.  The round trip
``parse(serialize(parse(q)))`` yields an AST equal to ``parse(q)`` up to
blank-node labels, which the property-based tests verify.

Paper mapping: canonical query text for dedup diagnostics and the Table
5 non-Ctract samples.
"""

from __future__ import annotations

from typing import List

from ..rdf.terms import Variable
from . import ast
from .parser import _BINDING_POWER

__all__ = ["serialize_query", "serialize_pattern", "serialize_expression", "serialize_path"]

_INDENT = "  "


def serialize_query(query: ast.Query) -> str:
    """Render *query* as SPARQL text (no PREFIX declarations; all IRIs
    are written in full ``<...>`` form, which is always valid)."""
    lines: List[str] = []
    if query.query_type is ast.QueryType.SELECT:
        assert query.projection is not None
        lines.append(_select_clause(query.projection))
    elif query.query_type is ast.QueryType.ASK:
        lines.append("ASK")
    elif query.query_type is ast.QueryType.CONSTRUCT:
        lines.append("CONSTRUCT {")
        for triple in query.template:
            lines.append(_INDENT + _triple_text(triple))
        lines.append("}")
    else:
        targets = "*" if query.describe_all else " ".join(
            term.sparql_text() for term in query.describe_targets
        )
        lines.append(f"DESCRIBE {targets}".rstrip())
    for dataset_iri, named in query.datasets:
        keyword = "FROM NAMED" if named else "FROM"
        lines.append(f"{keyword} {dataset_iri.sparql_text()}")
    if query.pattern is not None:
        lines.append("WHERE " + serialize_pattern(query.pattern, indent=0))
    lines.extend(_modifier_lines(query.modifier))
    if query.values is not None:
        lines.append(_values_text(query.values, indent=0))
    return "\n".join(lines)


def _select_clause(projection: ast.Projection) -> str:
    parts = ["SELECT"]
    if projection.distinct:
        parts.append("DISTINCT")
    if projection.reduced:
        parts.append("REDUCED")
    if projection.select_all:
        parts.append("*")
    else:
        for item in projection.items:
            if isinstance(item, Variable):
                parts.append(item.sparql_text())
            else:
                parts.append(
                    f"({serialize_expression(item.expression)} AS "
                    f"{item.variable.sparql_text()})"
                )
    return " ".join(parts)


def _modifier_lines(modifier: ast.SolutionModifier) -> List[str]:
    lines: List[str] = []
    if modifier.group_by:
        conditions = []
        for condition in modifier.group_by:
            if isinstance(condition, ast.ProjectionExpression):
                conditions.append(
                    f"({serialize_expression(condition.expression)} AS "
                    f"{condition.variable.sparql_text()})"
                )
            elif isinstance(condition, ast.TermExpression):
                conditions.append(condition.term.sparql_text())
            else:
                conditions.append(f"({serialize_expression(condition)})")
        lines.append("GROUP BY " + " ".join(conditions))
    if modifier.having:
        lines.append("HAVING " + " ".join(f"({serialize_expression(h)})" for h in modifier.having))
    if modifier.order_by:
        conditions = []
        for order in modifier.order_by:
            body = serialize_expression(order.expression)
            if order.descending:
                conditions.append(f"DESC({body})")
            elif isinstance(order.expression, ast.TermExpression) and isinstance(
                order.expression.term, Variable
            ):
                conditions.append(body)
            else:
                conditions.append(f"ASC({body})")
        lines.append("ORDER BY " + " ".join(conditions))
    if modifier.limit is not None:
        lines.append(f"LIMIT {modifier.limit}")
    if modifier.offset is not None:
        lines.append(f"OFFSET {modifier.offset}")
    return lines


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def serialize_pattern(pattern: ast.Pattern, indent: int = 0) -> str:
    """Render a pattern; group patterns include their braces."""
    pad = _INDENT * indent
    inner_pad = _INDENT * (indent + 1)
    if isinstance(pattern, ast.GroupPattern):
        if not pattern.elements:
            return "{ }"
        lines = ["{"]
        for element in pattern.elements:
            lines.append(inner_pad + _element_text(element, indent + 1))
        lines.append(pad + "}")
        return "\n".join(lines)
    return _element_text(pattern, indent)


def _element_text(element: ast.Pattern, indent: int) -> str:
    if isinstance(element, ast.GroupPattern):
        return serialize_pattern(element, indent)
    if isinstance(element, ast.TriplePattern):
        return _triple_text(element)
    if isinstance(element, ast.PathPattern):
        return (
            f"{element.subject.sparql_text()} {serialize_path(element.path)} "
            f"{element.object.sparql_text()} ."
        )
    if isinstance(element, ast.FilterPattern):
        return f"FILTER ({serialize_expression(element.expression)})"
    if isinstance(element, ast.BindPattern):
        return (
            f"BIND ({serialize_expression(element.expression)} AS "
            f"{element.variable.sparql_text()})"
        )
    if isinstance(element, ast.OptionalPattern):
        return "OPTIONAL " + serialize_pattern(element.pattern, indent)
    if isinstance(element, ast.MinusPattern):
        return "MINUS " + serialize_pattern(element.pattern, indent)
    if isinstance(element, ast.GraphGraphPattern):
        return (
            f"GRAPH {element.graph.sparql_text()} "
            + serialize_pattern(element.pattern, indent)
        )
    if isinstance(element, ast.ServicePattern):
        silent = "SILENT " if element.silent else ""
        return (
            f"SERVICE {silent}{element.endpoint.sparql_text()} "
            + serialize_pattern(element.pattern, indent)
        )
    if isinstance(element, ast.UnionPattern):
        # The left spine in a loop: a union may have any number of
        # branches, and ``{a} UNION {b} UNION {c}`` reparses left-nested.
        branches = []
        while isinstance(element, ast.UnionPattern):
            branches.append(element.right)
            element = element.left
        branches.append(element)
        return " UNION ".join(
            serialize_pattern(_ensure_group(branch), indent)
            for branch in reversed(branches)
        )
    if isinstance(element, ast.ValuesPattern):
        return _values_text(element, indent)
    if isinstance(element, ast.SubSelectPattern):
        body = serialize_query(element.query)
        inner_pad = _INDENT * (indent + 1)
        indented = "\n".join(inner_pad + line for line in body.splitlines())
        return "{\n" + indented + "\n" + _INDENT * indent + "}"
    raise TypeError(f"cannot serialize pattern {element!r}")


def _ensure_group(pattern: ast.Pattern) -> ast.Pattern:
    if isinstance(pattern, (ast.GroupPattern, ast.UnionPattern)):
        return pattern
    return ast.GroupPattern((pattern,))


def _triple_text(triple: ast.TriplePattern) -> str:
    return (
        f"{triple.subject.sparql_text()} {triple.predicate.sparql_text()} "
        f"{triple.object.sparql_text()} ."
    )


def _values_text(values: ast.ValuesPattern, indent: int) -> str:
    header = "(" + " ".join(v.sparql_text() for v in values.variables) + ")"
    rows: List[str] = []
    for row in values.rows:
        cells = " ".join("UNDEF" if t is None else t.sparql_text() for t in row)
        rows.append(f"({cells})")
    return f"VALUES {header} {{ {' '.join(rows)} }}"


# ---------------------------------------------------------------------------
# Property paths
# ---------------------------------------------------------------------------


def serialize_path(path: ast.Path) -> str:
    """Render a property path with minimal but safe parenthesization."""
    if isinstance(path, ast.PathIRI):
        return path.iri.sparql_text()
    if isinstance(path, ast.PathInverse):
        return "^" + _path_atom(path.path)
    if isinstance(path, ast.PathSequence):
        return "/".join(_path_seq_item(step) for step in path.steps)
    if isinstance(path, ast.PathAlternative):
        return "|".join(_path_seq_item(option) for option in path.options)
    if isinstance(path, ast.PathMod):
        return _path_atom(path.path) + path.modifier
    if isinstance(path, ast.PathNegated):
        items = [iri.sparql_text() for iri in path.forward]
        items += ["^" + iri.sparql_text() for iri in path.inverse]
        if len(items) == 1 and not items[0].startswith("^"):
            return "!" + items[0]
        return "!(" + "|".join(items) + ")"
    raise TypeError(f"cannot serialize path {path!r}")


def _path_atom(path: ast.Path) -> str:
    text = serialize_path(path)
    if isinstance(path, (ast.PathIRI, ast.PathNegated)):
        return text
    return f"({text})"


def _path_seq_item(path: ast.Path) -> str:
    if isinstance(path, (ast.PathSequence, ast.PathAlternative)):
        return f"({serialize_path(path)})"
    return serialize_path(path)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def serialize_expression(expression: ast.Expression) -> str:
    """Serialize an expression back to SPARQL surface syntax."""
    if isinstance(expression, ast.TermExpression):
        return expression.term.sparql_text()
    if isinstance(expression, ast.OrExpression):
        return " || ".join(_expr_operand(e) for e in expression.operands)
    if isinstance(expression, ast.AndExpression):
        return " && ".join(_expr_operand(e) for e in expression.operands)
    if isinstance(expression, ast.NotExpression):
        return "!" + _expr_operand(expression.operand)
    if isinstance(expression, ast.Comparison):
        return (
            f"{_expr_operand(expression.left)} {expression.op} "
            f"{_expr_operand(expression.right)}"
        )
    if isinstance(expression, ast.InExpression):
        keyword = "NOT IN" if expression.negated else "IN"
        choices = ", ".join(serialize_expression(e) for e in expression.choices)
        return f"{_expr_operand(expression.operand)} {keyword} ({choices})"
    if isinstance(expression, ast.Arithmetic):
        # The left spine in a loop and unparenthesized while its
        # operators bind at least as tightly: ``+ - * /`` nest to the
        # left, so ``?a + ?b * ?c - ?d`` reparses to the same tree.
        links = []
        while True:
            links.append(f" {expression.op} {_expr_operand(expression.right)}")
            left = expression.left
            if not (
                isinstance(left, ast.Arithmetic)
                and _BINDING_POWER[left.op] >= _BINDING_POWER[expression.op]
            ):
                break
            expression = left
        return _expr_operand(left) + "".join(reversed(links))
    if isinstance(expression, ast.UnaryMinus):
        return "-" + _expr_operand(expression.operand)
    if isinstance(expression, ast.FunctionCall):
        args = ", ".join(serialize_expression(e) for e in expression.args)
        distinct = "DISTINCT " if expression.distinct else ""
        return f"{expression.function.sparql_text()}({distinct}{args})"
    if isinstance(expression, ast.BuiltinCall):
        args = ", ".join(serialize_expression(e) for e in expression.args)
        return f"{expression.name}({args})"
    if isinstance(expression, ast.ExistsExpression):
        keyword = "NOT EXISTS" if expression.negated else "EXISTS"
        return f"{keyword} {serialize_pattern(expression.pattern)}"
    if isinstance(expression, ast.Aggregate):
        distinct = "DISTINCT " if expression.distinct else ""
        if expression.expression is None:
            body = "*"
        else:
            body = serialize_expression(expression.expression)
        if expression.separator is not None:
            escaped = expression.separator.replace("\\", "\\\\").replace('"', '\\"')
            return f'{expression.name}({distinct}{body}; SEPARATOR="{escaped}")'
        return f"{expression.name}({distinct}{body})"
    raise TypeError(f"cannot serialize expression {expression!r}")


def _expr_operand(expression: ast.Expression) -> str:
    """Parenthesize compound operands so precedence survives reparsing."""
    text = serialize_expression(expression)
    if isinstance(
        expression,
        (
            ast.OrExpression,
            ast.AndExpression,
            ast.Comparison,
            ast.Arithmetic,
            ast.InExpression,
        ),
    ):
        return f"({text})"
    return text
