"""SPARQL 1.1 abstract syntax tree.

The AST mirrors the conceptual model of the paper's §3: a query is a
tuple (query-type, pattern, solution-modifier).  Patterns form a tree
over the operators And (grouping), Union, Opt, Graph, Minus, Filter,
Bind, Values, Service, and subqueries; leaves are triple patterns and
property-path patterns.

All nodes are dataclasses.  Pattern and expression nodes are immutable
by convention (analyses never mutate a parsed query).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple, Union

from ..rdf.terms import IRI, Term, Variable

__all__ = [
    "QueryType",
    "Query",
    "Prologue",
    "SolutionModifier",
    "OrderCondition",
    "Projection",
    "ProjectionExpression",
    # patterns
    "Pattern",
    "TriplePattern",
    "PathPattern",
    "GroupPattern",
    "UnionPattern",
    "OptionalPattern",
    "GraphGraphPattern",
    "MinusPattern",
    "FilterPattern",
    "BindPattern",
    "ValuesPattern",
    "ServicePattern",
    "SubSelectPattern",
    # property paths
    "Path",
    "PathIRI",
    "PathInverse",
    "PathSequence",
    "PathAlternative",
    "PathMod",
    "PathNegated",
    # expressions
    "Expression",
    "TermExpression",
    "OrExpression",
    "AndExpression",
    "NotExpression",
    "Comparison",
    "Arithmetic",
    "UnaryMinus",
    "FunctionCall",
    "BuiltinCall",
    "ExistsExpression",
    "Aggregate",
    "InExpression",
]


class QueryType(str, Enum):
    """The four SPARQL query forms."""

    SELECT = "SELECT"
    ASK = "ASK"
    CONSTRUCT = "CONSTRUCT"
    DESCRIBE = "DESCRIBE"


# ---------------------------------------------------------------------------
# Property paths
# ---------------------------------------------------------------------------


class Path:
    """Base class for property-path expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class PathIRI(Path):
    """An atomic path: follow one edge labeled *iri*."""

    iri: IRI


@dataclass(frozen=True)
class PathInverse(Path):
    """``^path`` — follow *path* in reverse."""

    path: Path


@dataclass(frozen=True)
class PathSequence(Path):
    """``p1 / p2 / ... / pk`` — concatenation."""

    steps: Tuple[Path, ...]


@dataclass(frozen=True)
class PathAlternative(Path):
    """``p1 | p2 | ... | pk`` — union of paths."""

    options: Tuple[Path, ...]


@dataclass(frozen=True)
class PathMod(Path):
    """``path*``, ``path+``, or ``path?``."""

    path: Path
    modifier: str  # one of "*", "+", "?"

    def __post_init__(self) -> None:
        if self.modifier not in ("*", "+", "?"):
            raise ValueError(f"bad path modifier: {self.modifier!r}")


@dataclass(frozen=True)
class PathNegated(Path):
    """``!iri`` or ``!(iri1 | ^iri2 | ...)`` — negated property set.

    *forward* holds plain IRIs, *inverse* holds the ``^``-ed ones.
    """

    forward: Tuple[IRI, ...] = ()
    inverse: Tuple[IRI, ...] = ()


# ---------------------------------------------------------------------------
# Expressions (FILTER / BIND / HAVING / projection expressions)
# ---------------------------------------------------------------------------


class Expression:
    """Base class for SPARQL expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class TermExpression(Expression):
    """A term (variable, IRI, or literal) used as an expression."""

    term: Term


@dataclass(frozen=True)
class OrExpression(Expression):
    """Boolean disjunction (``||``)."""
    operands: Tuple[Expression, ...]


@dataclass(frozen=True)
class AndExpression(Expression):
    """Boolean conjunction (``&&``)."""
    operands: Tuple[Expression, ...]


@dataclass(frozen=True)
class NotExpression(Expression):
    """Boolean negation (``!``)."""
    operand: Expression


@dataclass(frozen=True)
class Comparison(Expression):
    """``left op right`` with op ∈ {=, !=, <, >, <=, >=}."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class InExpression(Expression):
    """``expr [NOT] IN (e1, ..., ek)``."""

    operand: Expression
    choices: Tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class Arithmetic(Expression):
    """``left op right`` with op ∈ {+, -, *, /}."""

    op: str
    left: Expression
    right: Expression

    def __eq__(self, other):
        return _chain_eq(self, other, ("op", "right"))

    def __hash__(self):
        return hash(_chain_key(self, ("op", "right")))

    def __repr__(self):
        return _chain_repr(self, ("op", "right"))

    def __reduce__(self):
        return _reduce_chain(self, "op", "right")


@dataclass(frozen=True)
class UnaryMinus(Expression):
    """Arithmetic negation (unary ``-``)."""
    operand: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call of an IRI-named function (e.g. custom or xsd: casts)."""

    function: IRI
    args: Tuple[Expression, ...]
    distinct: bool = False


@dataclass(frozen=True)
class BuiltinCall(Expression):
    """A SPARQL builtin call such as ``LANG``, ``BOUND``, ``REGEX``."""

    name: str  # uppercased builtin name
    args: Tuple[Expression, ...]


@dataclass(frozen=True)
class ExistsExpression(Expression):
    """``EXISTS { pattern }`` / ``NOT EXISTS { pattern }``."""

    pattern: "GroupPattern"
    negated: bool = False


@dataclass(frozen=True)
class Aggregate(Expression):
    """``COUNT/SUM/MIN/MAX/AVG/SAMPLE/GROUP_CONCAT`` applications."""

    name: str  # uppercased aggregate name
    expression: Optional[Expression]  # None only for COUNT(*)
    distinct: bool = False
    separator: Optional[str] = None  # GROUP_CONCAT only


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


class Pattern:
    """Base class for graph patterns."""

    __slots__ = ()


@dataclass(frozen=True)
class TriplePattern(Pattern):
    """A triple pattern ``s p o`` (no property path)."""

    subject: Term
    predicate: Term
    object: Term

    def terms(self) -> Tuple[Term, Term, Term]:
        """The pattern as a (subject, predicate, object) tuple."""
        return (self.subject, self.predicate, self.object)


@dataclass(frozen=True)
class PathPattern(Pattern):
    """A property-path pattern ``s path o``."""

    subject: Term
    path: Path
    object: Term


@dataclass(frozen=True)
class FilterPattern(Pattern):
    """A FILTER constraint, kept in place inside its group."""

    expression: Expression


@dataclass(frozen=True)
class BindPattern(Pattern):
    """``BIND(expr AS ?var)``."""

    expression: Expression
    variable: Variable


@dataclass(frozen=True)
class ValuesPattern(Pattern):
    """Inline data: ``VALUES (?x ?y) { (v1 v2) ... }``.

    ``None`` in a row encodes UNDEF.
    """

    variables: Tuple[Variable, ...]
    rows: Tuple[Tuple[Optional[Term], ...], ...]


@dataclass(frozen=True)
class GroupPattern(Pattern):
    """A group graph pattern ``{ ... }``: conjunction of elements."""

    elements: Tuple[Pattern, ...]


@dataclass(frozen=True)
class UnionPattern(Pattern):
    """``left UNION right`` (n-ary unions are left-nested by the parser
    and flattened on demand by analyses)."""

    left: Pattern
    right: Pattern

    def __eq__(self, other):
        return _chain_eq(self, other, ("right",))

    def __hash__(self):
        return hash(_chain_key(self, ("right",)))

    def __repr__(self):
        return _chain_repr(self, ("right",))

    def __reduce__(self):
        return _reduce_chain(self, "right")


@dataclass(frozen=True)
class OptionalPattern(Pattern):
    """``OPTIONAL { ... }`` — the left operand is implicit (the
    preceding elements of the enclosing group)."""

    pattern: Pattern


@dataclass(frozen=True)
class GraphGraphPattern(Pattern):
    """``GRAPH term { ... }``."""

    graph: Term  # IRI or Variable
    pattern: Pattern


@dataclass(frozen=True)
class MinusPattern(Pattern):
    """``MINUS { ... }``."""

    pattern: Pattern


@dataclass(frozen=True)
class ServicePattern(Pattern):
    """``SERVICE [SILENT] term { ... }`` (federation; parsed, and
    stripped by the corpus study exactly as the paper's fn. 13 does)."""

    endpoint: Term  # IRI or Variable
    pattern: Pattern
    silent: bool = False


@dataclass(frozen=True)
class SubSelectPattern(Pattern):
    """A subquery ``{ SELECT ... }`` used as a graph pattern."""

    query: "Query"


def _chain_key(node, fields: Tuple[str, ...]):
    """A left-nested chain (``?a + ?b + ...``, ``{..} UNION {..} UNION
    ...``) as its innermost left operand and one flat tuple of the other
    *fields* of each link, outermost first.  The parser builds these
    chains in a loop, so they may nest deeper than recursion can follow:
    pickling, hashing and ``==`` walk the left spine here instead."""
    kind, links = type(node), []
    while type(node) is kind:
        links.append(tuple(getattr(node, name) for name in fields))
        node = node.left
    return node, tuple(links)


def _chain_eq(node, other, fields: Tuple[str, ...]):
    if other.__class__ is not node.__class__:
        return NotImplemented
    return node is other or _chain_key(node, fields) == _chain_key(other, fields)


def _chain_repr(node, fields: Tuple[str, ...]):
    """The dataclass ``repr`` of a chain, spelled along the left spine in
    a loop.  Fields print in declaration order: ``op`` (arithmetic only),
    then ``left``, then ``right``."""
    leftmost, links = _chain_key(node, fields)
    kind, opens, closes = type(node).__qualname__, [], []
    for *op, right in links:
        opens.append(f"{kind}(" + "".join(f"op={o!r}, " for o in op) + "left=")
        closes.append(f", right={right!r})")
    return "".join(opens) + repr(leftmost) + "".join(reversed(closes))


def _reduce_chain(node, *fields: str):
    """Pickle a chain flat: its innermost left operand and its links."""
    leftmost, links = _chain_key(node, fields)
    return _build_chain, (type(node), leftmost, fields, links[::-1])


def _build_chain(kind, node, fields, links):
    for link in links:
        node = kind(left=node, **dict(zip(fields, link)))
    return node


# ---------------------------------------------------------------------------
# Query-level structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prologue:
    """BASE and PREFIX declarations, in source order."""

    base: Optional[str] = None
    prefixes: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ProjectionExpression:
    """``(expr AS ?var)`` in a SELECT clause."""

    expression: Expression
    variable: Variable


@dataclass(frozen=True)
class Projection:
    """The SELECT clause contents.

    ``select_all`` encodes ``SELECT *``; otherwise *items* holds
    variables and ``(expr AS ?var)`` expressions in order.
    """

    select_all: bool = False
    items: Tuple[Union[Variable, ProjectionExpression], ...] = ()
    distinct: bool = False
    reduced: bool = False

    def variables(self) -> Tuple[Variable, ...]:
        """The values-block variables, in declaration order."""
        out: List[Variable] = []
        for item in self.items:
            if isinstance(item, Variable):
                out.append(item)
            else:
                out.append(item.variable)
        return tuple(out)


@dataclass(frozen=True)
class OrderCondition:
    """One ORDER BY condition."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SolutionModifier:
    """GROUP BY / HAVING / ORDER BY / LIMIT / OFFSET."""

    group_by: Tuple[Union[Expression, ProjectionExpression], ...] = ()
    having: Tuple[Expression, ...] = ()
    order_by: Tuple[OrderCondition, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None

    def is_trivial(self) -> bool:
        """Whether the pattern adds no constraint (empty group)."""
        return not (
            self.group_by or self.having or self.order_by
            or self.limit is not None or self.offset is not None
        )


@dataclass(frozen=True)
class Query:
    """A full SPARQL query: (query-type, pattern, solution-modifier).

    *pattern* is ``None`` for body-less queries — the paper notes that
    4.47% of its unique corpus are DESCRIBE queries without a body.
    For CONSTRUCT, *template* holds the construct template; for
    DESCRIBE, *describe_targets* holds the described terms (empty
    tuple means ``DESCRIBE *``).
    """

    query_type: QueryType
    pattern: Optional[Pattern]
    prologue: Prologue = Prologue()
    projection: Optional[Projection] = None  # SELECT only
    template: Tuple[TriplePattern, ...] = ()  # CONSTRUCT only
    describe_targets: Tuple[Term, ...] = ()  # DESCRIBE only
    describe_all: bool = False  # DESCRIBE *
    modifier: SolutionModifier = SolutionModifier()
    values: Optional[ValuesPattern] = None  # trailing VALUES clause
    #: FROM / FROM NAMED dataset clauses as (iri, is_named) pairs.
    datasets: Tuple[Tuple[IRI, bool], ...] = ()

    def has_body(self) -> bool:
        """Whether the query has a WHERE body (DESCRIBE may not)."""
        return self.pattern is not None
