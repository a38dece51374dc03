"""Recursive-descent parser for SPARQL 1.1 queries.

The parser consumes the token stream of :mod:`repro.sparql.tokenizer`
and produces the AST of :mod:`repro.sparql.ast`.  It covers the query
language (not SPARQL Update): the four query forms, group graph
patterns with FILTER / OPTIONAL / UNION / GRAPH / MINUS / BIND /
VALUES / SERVICE, subqueries, property paths, blank-node property
lists, RDF collections, expressions with full operator precedence,
builtins, aggregates, and solution modifiers.  Expressions and paths
are each parsed by one loop over explicit stacks; only nested
constructs recurse, and a query nested deeper than
:data:`MAX_NESTING_DEPTH` is a syntax error.

Entry point: :func:`parse_query`.

Paper mapping: the validity oracle of sec 2 (parse failures separate
Total from Valid in Table 1; the paper used Jena 3.0.1).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

from ..exceptions import SparqlSyntaxError
from ..rdf.terms import (
    IRI,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    BlankNode,
    Literal,
    Term,
    Variable,
)
from . import ast
from .tokenizer import Token, TokenType, tokenize

__all__ = ["parse_query", "Parser", "MAX_NESTING_DEPTH"]

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = IRI(RDF_NS + "type")
RDF_FIRST = IRI(RDF_NS + "first")
RDF_REST = IRI(RDF_NS + "rest")
RDF_NIL = IRI(RDF_NS + "nil")

#: Builtin call names accepted with a plain argument list.
BUILTIN_NAMES = frozenset(
    {
        "STR", "LANG", "LANGMATCHES", "DATATYPE", "BOUND", "IRI", "URI",
        "BNODE", "RAND", "ABS", "CEIL", "FLOOR", "ROUND", "CONCAT",
        "STRLEN", "UCASE", "LCASE", "ENCODE_FOR_URI", "CONTAINS",
        "STRSTARTS", "STRENDS", "STRBEFORE", "STRAFTER", "YEAR", "MONTH",
        "DAY", "HOURS", "MINUTES", "SECONDS", "TIMEZONE", "TZ", "NOW",
        "UUID", "STRUUID", "MD5", "SHA1", "SHA256", "SHA384", "SHA512",
        "COALESCE", "IF", "STRLANG", "STRDT", "SAMETERM", "ISIRI",
        "ISURI", "ISBLANK", "ISLITERAL", "ISNUMERIC", "REGEX", "SUBSTR",
        "REPLACE",
    }
)

AGGREGATE_NAMES = frozenset(
    {"COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT"}
)

#: Binary operators by binding power, loosest first.
_BINDING_POWER = {
    "||": 1, "&&": 2,
    "=": 3, "!=": 3, "<": 3, ">": 3, "<=": 3, ">=": 3,
    "+": 4, "-": 4, "*": 5, "/": 5,
}
_RELATIONAL = 3

#: How deep a query may nest; groups, sub-selects, EXISTS, expressions
#: (in parentheses, call arguments, IN lists), prefix ``!``/``-``,
#: parenthesised paths, ``[ ]`` lists and collections are one level
#: each.  Every AST within it pickles to a pool worker on Python
#: 3.10-3.12 (docs/ARCHITECTURE.md, invariant 1).
MAX_NESTING_DEPTH = 64


def _is_builtin(token: Token) -> bool:
    return token.type == TokenType.KEYWORD and token.value.upper() in BUILTIN_NAMES


def parse_query(
    text: str, extra_prefixes: Optional[dict] = None
) -> ast.Query:
    """Parse *text* into a :class:`repro.sparql.ast.Query`.

    *extra_prefixes* supplies prefix bindings available without a
    PREFIX declaration (endpoints such as DBpedia and Wikidata
    pre-declare their vocabulary prefixes; the logs rely on this).

    Raises :class:`~repro.exceptions.SparqlSyntaxError` on any input
    that is not a single valid SPARQL 1.1 query.
    """
    return Parser(text, extra_prefixes=extra_prefixes).parse()


class Parser:
    """Single-use recursive-descent parser over a token list."""

    def __init__(self, text: str, extra_prefixes: Optional[dict] = None) -> None:
        self._tokens = tokenize(text)
        self._pos = 0
        self._namespaces: Dict[str, str] = dict(extra_prefixes or {})
        self._base: Optional[str] = None
        self._prefix_decls: List[Tuple[str, str]] = []
        self._bnode_counter = itertools.count()
        self._depth = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]  # _next never moves past EOF

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.type != TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> SparqlSyntaxError:
        token = token or self._peek()
        return SparqlSyntaxError(message, token.line, token.column)

    def _expect_punct(self, symbol: str) -> Token:
        token = self._peek()
        if not token.is_punct(symbol):
            raise self._error(f"expected {symbol!r}, found {token.value!r}")
        return self._next()

    def _expect_keyword(self, *words: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*words):
            raise self._error(
                f"expected {' or '.join(words)}, found {token.value!r}"
            )
        return self._next()

    def _accept_punct(self, symbol: str) -> bool:
        if self._peek().is_punct(symbol):
            self._next()
            return True
        return False

    def _accept_keyword(self, *words: str) -> bool:
        if self._peek().is_keyword(*words):
            self._next()
            return True
        return False

    def _enter(self, levels: int = 1) -> None:
        """Open *levels* of nesting (closed by decrementing ``_depth``)."""
        self._depth += levels
        if self._depth > MAX_NESTING_DEPTH:
            raise self._error(f"query nests deeper than the limit of {MAX_NESTING_DEPTH} levels")

    def _fresh_bnode(self) -> BlankNode:
        return BlankNode(f"__b{next(self._bnode_counter)}")

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse(self) -> ast.Query:
        """Parse one complete query, consuming all input."""
        self._parse_prologue()
        token = self._peek()
        if token.is_keyword("SELECT"):
            query = self._parse_select_query()
        elif token.is_keyword("ASK"):
            query = self._parse_ask_query()
        elif token.is_keyword("CONSTRUCT"):
            query = self._parse_construct_query()
        elif token.is_keyword("DESCRIBE"):
            query = self._parse_describe_query()
        else:
            raise self._error(
                f"expected SELECT, ASK, CONSTRUCT or DESCRIBE, found {token.value!r}"
            )
        if self._peek().type != TokenType.EOF:
            raise self._error(f"trailing input: {self._peek().value!r}")
        return query

    # ------------------------------------------------------------------
    # Prologue
    # ------------------------------------------------------------------
    def _parse_prologue(self) -> None:
        while True:
            token = self._peek()
            if token.is_keyword("PREFIX"):
                self._next()
                name_token = self._peek()
                if name_token.type != TokenType.PNAME or not name_token.value.endswith(":"):
                    raise self._error("expected prefix name ending in ':'")
                self._next()
                prefix = name_token.value[:-1]
                iri_token = self._peek()
                if iri_token.type != TokenType.IRIREF:
                    raise self._error("expected IRI after PREFIX")
                self._next()
                namespace = self._resolve_iri(iri_token.value)
                self._namespaces[prefix] = namespace
                self._prefix_decls.append((prefix, namespace))
            elif token.is_keyword("BASE"):
                self._next()
                iri_token = self._peek()
                if iri_token.type != TokenType.IRIREF:
                    raise self._error("expected IRI after BASE")
                self._next()
                self._base = iri_token.value
            else:
                break

    def _prologue(self) -> ast.Prologue:
        return ast.Prologue(base=self._base, prefixes=tuple(self._prefix_decls))

    def _resolve_iri(self, value: str) -> str:
        """Resolve *value* against the BASE declaration if relative."""
        if self._base is None or "://" in value or value.startswith("urn:"):
            return value
        if value.startswith("#") or not value:
            return self._base + value
        base = self._base.rsplit("/", 1)[0] + "/" if "/" in self._base else self._base
        if value.startswith("/"):
            scheme_end = self._base.find("://")
            if scheme_end != -1:
                authority_end = self._base.find("/", scheme_end + 3)
                if authority_end != -1:
                    return self._base[:authority_end] + value
            return self._base + value
        return base + value

    # ------------------------------------------------------------------
    # Query forms
    # ------------------------------------------------------------------
    def _parse_select_query(self) -> ast.Query:
        projection = self._parse_select_clause()
        datasets = self._parse_dataset_clauses()
        pattern = self._parse_where_clause()
        modifier = self._parse_solution_modifier()
        values = self._parse_values_clause_opt()
        return ast.Query(
            query_type=ast.QueryType.SELECT,
            pattern=pattern,
            prologue=self._prologue(),
            projection=projection,
            modifier=modifier,
            values=values,
            datasets=datasets,
        )

    def _parse_select_clause(self) -> ast.Projection:
        self._expect_keyword("SELECT")
        distinct = reduced = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        elif self._accept_keyword("REDUCED"):
            reduced = True
        if self._accept_punct("*"):
            return ast.Projection(select_all=True, distinct=distinct, reduced=reduced)
        items: List[Union[Variable, ast.ProjectionExpression]] = []
        while True:
            token = self._peek()
            if token.type == TokenType.VAR:
                self._next()
                items.append(Variable(token.value))
            elif token.is_punct("("):
                items.append(self._parse_projection_expression())
            else:
                break
        if not items:
            raise self._error("SELECT clause requires '*' or at least one variable")
        return ast.Projection(items=tuple(items), distinct=distinct, reduced=reduced)

    def _parse_ask_query(self) -> ast.Query:
        self._expect_keyword("ASK")
        datasets = self._parse_dataset_clauses()
        pattern = self._parse_where_clause()
        modifier = self._parse_solution_modifier()
        values = self._parse_values_clause_opt()
        return ast.Query(
            query_type=ast.QueryType.ASK,
            pattern=pattern,
            prologue=self._prologue(),
            modifier=modifier,
            values=values,
            datasets=datasets,
        )

    def _parse_construct_query(self) -> ast.Query:
        self._expect_keyword("CONSTRUCT")
        if self._peek().is_punct("{"):
            template = self._parse_construct_template()
            datasets = self._parse_dataset_clauses()
            pattern = self._parse_where_clause()
        else:
            # Short form: CONSTRUCT WHERE { triples } — template = pattern.
            datasets = self._parse_dataset_clauses()
            self._expect_keyword("WHERE")
            self._expect_punct("{")
            triples = self._parse_triples_block(allow_paths=False)
            self._expect_punct("}")
            template = tuple(
                element
                for element in triples
                if isinstance(element, ast.TriplePattern)
            )
            pattern = ast.GroupPattern(tuple(triples))
        modifier = self._parse_solution_modifier()
        values = self._parse_values_clause_opt()
        return ast.Query(
            query_type=ast.QueryType.CONSTRUCT,
            pattern=pattern,
            prologue=self._prologue(),
            template=template,
            modifier=modifier,
            values=values,
            datasets=datasets,
        )

    def _parse_construct_template(self) -> Tuple[ast.TriplePattern, ...]:
        self._expect_punct("{")
        elements = self._parse_triples_block(allow_paths=False)
        self._expect_punct("}")
        template = []
        for element in elements:
            if not isinstance(element, ast.TriplePattern):
                raise self._error("construct template must contain only triples")
            template.append(element)
        return tuple(template)

    def _parse_describe_query(self) -> ast.Query:
        self._expect_keyword("DESCRIBE")
        targets: List[Term] = []
        describe_all = False
        if self._accept_punct("*"):
            describe_all = True
        else:
            while True:
                token = self._peek()
                if token.type == TokenType.VAR:
                    self._next()
                    targets.append(Variable(token.value))
                elif token.type in (TokenType.IRIREF, TokenType.PNAME) or token.is_keyword("A"):
                    targets.append(self._parse_iri())
                else:
                    break
            if not targets:
                raise self._error("DESCRIBE requires '*' or at least one resource")
        datasets = self._parse_dataset_clauses()
        pattern: Optional[ast.Pattern] = None
        if self._peek().is_keyword("WHERE") or self._peek().is_punct("{"):
            pattern = self._parse_where_clause()
        modifier = self._parse_solution_modifier()
        return ast.Query(
            query_type=ast.QueryType.DESCRIBE,
            pattern=pattern,
            prologue=self._prologue(),
            describe_targets=tuple(targets),
            describe_all=describe_all,
            modifier=modifier,
            datasets=datasets,
        )

    def _parse_dataset_clauses(self) -> Tuple[Tuple[IRI, bool], ...]:
        clauses: List[Tuple[IRI, bool]] = []
        while self._accept_keyword("FROM"):
            named = self._accept_keyword("NAMED")
            clauses.append((self._parse_iri(), named))
        return tuple(clauses)

    def _parse_where_clause(self) -> ast.GroupPattern:
        self._accept_keyword("WHERE")
        return self._parse_group_graph_pattern()

    def _parse_values_clause_opt(self) -> Optional[ast.ValuesPattern]:
        if self._peek().is_keyword("VALUES"):
            return self._parse_values()
        return None

    # ------------------------------------------------------------------
    # Group graph patterns
    # ------------------------------------------------------------------
    def _parse_group_graph_pattern(self) -> ast.GroupPattern:
        self._enter()
        self._expect_punct("{")
        if self._peek().is_keyword("SELECT"):
            self._enter()
            subquery = self._parse_select_query()
            self._expect_punct("}")
            self._depth -= 2
            return ast.GroupPattern((ast.SubSelectPattern(subquery),))
        elements: List[ast.Pattern] = []
        while True:
            token = self._peek()
            if token.is_punct("}"):
                break
            if token.type == TokenType.EOF:
                raise self._error("unterminated group graph pattern")
            keyword = token.value.upper() if token.type == TokenType.KEYWORD else ""
            if keyword in ("FILTER", "OPTIONAL", "MINUS", "GRAPH", "SERVICE", "BIND"):
                self._next()
            if keyword == "FILTER":
                element: ast.Pattern = ast.FilterPattern(self._parse_constraint())
            elif keyword == "OPTIONAL":
                element = ast.OptionalPattern(self._parse_group_graph_pattern())
            elif keyword == "MINUS":
                element = ast.MinusPattern(self._parse_group_graph_pattern())
            elif keyword == "GRAPH":
                graph_term = self._parse_var_or_iri()
                element = ast.GraphGraphPattern(graph_term, self._parse_group_graph_pattern())
            elif keyword == "SERVICE":
                silent = self._accept_keyword("SILENT")
                endpoint = self._parse_var_or_iri()
                element = ast.ServicePattern(
                    endpoint, self._parse_group_graph_pattern(), silent=silent
                )
            elif keyword == "BIND":
                bound = self._parse_projection_expression()
                element = ast.BindPattern(bound.expression, bound.variable)
            elif keyword == "VALUES":
                element = self._parse_values()
            elif token.is_punct("{"):
                element = self._parse_group_graph_pattern()
                while self._accept_keyword("UNION"):
                    element = ast.UnionPattern(element, self._parse_group_graph_pattern())
                # Unwrap a bare subquery: "{ SELECT ... }" should appear
                # as a SubSelectPattern element, not a nested group.
                if (
                    isinstance(element, ast.GroupPattern)
                    and len(element.elements) == 1
                    and isinstance(element.elements[0], ast.SubSelectPattern)
                ):
                    element = element.elements[0]
            else:
                triples = self._parse_triples_block(allow_paths=True)
                if not triples:
                    raise self._error(f"unexpected token {token.value!r} in pattern")
                elements.extend(triples)
                continue
            elements.append(element)
            self._accept_punct(".")
        self._next()
        self._depth -= 1
        return ast.GroupPattern(tuple(elements))

    def _parse_values(self) -> ast.ValuesPattern:
        self._expect_keyword("VALUES")
        variables: List[Variable] = []
        token = self._peek()
        if token.type == TokenType.VAR:
            self._next()
            variables.append(Variable(token.value))
            single = True
        elif token.is_punct("(") or token.type == TokenType.NIL:
            single = False
            self._next()
            if token.type != TokenType.NIL:
                while self._peek().type == TokenType.VAR:
                    variables.append(Variable(self._next().value))
                self._expect_punct(")")
        else:
            raise self._error("expected variable list after VALUES")
        self._expect_punct("{")
        rows: List[Tuple[Optional[Term], ...]] = []
        while not self._peek().is_punct("}"):
            if self._peek().type == TokenType.EOF:
                raise self._error("unterminated VALUES block")
            if single:
                rows.append((self._parse_data_value(),))
            else:
                if self._peek().type == TokenType.NIL:
                    self._next()
                    rows.append(())
                    continue
                self._expect_punct("(")
                row: List[Optional[Term]] = []
                while not self._peek().is_punct(")"):
                    row.append(self._parse_data_value())
                self._next()
                if len(row) != len(variables):
                    raise self._error(
                        f"VALUES row has {len(row)} terms for {len(variables)} variables"
                    )
                rows.append(tuple(row))
        self._next()
        return ast.ValuesPattern(tuple(variables), tuple(rows))

    def _parse_data_value(self) -> Optional[Term]:
        token = self._peek()
        if token.is_keyword("UNDEF"):
            self._next()
            return None
        return self._parse_graph_term(allow_var=False, allow_bnode=False)

    # ------------------------------------------------------------------
    # Triples blocks
    # ------------------------------------------------------------------
    def _parse_triples_block(self, allow_paths: bool) -> List[ast.Pattern]:
        """Parse TriplesSameSubject(Path) ('.' TriplesSameSubject(Path))*."""
        patterns: List[ast.Pattern] = []
        while True:
            token = self._peek()
            if not self._starts_term(token):
                break
            self._parse_triples_same_subject(patterns, allow_paths)
            if not self._accept_punct("."):
                break
        return patterns

    @staticmethod
    def _starts_term(token: Token) -> bool:
        return (
            token.type
            in (
                TokenType.VAR,
                TokenType.IRIREF,
                TokenType.PNAME,
                TokenType.BLANK_NODE,
                TokenType.STRING,
                TokenType.INTEGER,
                TokenType.DECIMAL,
                TokenType.DOUBLE,
                TokenType.ANON,
                TokenType.NIL,
            )
            or token.is_punct("[", "(")
            or token.is_keyword("TRUE", "FALSE")
            or (token.is_punct("+") or token.is_punct("-"))
        )

    def _parse_triples_same_subject(
        self, patterns: List[ast.Pattern], allow_paths: bool
    ) -> None:
        token = self._peek()
        subject = self._parse_object(patterns, allow_paths)
        # A blank-node property list may be the whole statement ([...] .).
        self._parse_property_list(
            subject, patterns, allow_paths,
            optional=token.is_punct("[") or token.type == TokenType.ANON,
        )

    def _starts_verb(self, token: Token) -> bool:
        if token.type in (TokenType.VAR, TokenType.IRIREF, TokenType.PNAME):
            return True
        if token.type == TokenType.KEYWORD and token.value == "a":
            return True
        return token.is_punct("^", "!", "(")

    def _parse_property_list(
        self,
        subject: Term,
        patterns: List[ast.Pattern],
        allow_paths: bool,
        optional: bool = False,
    ) -> None:
        first = True
        while True:
            token = self._peek()
            if not self._starts_verb(token):
                if first and not optional:
                    raise self._error(f"expected predicate, found {token.value!r}")
                return
            first = False
            verb = self._parse_verb(allow_paths)
            self._parse_object_list(subject, verb, patterns, allow_paths)
            if not self._accept_punct(";"):
                return
            # A ';' may be trailing (e.g. "?s :p ?o ; .").
            while self._accept_punct(";"):
                pass

    def _parse_verb(self, allow_paths: bool) -> Union[Term, ast.Path]:
        token = self._peek()
        if token.type == TokenType.VAR:
            self._next()
            return Variable(token.value)
        if allow_paths:
            # 'a' (rdf:type) is handled inside the path grammar so that
            # modifiers like "a*" lex/parse correctly.
            path = self._parse_path()
            if isinstance(path, ast.PathIRI):
                return path.iri
            return path
        return self._parse_iri_or_a()

    def _parse_object_list(
        self,
        subject: Term,
        verb: Union[Term, ast.Path],
        patterns: List[ast.Pattern],
        allow_paths: bool,
    ) -> None:
        while True:
            obj = self._parse_object(patterns, allow_paths)
            if isinstance(verb, ast.Path):
                patterns.append(ast.PathPattern(subject, verb, obj))
            else:
                patterns.append(ast.TriplePattern(subject, verb, obj))
            if not self._accept_punct(","):
                return

    def _parse_object(
        self, patterns: List[ast.Pattern], allow_paths: bool
    ) -> Term:
        token = self._peek()
        if token.is_punct("[") or token.type == TokenType.ANON:
            return self._parse_blank_node_property_list(patterns, allow_paths)
        if token.is_punct("(") or token.type == TokenType.NIL:
            return self._parse_collection(patterns, allow_paths)
        return self._parse_graph_term(allow_var=True, allow_bnode=True)

    def _parse_blank_node_property_list(
        self, patterns: List[ast.Pattern], allow_paths: bool
    ) -> BlankNode:
        token = self._peek()
        if token.type == TokenType.ANON:
            self._next()
            return self._fresh_bnode()
        self._enter()
        self._expect_punct("[")
        node = self._fresh_bnode()
        self._parse_property_list(node, patterns, allow_paths)
        self._expect_punct("]")
        self._depth -= 1
        return node

    def _parse_collection(
        self, patterns: List[ast.Pattern], allow_paths: bool
    ) -> Term:
        token = self._peek()
        if token.type == TokenType.NIL:
            self._next()
            return RDF_NIL
        self._enter()
        self._expect_punct("(")
        items: List[Term] = []
        while not self._peek().is_punct(")"):
            if self._peek().type == TokenType.EOF:
                raise self._error("unterminated collection")
            items.append(self._parse_object(patterns, allow_paths))
        self._next()
        self._depth -= 1
        if not items:
            return RDF_NIL
        head = self._fresh_bnode()
        node: Term = head
        for index, item in enumerate(items):
            patterns.append(ast.TriplePattern(node, RDF_FIRST, item))
            if index + 1 < len(items):
                nxt = self._fresh_bnode()
                patterns.append(ast.TriplePattern(node, RDF_REST, nxt))
                node = nxt
            else:
                patterns.append(ast.TriplePattern(node, RDF_REST, RDF_NIL))
        return head

    # ------------------------------------------------------------------
    # Terms
    # ------------------------------------------------------------------
    def _parse_iri(self) -> IRI:
        token = self._peek()
        if token.type == TokenType.IRIREF:
            self._next()
            return IRI(self._resolve_iri(token.value))
        if token.type == TokenType.PNAME:
            self._next()
            prefix, _, local = token.value.partition(":")
            namespace = self._namespaces.get(prefix)
            if namespace is None:
                raise self._error(f"undeclared prefix {prefix!r}", token)
            local = local.replace("\\", "")
            return IRI(namespace + local)
        raise self._error(f"expected IRI, found {token.value!r}")

    def _parse_var_or_iri(self) -> Term:
        token = self._peek()
        if token.type == TokenType.VAR:
            self._next()
            return Variable(token.value)
        return self._parse_iri()

    def _parse_graph_term(self, allow_var: bool, allow_bnode: bool) -> Term:
        token = self._peek()
        if token.type == TokenType.VAR:
            if not allow_var:
                raise self._error("variable not allowed here")
            self._next()
            return Variable(token.value)
        if token.type in (TokenType.IRIREF, TokenType.PNAME):
            return self._parse_iri()
        if token.type == TokenType.BLANK_NODE:
            if not allow_bnode:
                raise self._error("blank node not allowed here")
            self._next()
            return BlankNode(token.value)
        if token.type == TokenType.ANON:
            if not allow_bnode:
                raise self._error("blank node not allowed here")
            self._next()
            return self._fresh_bnode()
        if token.type == TokenType.STRING:
            return self._parse_literal()
        if token.type in (TokenType.INTEGER, TokenType.DECIMAL, TokenType.DOUBLE):
            return self._parse_numeric_literal()
        if token.is_punct("+", "-"):
            sign = self._next().value
            number = self._parse_numeric_literal()
            lexical = number.lexical if sign == "+" else sign + number.lexical
            return Literal(lexical, datatype=number.datatype)
        if token.is_keyword("TRUE", "FALSE"):
            self._next()
            return Literal(token.value.lower(), datatype=XSD_BOOLEAN)
        raise self._error(f"expected RDF term, found {token.value!r}")

    def _parse_literal(self) -> Literal:
        token = self._next()
        assert token.type == TokenType.STRING
        nxt = self._peek()
        if nxt.type == TokenType.LANGTAG:
            self._next()
            return Literal(token.value, language=nxt.value)
        if nxt.is_punct("^^"):
            self._next()
            datatype = self._parse_iri()
            return Literal(token.value, datatype=datatype.value)
        return Literal(token.value)

    def _parse_numeric_literal(self) -> Literal:
        token = self._peek()
        if token.type == TokenType.INTEGER:
            self._next()
            return Literal(token.value, datatype=XSD_INTEGER)
        if token.type == TokenType.DECIMAL:
            self._next()
            return Literal(token.value, datatype=XSD_DECIMAL)
        if token.type == TokenType.DOUBLE:
            self._next()
            return Literal(token.value, datatype=XSD_DOUBLE)
        raise self._error(f"expected number, found {token.value!r}")

    # ------------------------------------------------------------------
    # Property paths (SPARQL 1.1 §9)
    # ------------------------------------------------------------------
    def _parse_path(self) -> ast.Path:
        """Parse a Path with one loop: ``(`` pushes the ``|`` *options*
        and ``/`` *steps* parsed so far, with the ``^`` before it, and
        ``)`` pops them; its path then takes a modifier like any IRI."""
        stack: List[Tuple[List[ast.Path], List[ast.Path], bool]] = []
        options: List[ast.Path] = []
        steps: List[ast.Path] = []
        while True:
            inverse = self._accept_punct("^")
            token = self._peek()
            if token.is_punct("("):
                self._enter()
                self._next()
                stack.append((options, steps, inverse))
                options, steps = [], []
                continue
            if token.is_punct("!"):
                self._next()
                primary: ast.Path = self._parse_negated_property_set()
            else:
                primary = ast.PathIRI(self._parse_iri_or_a())
            while True:
                token = self._peek()
                if token.is_punct("*", "+", "?"):
                    self._next()
                    primary = ast.PathMod(primary, token.value)
                steps.append(ast.PathInverse(primary) if inverse else primary)
                if self._accept_punct("/"):
                    break
                options.append(steps[0] if len(steps) == 1 else ast.PathSequence(tuple(steps)))
                steps = []
                if self._accept_punct("|"):
                    break
                primary = options[0] if len(options) == 1 else ast.PathAlternative(tuple(options))
                if not stack:
                    return primary
                self._expect_punct(")")
                self._depth -= 1
                options, steps, inverse = stack.pop()

    def _parse_negated_property_set(self) -> ast.PathNegated:
        forward: List[IRI] = []
        inverse: List[IRI] = []

        def one() -> None:
            if self._accept_punct("^"):
                inverse.append(self._parse_iri_or_a())
            else:
                forward.append(self._parse_iri_or_a())

        if self._accept_punct("("):
            if not self._peek().is_punct(")"):
                one()
                while self._accept_punct("|"):
                    one()
            self._expect_punct(")")
        else:
            one()
        return ast.PathNegated(tuple(forward), tuple(inverse))

    def _parse_iri_or_a(self) -> IRI:
        token = self._peek()
        if token.type == TokenType.KEYWORD and token.value == "a":
            self._next()
            return RDF_TYPE
        return self._parse_iri()

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_constraint(self) -> ast.Expression:
        token = self._peek()
        if not (
            token.is_punct("(") or token.is_keyword("EXISTS", "NOT") or _is_builtin(token)
            or token.type in (TokenType.IRIREF, TokenType.PNAME)
        ):
            raise self._error(f"expected filter constraint, found {token.value!r}")
        return self._parse_primary_expression()

    def _parse_bracketted_expression(self) -> ast.Expression:
        self._expect_punct("(")
        expression = self._parse_expression()
        self._expect_punct(")")
        return expression

    def _parse_expression(self) -> ast.Expression:
        """Parse one Expression with a precedence-climbing loop.

        *pending* holds the open binary operators as [binding power,
        symbol, operand count], reduced once one binding no tighter
        follows: ``||`` and ``&&`` gather n-ary nodes, ``+ - * /`` nest
        to the left, and comparisons and ``[NOT] IN`` do not chain.
        """
        self._enter()
        operands: List[ast.Expression] = []
        pending: List[list] = []
        relation = 0  # 1 after a comparison, 2 after [NOT] IN, at this level

        def reduce() -> None:
            power, symbol, count = pending.pop()
            args = operands[-count:]
            del operands[-count:]
            if power == 1:
                operands.append(ast.OrExpression(tuple(args)))
            elif power == 2:
                operands.append(ast.AndExpression(tuple(args)))
            elif power == _RELATIONAL:
                operands.append(ast.Comparison(symbol, *args))
            else:
                operands.append(ast.Arithmetic(symbol, *args))

        while True:
            prefixes = []
            while self._peek().is_punct("!", "-", "+"):
                symbol = self._next().value
                if symbol != "+":  # a leading '+' is dropped
                    prefixes.append(symbol)
            self._enter(len(prefixes))
            operand = self._parse_primary_expression()
            for symbol in reversed(prefixes):
                operand = (
                    ast.NotExpression(operand) if symbol == "!" else ast.UnaryMinus(operand)
                )
            self._depth -= len(prefixes)
            operands.append(operand)
            token = self._peek()
            if token.is_keyword("IN", "NOT") and not relation:
                while pending and pending[-1][0] > _RELATIONAL:
                    reduce()
                self._next()
                negated = token.is_keyword("NOT")
                if negated:
                    self._expect_keyword("IN")
                operands[-1] = ast.InExpression(
                    operands[-1], self._parse_arguments()[1], negated=negated
                )
                relation = 2
                token = self._peek()
            power = _BINDING_POWER.get(token.value, 0) if token.type == TokenType.PUNCT else 0
            if not power or relation and (
                power == _RELATIONAL or power > _RELATIONAL and relation == 2
            ):
                break
            while pending and (
                pending[-1][0] > power or pending[-1][0] == power > _RELATIONAL
            ):
                reduce()
            self._next()
            if pending and pending[-1][0] == power:
                pending[-1][2] += 1
            else:
                pending.append([power, token.value, 2])
            if power == _RELATIONAL:
                relation = 1
            elif power < _RELATIONAL:
                relation = 0
        while pending:
            reduce()
        self._depth -= 1
        return operands[0]

    def _parse_primary_expression(self) -> ast.Expression:
        token = self._peek()
        if token.is_punct("("):
            return self._parse_bracketted_expression()
        if token.type == TokenType.VAR:
            self._next()
            return ast.TermExpression(Variable(token.value))
        if token.type == TokenType.STRING:
            return ast.TermExpression(self._parse_literal())
        if token.type in (TokenType.INTEGER, TokenType.DECIMAL, TokenType.DOUBLE):
            return ast.TermExpression(self._parse_numeric_literal())
        if token.is_keyword("TRUE", "FALSE"):
            self._next()
            return ast.TermExpression(
                Literal(token.value.lower(), datatype=XSD_BOOLEAN)
            )
        if token.is_keyword("EXISTS", "NOT"):
            return self._parse_exists()
        if token.type == TokenType.KEYWORD:
            upper = token.value.upper()
            if upper in AGGREGATE_NAMES:
                return self._parse_aggregate()
            if upper in BUILTIN_NAMES:
                return self._parse_builtin_call()
            raise self._error(f"unexpected identifier {token.value!r} in expression")
        if token.type in (TokenType.IRIREF, TokenType.PNAME):
            return self._parse_iri_function_or_term()
        raise self._error(f"unexpected token {token.value!r} in expression")

    def _parse_exists(self) -> ast.ExistsExpression:
        negated = self._accept_keyword("NOT")
        self._enter()
        self._expect_keyword("EXISTS")
        pattern = self._parse_group_graph_pattern()
        self._depth -= 1
        return ast.ExistsExpression(pattern, negated=negated)

    def _parse_builtin_call(self) -> ast.BuiltinCall:
        name = self._next().value.upper()
        return ast.BuiltinCall(name, self._parse_arguments()[1])

    def _parse_arguments(
        self, allow_distinct: bool = False
    ) -> Tuple[bool, Tuple[ast.Expression, ...]]:
        """A call's arguments, ``NIL`` or ``( [DISTINCT] expr, ... )``,
        as (distinct, args)."""
        if self._peek().type == TokenType.NIL:
            self._next()
            return False, ()
        self._expect_punct("(")
        distinct = allow_distinct and self._accept_keyword("DISTINCT")
        args: List[ast.Expression] = []
        if not self._peek().is_punct(")"):
            args.append(self._parse_expression())
            while self._accept_punct(","):
                args.append(self._parse_expression())
        self._expect_punct(")")
        return distinct, tuple(args)

    def _parse_aggregate(self) -> ast.Aggregate:
        name_token = self._next()
        name = name_token.value.upper()
        self._expect_punct("(")
        distinct = self._accept_keyword("DISTINCT")
        if name == "COUNT" and self._accept_punct("*"):
            self._expect_punct(")")
            return ast.Aggregate(name, None, distinct=distinct)
        expression = self._parse_expression()
        separator: Optional[str] = None
        if name == "GROUP_CONCAT" and self._accept_punct(";"):
            self._expect_keyword("SEPARATOR")
            self._expect_punct("=")
            separator_token = self._peek()
            if separator_token.type != TokenType.STRING:
                raise self._error("SEPARATOR requires a string literal")
            self._next()
            separator = separator_token.value
        self._expect_punct(")")
        return ast.Aggregate(name, expression, distinct=distinct, separator=separator)

    def _parse_iri_function_or_term(self) -> ast.Expression:
        iri = self._parse_iri()
        token = self._peek()
        if token.is_punct("(") or token.type == TokenType.NIL:
            distinct, args = self._parse_arguments(allow_distinct=True)
            return ast.FunctionCall(iri, args, distinct=distinct)
        return ast.TermExpression(iri)

    def _parse_projection_expression(
        self, optional_as: bool = False
    ) -> Union[ast.Expression, ast.ProjectionExpression]:
        """``( expr AS ?var )`` as a ProjectionExpression; with
        *optional_as*, a plain ``( expr )`` too, as the expression."""
        self._expect_punct("(")
        expression = self._parse_expression()
        if optional_as and not self._peek().is_keyword("AS"):
            self._expect_punct(")")
            return expression
        self._expect_keyword("AS")
        token = self._peek()
        if token.type != TokenType.VAR:
            raise self._error("expected variable after AS")
        self._next()
        self._expect_punct(")")
        return ast.ProjectionExpression(expression, Variable(token.value))

    # ------------------------------------------------------------------
    # Solution modifiers
    # ------------------------------------------------------------------
    def _parse_solution_modifier(self) -> ast.SolutionModifier:
        group_by: List[Union[ast.Expression, ast.ProjectionExpression]] = []
        having: List[ast.Expression] = []
        order_by: List[ast.OrderCondition] = []
        limit: Optional[int] = None
        offset: Optional[int] = None

        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            while True:
                token = self._peek()
                if token.type == TokenType.VAR:
                    self._next()
                    group_by.append(ast.TermExpression(Variable(token.value)))
                elif token.is_punct("("):
                    group_by.append(self._parse_projection_expression(optional_as=True))
                elif _is_builtin(token):
                    group_by.append(self._parse_builtin_call())
                elif token.type in (TokenType.IRIREF, TokenType.PNAME):
                    group_by.append(self._parse_iri_function_or_term())
                else:
                    break
            if not group_by:
                raise self._error("GROUP BY requires at least one condition")

        if self._accept_keyword("HAVING"):
            having.append(self._parse_constraint())
            while self._peek().is_punct("(") or _is_builtin(self._peek()):
                having.append(self._parse_constraint())

        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                token = self._peek()
                if token.is_keyword("ASC", "DESC"):
                    self._next()
                    descending = token.value.upper() == "DESC"
                    order_by.append(
                        ast.OrderCondition(
                            self._parse_bracketted_expression(), descending
                        )
                    )
                elif token.type == TokenType.VAR:
                    self._next()
                    order_by.append(
                        ast.OrderCondition(ast.TermExpression(Variable(token.value)))
                    )
                elif token.is_punct("("):
                    order_by.append(
                        ast.OrderCondition(self._parse_bracketted_expression())
                    )
                elif _is_builtin(token):
                    order_by.append(ast.OrderCondition(self._parse_builtin_call()))
                else:
                    break
            if not order_by:
                raise self._error("ORDER BY requires at least one condition")

        # LIMIT and OFFSET may appear in either order.
        for _ in range(2):
            if self._accept_keyword("LIMIT"):
                limit = self._parse_non_negative_integer("LIMIT")
            elif self._accept_keyword("OFFSET"):
                offset = self._parse_non_negative_integer("OFFSET")

        return ast.SolutionModifier(
            group_by=tuple(group_by),
            having=tuple(having),
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
        )

    def _parse_non_negative_integer(self, context: str) -> int:
        token = self._peek()
        if token.type != TokenType.INTEGER:
            raise self._error(f"{context} requires an integer")
        self._next()
        return int(token.value)
