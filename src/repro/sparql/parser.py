"""Recursive-descent parser for SPARQL 1.1 queries.

The parser consumes the token stream of :mod:`repro.sparql.tokenizer`
and produces the AST of :mod:`repro.sparql.ast`.  It covers the query
language (not SPARQL Update): the four query forms, group graph
patterns with FILTER / OPTIONAL / UNION / GRAPH / MINUS / BIND /
VALUES / SERVICE, subqueries, property paths, blank-node property
lists, RDF collections, expressions with full operator precedence,
builtins, aggregates, and solution modifiers.

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

__all__ = ["parse_query", "Parser"]

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

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

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
                self._next()
                expression = self._parse_expression()
                self._expect_keyword("AS")
                var_token = self._peek()
                if var_token.type != TokenType.VAR:
                    raise self._error("expected variable after AS")
                self._next()
                self._expect_punct(")")
                items.append(
                    ast.ProjectionExpression(expression, Variable(var_token.value))
                )
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
        self._expect_punct("{")
        if self._peek().is_keyword("SELECT"):
            subquery = self._parse_select_query()
            self._expect_punct("}")
            return ast.GroupPattern((ast.SubSelectPattern(subquery),))
        elements: List[ast.Pattern] = []
        while True:
            token = self._peek()
            if token.is_punct("}"):
                self._next()
                return ast.GroupPattern(tuple(elements))
            if token.type == TokenType.EOF:
                raise self._error("unterminated group graph pattern")
            if token.is_keyword("FILTER"):
                self._next()
                elements.append(ast.FilterPattern(self._parse_constraint()))
                self._accept_punct(".")
            elif token.is_keyword("OPTIONAL"):
                self._next()
                elements.append(
                    ast.OptionalPattern(self._parse_group_graph_pattern())
                )
                self._accept_punct(".")
            elif token.is_keyword("MINUS"):
                self._next()
                elements.append(ast.MinusPattern(self._parse_group_graph_pattern()))
                self._accept_punct(".")
            elif token.is_keyword("GRAPH"):
                self._next()
                graph_term = self._parse_var_or_iri()
                elements.append(
                    ast.GraphGraphPattern(graph_term, self._parse_group_graph_pattern())
                )
                self._accept_punct(".")
            elif token.is_keyword("SERVICE"):
                self._next()
                silent = self._accept_keyword("SILENT")
                endpoint = self._parse_var_or_iri()
                elements.append(
                    ast.ServicePattern(
                        endpoint, self._parse_group_graph_pattern(), silent=silent
                    )
                )
                self._accept_punct(".")
            elif token.is_keyword("BIND"):
                self._next()
                self._expect_punct("(")
                expression = self._parse_expression()
                self._expect_keyword("AS")
                var_token = self._peek()
                if var_token.type != TokenType.VAR:
                    raise self._error("expected variable after AS in BIND")
                self._next()
                self._expect_punct(")")
                elements.append(
                    ast.BindPattern(expression, Variable(var_token.value))
                )
                self._accept_punct(".")
            elif token.is_keyword("VALUES"):
                elements.append(self._parse_values())
                self._accept_punct(".")
            elif token.is_punct("{"):
                nested = self._parse_group_graph_pattern()
                pattern = self._parse_union_tail(nested)
                # Unwrap a bare subquery: "{ SELECT ... }" should appear
                # as a SubSelectPattern element, not a nested group.
                if (
                    isinstance(pattern, ast.GroupPattern)
                    and len(pattern.elements) == 1
                    and isinstance(pattern.elements[0], ast.SubSelectPattern)
                ):
                    pattern = pattern.elements[0]
                elements.append(pattern)
                self._accept_punct(".")
            else:
                triples = self._parse_triples_block(allow_paths=True)
                if not triples:
                    raise self._error(f"unexpected token {token.value!r} in pattern")
                elements.extend(triples)

    def _parse_union_tail(self, first: ast.Pattern) -> ast.Pattern:
        pattern = first
        while self._peek().is_keyword("UNION"):
            self._next()
            if not self._peek().is_punct("{"):
                raise self._error("expected '{' after UNION")
            right = self._parse_group_graph_pattern()
            pattern = ast.UnionPattern(pattern, right)
        return pattern

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
            if token.type == TokenType.NIL:
                self._next()
            else:
                self._next()
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
        term = self._parse_graph_term(allow_var=False, allow_bnode=False)
        return term

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
        if token.is_punct("[") or token.type == TokenType.ANON:
            subject = self._parse_blank_node_property_list(patterns, allow_paths)
            # Property list may be the whole statement ([...] .) or have
            # a following predicate-object list.
            if self._starts_verb(self._peek()):
                self._parse_property_list(subject, patterns, allow_paths)
            return
        if token.is_punct("(") or token.type == TokenType.NIL:
            subject = self._parse_collection(patterns, allow_paths)
            self._parse_property_list(subject, patterns, allow_paths)
            return
        subject = self._parse_graph_term(allow_var=True, allow_bnode=True)
        self._parse_property_list(subject, patterns, allow_paths)

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
        if token.type == TokenType.KEYWORD and token.value == "a":
            self._next()
            return RDF_TYPE
        return self._parse_iri()

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
        self._expect_punct("[")
        node = self._fresh_bnode()
        self._parse_property_list(node, patterns, allow_paths)
        self._expect_punct("]")
        return node

    def _parse_collection(
        self, patterns: List[ast.Pattern], allow_paths: bool
    ) -> Term:
        token = self._peek()
        if token.type == TokenType.NIL:
            self._next()
            return RDF_NIL
        self._expect_punct("(")
        items: List[Term] = []
        while not self._peek().is_punct(")"):
            if self._peek().type == TokenType.EOF:
                raise self._error("unterminated collection")
            items.append(self._parse_object(patterns, allow_paths))
        self._next()
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
        return self._parse_path_alternative()

    def _parse_path_alternative(self) -> ast.Path:
        options = [self._parse_path_sequence()]
        while self._accept_punct("|"):
            options.append(self._parse_path_sequence())
        if len(options) == 1:
            return options[0]
        return ast.PathAlternative(tuple(options))

    def _parse_path_sequence(self) -> ast.Path:
        steps = [self._parse_path_elt_or_inverse()]
        while self._accept_punct("/"):
            steps.append(self._parse_path_elt_or_inverse())
        if len(steps) == 1:
            return steps[0]
        return ast.PathSequence(tuple(steps))

    def _parse_path_elt_or_inverse(self) -> ast.Path:
        if self._accept_punct("^"):
            return ast.PathInverse(self._parse_path_elt())
        return self._parse_path_elt()

    def _parse_path_elt(self) -> ast.Path:
        primary = self._parse_path_primary()
        token = self._peek()
        if token.is_punct("*", "+", "?"):
            self._next()
            return ast.PathMod(primary, token.value)
        return primary

    def _parse_path_primary(self) -> ast.Path:
        token = self._peek()
        if token.is_punct("!"):
            self._next()
            return self._parse_negated_property_set()
        if token.is_punct("("):
            self._next()
            path = self._parse_path()
            self._expect_punct(")")
            return path
        if token.type == TokenType.KEYWORD and token.value == "a":
            self._next()
            return ast.PathIRI(RDF_TYPE)
        return ast.PathIRI(self._parse_iri())

    def _parse_negated_property_set(self) -> ast.PathNegated:
        forward: List[IRI] = []
        inverse: List[IRI] = []

        def one() -> None:
            """Parse one path-length bound digit sequence."""
            if self._accept_punct("^"):
                inverse.append(self._parse_path_atom_iri())
            else:
                forward.append(self._parse_path_atom_iri())

        if self._accept_punct("("):
            if not self._peek().is_punct(")"):
                one()
                while self._accept_punct("|"):
                    one()
            self._expect_punct(")")
        else:
            one()
        return ast.PathNegated(tuple(forward), tuple(inverse))

    def _parse_path_atom_iri(self) -> IRI:
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
        if token.is_punct("("):
            return self._parse_bracketted_expression()
        if token.is_keyword("EXISTS", "NOT"):
            return self._parse_exists()
        if token.type == TokenType.KEYWORD and token.value.upper() in BUILTIN_NAMES:
            return self._parse_builtin_call()
        if token.type in (TokenType.IRIREF, TokenType.PNAME):
            return self._parse_iri_function_or_term()
        raise self._error(f"expected filter constraint, found {token.value!r}")

    def _parse_bracketted_expression(self) -> ast.Expression:
        self._expect_punct("(")
        expression = self._parse_expression()
        self._expect_punct(")")
        return expression

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or_expression()

    def _parse_or_expression(self) -> ast.Expression:
        operands = [self._parse_and_expression()]
        while self._accept_punct("||"):
            operands.append(self._parse_and_expression())
        if len(operands) == 1:
            return operands[0]
        return ast.OrExpression(tuple(operands))

    def _parse_and_expression(self) -> ast.Expression:
        operands = [self._parse_relational_expression()]
        while self._accept_punct("&&"):
            operands.append(self._parse_relational_expression())
        if len(operands) == 1:
            return operands[0]
        return ast.AndExpression(tuple(operands))

    def _parse_relational_expression(self) -> ast.Expression:
        left = self._parse_additive_expression()
        token = self._peek()
        if token.is_punct("=", "!=", "<", ">", "<=", ">="):
            self._next()
            right = self._parse_additive_expression()
            return ast.Comparison(token.value, left, right)
        if token.is_keyword("IN"):
            self._next()
            return ast.InExpression(left, self._parse_expression_list(), negated=False)
        if token.is_keyword("NOT"):
            self._next()
            self._expect_keyword("IN")
            return ast.InExpression(left, self._parse_expression_list(), negated=True)
        return left

    def _parse_expression_list(self) -> Tuple[ast.Expression, ...]:
        if self._peek().type == TokenType.NIL:
            self._next()
            return ()
        self._expect_punct("(")
        expressions = [self._parse_expression()]
        while self._accept_punct(","):
            expressions.append(self._parse_expression())
        self._expect_punct(")")
        return tuple(expressions)

    def _parse_additive_expression(self) -> ast.Expression:
        left = self._parse_multiplicative_expression()
        while True:
            token = self._peek()
            if token.is_punct("+", "-"):
                self._next()
                right = self._parse_multiplicative_expression()
                left = ast.Arithmetic(token.value, left, right)
            else:
                return left

    def _parse_multiplicative_expression(self) -> ast.Expression:
        left = self._parse_unary_expression()
        while True:
            token = self._peek()
            if token.is_punct("*", "/"):
                self._next()
                right = self._parse_unary_expression()
                left = ast.Arithmetic(token.value, left, right)
            else:
                return left

    def _parse_unary_expression(self) -> ast.Expression:
        token = self._peek()
        if token.is_punct("!"):
            self._next()
            return ast.NotExpression(self._parse_unary_expression())
        if token.is_punct("-"):
            self._next()
            return ast.UnaryMinus(self._parse_unary_expression())
        if token.is_punct("+"):
            self._next()
            return self._parse_unary_expression()
        return self._parse_primary_expression()

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
        negated = False
        if self._accept_keyword("NOT"):
            negated = True
        self._expect_keyword("EXISTS")
        pattern = self._parse_group_graph_pattern()
        return ast.ExistsExpression(pattern, negated=negated)

    def _parse_builtin_call(self) -> ast.BuiltinCall:
        name_token = self._next()
        name = name_token.value.upper()
        token = self._peek()
        if token.type == TokenType.NIL:
            self._next()
            return ast.BuiltinCall(name, ())
        self._expect_punct("(")
        args: List[ast.Expression] = []
        if not self._peek().is_punct(")"):
            args.append(self._parse_expression())
            while self._accept_punct(","):
                args.append(self._parse_expression())
        self._expect_punct(")")
        return ast.BuiltinCall(name, tuple(args))

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
            if token.type == TokenType.NIL:
                self._next()
                return ast.FunctionCall(iri, ())
            self._next()
            distinct = self._accept_keyword("DISTINCT")
            args: List[ast.Expression] = []
            if not self._peek().is_punct(")"):
                args.append(self._parse_expression())
                while self._accept_punct(","):
                    args.append(self._parse_expression())
            self._expect_punct(")")
            return ast.FunctionCall(iri, tuple(args), distinct=distinct)
        return ast.TermExpression(iri)

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
                    self._next()
                    expression = self._parse_expression()
                    if self._accept_keyword("AS"):
                        var_token = self._peek()
                        if var_token.type != TokenType.VAR:
                            raise self._error("expected variable after AS")
                        self._next()
                        self._expect_punct(")")
                        group_by.append(
                            ast.ProjectionExpression(
                                expression, Variable(var_token.value)
                            )
                        )
                    else:
                        self._expect_punct(")")
                        group_by.append(expression)
                elif token.type == TokenType.KEYWORD and token.value.upper() in BUILTIN_NAMES:
                    group_by.append(self._parse_builtin_call())
                elif token.type in (TokenType.IRIREF, TokenType.PNAME):
                    group_by.append(self._parse_iri_function_or_term())
                else:
                    break
            if not group_by:
                raise self._error("GROUP BY requires at least one condition")

        if self._accept_keyword("HAVING"):
            having.append(self._parse_constraint())
            while self._peek().is_punct("(") or (
                self._peek().type == TokenType.KEYWORD
                and self._peek().value.upper() in BUILTIN_NAMES
            ):
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
                elif (
                    token.type == TokenType.KEYWORD
                    and token.value.upper() in BUILTIN_NAMES
                ):
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
