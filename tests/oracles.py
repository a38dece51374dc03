"""Reference implementations the tests and benchmarks compare against.

These are the slow, obviously-correct versions of code the library
ships in a faster form.  They live here, not in ``src/``, because the
program never runs them:

* :func:`tokenize_reference` — the character-by-character ``_Cursor``
  lexer that :func:`repro.sparql.tokenize` replaced; the differential
  tests require identical tokens, or the same error at the same
  position, on every input.
* :func:`_levenshtein_full`, :func:`_levenshtein_banded` and
  :func:`_similar_reference` — the DP engines and the pre-prefilter
  kernel behind the streak similarity test
  (:mod:`repro.analysis.streaks`).
* :func:`streaks_reference` and :func:`streak_histogram_reference` —
  the plain serial streak scan (§8) that
  :class:`repro.analysis.streaks.StreakAccumulator`, fed serially or
  stitched from chunks, must match.
* :func:`checkpoint_text_reference` — the watch checkpoint encoded as
  one whole document, which :class:`repro.analysis.incremental.WatchSession`
  now assembles from memoized per-dataset fragments; the tests require
  the same bytes after every cycle.
* :class:`ParserReference` — the parser with its thirteen grammar-level
  methods for expressions and property paths (one recursive call per
  precedence level) that the precedence loops of
  :class:`repro.sparql.parser.Parser` replaced; below the nesting limit
  both must return equal ASTs, or both raise
  :class:`SparqlSyntaxError`, on every input.
* :func:`features_reference`, :func:`operators_reference`,
  :func:`fragments_reference`, :func:`predicate_variable_reference`,
  :func:`canonical_graph_reference`, :func:`canonical_hypergraph_reference`
  and :func:`path_patterns_reference` — the query classifiers as they
  were before the passes read one
  :class:`repro.analysis.facts.QueryFacts` record: each walks the query
  on its own.  The record must give the same answers on every query.

Both ``tests/`` and ``benchmarks/`` import this module.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional

from repro.analysis.canonical import Hypergraph
from repro.analysis.features import QueryFeatures
from repro.analysis.fragments import FragmentProfile
from repro.analysis.graphutil import Multigraph
from repro.analysis.incremental import CHECKPOINT_KIND, CHECKPOINT_SCHEMA_VERSION
from repro.analysis.operators import Operator, OperatorClassification
from repro.analysis.snapshot import study_to_dict
from repro.analysis.streaks import (
    BUCKET_LABELS,
    DEFAULT_STREAK_THRESHOLD,
    DEFAULT_STREAK_WINDOW,
    PreparedText,
    bucket_label,
    prepared_similar,
)
from repro.analysis.welldesigned import (
    build_pattern_tree,
    interface_width,
    is_well_designed,
    to_binary_algebra,
)
from repro.exceptions import SparqlSyntaxError
from repro.rdf.terms import BlankNode, Variable
from repro.sparql import ast, walk
from repro.sparql.parser import RDF_TYPE, Parser
from repro.sparql.tokenizer import Token, TokenType

__all__ = [
    "_levenshtein_banded",
    "_levenshtein_full",
    "ParserReference",
    "_similar_reference",
    "canonical_graph_reference",
    "canonical_hypergraph_reference",
    "checkpoint_text_reference",
    "features_reference",
    "fragments_reference",
    "operators_reference",
    "path_patterns_reference",
    "predicate_variable_reference",
    "simple_filter_reference",
    "streak_histogram_reference",
    "streaks_reference",
    "tokenize_reference",
]


# PN_CHARS_BASE from the SPARQL grammar, approximated with broad unicode
# ranges (the logs' queries use ASCII plus occasional accented names).
_PN_BASE = "A-Za-zÀ-ÖØ-öø-˿Ͱ-ͽͿ-῿" \
    "‌-‍⁰-↏Ⰰ-⿯、-퟿豈-﷏ﷰ-�"
_PN_U = _PN_BASE + "_"
_PN_CHARS = _PN_U + r"0-9·̀-ͯ‿-⁀-"

_IRIREF_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_VAR_RE = re.compile(rf"[?$]([{_PN_U}0-9][{_PN_U}0-9·̀-ͯ‿-⁀]*)")
# Local part allows dots internally, percent-escapes and backslash escapes (PN_LOCAL).
_PLX = r"(?:%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%])"
_PNAME_RE = re.compile(
    rf"(?:[{_PN_BASE}][{_PN_CHARS}.]*[{_PN_CHARS}]|[{_PN_BASE}])?:"
    rf"(?:(?:[{_PN_U}0-9:]|{_PLX})(?:(?:[{_PN_CHARS}.:]|{_PLX})*(?:[{_PN_CHARS}:]|{_PLX}))?)?"
)
_BLANK_RE = re.compile(rf"_:[{_PN_U}0-9](?:[{_PN_CHARS}.]*[{_PN_CHARS}])?")
_LANGTAG_RE = re.compile(r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*")
_NUMBER_RE = re.compile(r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?")
_DIGITS = frozenset("0123456789")
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")
_KEYWORD_RE = re.compile(rf"[{_PN_BASE}_][{_PN_U}0-9]*")

# Multi-character punctuation, longest first.
_MULTI_PUNCT = ("^^", "||", "&&", "!=", "<=", ">=")

_STRING_OPENERS = ('"""', "'''", '"', "'")

_ECHAR = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


class _Cursor:
    """Tracks position in the source text with line/column accounting."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def eof(self) -> bool:
        """Whether the cursor is at end of input."""
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        """The token *offset* ahead of the cursor (EOF-safe)."""
        index = self.pos + offset
        if index < len(self.text):
            return self.text[index]
        return ""

    def startswith(self, prefix: str) -> bool:
        """Whether the upcoming characters start with *prefix*."""
        return self.text.startswith(prefix, self.pos)

    def advance(self, count: int) -> str:
        """Consume and return the next *count* characters."""
        chunk = self.text[self.pos : self.pos + count]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return chunk


def _scan_string(cursor: _Cursor) -> str:
    """Scan a string literal at the cursor; return its *decoded* value."""
    opener = next(o for o in _STRING_OPENERS if cursor.startswith(o))
    start_line, start_col = cursor.line, cursor.column
    cursor.advance(len(opener))
    long_form = len(opener) == 3
    out: List[str] = []
    while True:
        if cursor.eof():
            raise SparqlSyntaxError("unterminated string literal", start_line, start_col)
        if cursor.startswith(opener):
            cursor.advance(len(opener))
            return "".join(out)
        ch = cursor.peek()
        if ch == "\\":
            escape = cursor.peek(1)
            if escape in _ECHAR:
                out.append(_ECHAR[escape])
                cursor.advance(2)
            elif escape in ("u", "U"):
                width = 4 if escape == "u" else 8
                code = cursor.text[cursor.pos + 2 : cursor.pos + 2 + width]
                try:
                    if len(code) != width or not _HEX_RE.fullmatch(code):
                        raise ValueError(code)
                    out.append(chr(int(code, 16)))
                except ValueError:
                    raise SparqlSyntaxError(
                        f"bad \\{escape} escape: {code!r}", cursor.line, cursor.column
                    ) from None
                cursor.advance(2 + width)
            else:
                raise SparqlSyntaxError(
                    f"unknown string escape: \\{escape}", cursor.line, cursor.column
                )
        elif not long_form and ch in "\n\r":
            raise SparqlSyntaxError(
                "newline in short string literal", cursor.line, cursor.column
            )
        else:
            out.append(ch)
            cursor.advance(1)


def tokenize_reference(text: str) -> List[Token]:
    """Tokenize *text*; always ends with an EOF token.

    Raises :class:`SparqlSyntaxError` on characters that cannot start
    any SPARQL token.
    """
    cursor = _Cursor(text)
    tokens: List[Token] = []
    while not cursor.eof():
        ch = cursor.peek()
        if ch in " \t\r\n":
            cursor.advance(1)
            continue
        if ch == "#":
            while not cursor.eof() and cursor.peek() != "\n":
                cursor.advance(1)
            continue
        line, column = cursor.line, cursor.column

        # Strings must be checked before punctuation (quote chars).
        if any(cursor.startswith(o) for o in _STRING_OPENERS):
            value = _scan_string(cursor)
            tokens.append(Token(TokenType.STRING, value, line, column))
            continue

        if ch == "<":
            match = _IRIREF_RE.match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.IRIREF, match.group(1), line, column))
                continue
            # Not an IRI: fall through to '<' / '<=' operator.

        if ch in "?$":
            match = _VAR_RE.match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.VAR, match.group(1), line, column))
                continue
            # A bare '?' is the property-path "zero or one" operator.

        if ch == "_" and cursor.peek(1) == ":":
            match = _BLANK_RE.match(cursor.text, cursor.pos)
            if match:
                value = match.group(0)[2:]
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.BLANK_NODE, value, line, column))
                continue

        if ch == "@":
            match = _LANGTAG_RE.match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.LANGTAG, match.group(0)[1:], line, column))
                continue
            raise SparqlSyntaxError("bad language tag", line, column)

        if ch in _DIGITS or (ch == "." and cursor.peek(1) in _DIGITS):
            match = _NUMBER_RE.match(cursor.text, cursor.pos)
            assert match is not None
            value = match.group(0)
            cursor.advance(len(value))
            if "e" in value.lower():
                token_type = TokenType.DOUBLE
            elif "." in value:
                token_type = TokenType.DECIMAL
            else:
                token_type = TokenType.INTEGER
            tokens.append(Token(token_type, value, line, column))
            continue

        # ANON [] and NIL () — significant whitespace inside is allowed.
        if ch == "[":
            match = re.compile(r"\[[ \t\r\n]*\]").match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.ANON, "[]", line, column))
                continue
        if ch == "(":
            match = re.compile(r"\([ \t\r\n]*\)").match(cursor.text, cursor.pos)
            if match:
                cursor.advance(match.end() - cursor.pos)
                tokens.append(Token(TokenType.NIL, "()", line, column))
                continue

        # Prefixed names (must come before keyword so "rdf:type" lexes
        # as one PNAME, and before ':' punctuation).
        match = _PNAME_RE.match(cursor.text, cursor.pos)
        if match and match.group(0):
            value = match.group(0)
            cursor.advance(len(value))
            tokens.append(Token(TokenType.PNAME, value, line, column))
            continue

        keyword_match = _KEYWORD_RE.match(cursor.text, cursor.pos)
        if keyword_match:
            value = keyword_match.group(0)
            cursor.advance(len(value))
            tokens.append(Token(TokenType.KEYWORD, value, line, column))
            continue

        for punct in _MULTI_PUNCT:
            if cursor.startswith(punct):
                cursor.advance(len(punct))
                tokens.append(Token(TokenType.PUNCT, punct, line, column))
                break
        else:
            if ch in "{}()[];,.*/|^?+!<>=-&":
                cursor.advance(1)
                tokens.append(Token(TokenType.PUNCT, ch, line, column))
            else:
                raise SparqlSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token(TokenType.EOF, "", cursor.line, cursor.column))
    return tokens


def _levenshtein_full(a: str, b: str) -> int:
    """Edit distance by the textbook O(len(a)·len(b)) DP."""
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(
                    previous[j] + 1,       # deletion
                    current[j - 1] + 1,    # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def _levenshtein_banded(a: str, b: str, k: int) -> Optional[int]:
    """Banded Levenshtein; assumes len(a) ≤ len(b) and len(b)-len(a) ≤ k.

    The band is stored in offset-indexed lists (index d represents
    column j = i + d - k of row i), which is several times faster than
    dict-keyed rows — the difference that makes day-log streak scans
    affordable (see the Levenshtein ablation bench).
    """
    len_a, len_b = len(a), len(b)
    if k == 0:
        return 0 if a == b else None
    infinity = k + 1
    width = 2 * k + 1
    previous = [infinity] * width
    for j in range(0, min(len_b, k) + 1):
        previous[j + k] = j
    for i in range(1, len_a + 1):
        current = [infinity] * width
        window_low = max(0, i - k)
        window_high = min(len_b, i + k)
        best_in_row = infinity
        char_a = a[i - 1]
        for j in range(window_low, window_high + 1):
            d = j - i + k
            if j == 0:
                value = i
            else:
                diagonal = previous[d]
                if char_a == b[j - 1]:
                    value = diagonal
                else:
                    up = previous[d + 1] if d + 1 < width else infinity
                    left = current[d - 1] if d >= 1 else infinity
                    value = (
                        diagonal if diagonal <= up and diagonal <= left
                        else (up if up <= left else left)
                    ) + 1
            current[d] = value
            if value < best_in_row:
                best_in_row = value
        if best_in_row > k:
            return None
        previous = current
    d_end = len_b - len_a + k
    distance = previous[d_end] if 0 <= d_end < width else infinity
    return distance if distance <= k else None


def _similar_reference(
    stripped_a: str, stripped_b: str, threshold: float = DEFAULT_STREAK_THRESHOLD
) -> bool:
    """The pre-prefilter similarity kernel.

    ``tests/test_streak_prefilters.py`` property-tests
    :func:`repro.analysis.streaks.prepared_similar` against this on
    arbitrary pairs: the filter chain must never flip a decision.
    """
    if stripped_a == stripped_b:
        return True
    longest = max(len(stripped_a), len(stripped_b))
    if longest == 0:
        return True
    budget = int(longest * threshold)
    a, b = stripped_a, stripped_b
    if len(a) > len(b):
        a, b = b, a
    if len(b) - len(a) > budget:
        return False
    return _levenshtein_banded(a, b, budget) is not None


def streaks_reference(
    queries: Iterable[str],
    window: int = DEFAULT_STREAK_WINDOW,
    threshold: float = DEFAULT_STREAK_THRESHOLD,
) -> List[List[int]]:
    """Every streak of the ordered *queries*, as its members' positions,
    in founding order.

    The definition read off §8 as one serial scan: a streak whose last
    member is more than *window* positions back is retired; each query
    extends every in-window streak whose tail it is similar to, and
    founds a new streak if it extended none.
    """
    if window < 1:
        raise ValueError("window must be positive")
    streaks: List[List[int]] = []
    tails: List[PreparedText] = []
    active: List[int] = []  # indices into ``streaks`` still in the window
    for position, text in enumerate(queries):
        prepared = PreparedText.from_raw(text)
        active = [i for i in active if position - streaks[i][-1] <= window]
        extended = False
        for i in active:
            if prepared_similar(tails[i], prepared, threshold):
                streaks[i].append(position)
                tails[i] = prepared
                extended = True
        if not extended:
            active.append(len(streaks))
            streaks.append([position])
            tails.append(prepared)
    return streaks


def streak_histogram_reference(
    queries: Iterable[str],
    window: int = DEFAULT_STREAK_WINDOW,
    threshold: float = DEFAULT_STREAK_THRESHOLD,
) -> Dict[str, int]:
    """Table 6's rows for :func:`streaks_reference`, every bucket present."""
    histogram = {label: 0 for label in BUCKET_LABELS}
    for members in streaks_reference(queries, window, threshold):
        histogram[bucket_label(len(members))] += 1
    return histogram


def streak_state_reference(
    queries: Iterable[str],
    window: int = DEFAULT_STREAK_WINDOW,
    threshold: float = DEFAULT_STREAK_THRESHOLD,
) -> Dict[str, object]:
    """``StreakAccumulator.to_dict()`` of a scan of *queries*, read off
    :func:`streaks_reference`: the first *window* stripped texts are the
    head; a streak keeps its record while its tail is within *window* of
    the stream end or it was founded in the head, and every other streak
    is one count of its length."""
    stripped = [PreparedText.from_raw(text).text for text in queries]
    chains, closed = [], {}
    for members in streaks_reference(queries, window, threshold):
        if len(stripped) - members[-1] <= window or members[0] < window:
            chains.append({
                "start": members[0],
                "length": len(members),
                "end": members[-1],
                "head_positions": [p for p in members if p < window],
                "tail": stripped[members[-1]],
            })
        else:
            closed[len(members)] = closed.get(len(members), 0) + 1
    return {
        "window": window,
        "threshold": threshold,
        "length": len(stripped),
        "head": stripped[:window],
        "chains": chains,
        "closed": [[length, count] for length, count in sorted(closed.items())],
    }


def checkpoint_text_reference(session) -> str:
    """What ``checkpoint.json`` must hold for *session*'s current state:
    the whole document built and encoded in one ``json.dumps`` call."""
    document = {
        "kind": CHECKPOINT_KIND,
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "generation": session.generation,
        "inputs": list(session.inputs),
        "config": session._config_dict(),
        "cursors": [cursor.to_dict() for cursor in session._cursors.values()],
        "seen": {
            name: sorted(digests) for name, digests in session._seen.items()
        },
        "studies": {
            name: study_to_dict(session._studies[name])
            for name, _ in session._datasets
        },
    }
    return json.dumps(document, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Walker-based query classifiers: each predicate walks the query itself,
# as the passes did before they read one QueryFacts record.
# ---------------------------------------------------------------------------

_AGGREGATE_KEYWORDS_REFERENCE = {
    "COUNT": "Count",
    "MAX": "Max",
    "MIN": "Min",
    "AVG": "Avg",
    "SUM": "Sum",
}


def path_patterns_reference(pattern):
    """Every property-path pattern in the tree, subqueries included, in
    syntactic order."""
    return [
        node for node in walk.iter_patterns(pattern)
        if isinstance(node, ast.PathPattern)
    ]


def _triples_reference(pattern):
    return [
        node for node in walk.iter_patterns(pattern, enter_subqueries=False)
        if isinstance(node, ast.TriplePattern)
    ]


def features_reference(query):
    """:class:`QueryFeatures` of *query*, from its own walks."""
    keywords = set()
    keywords.add(query.query_type.value.title())

    triple_count = 0
    path_count = 0
    uses_subquery = False

    _modifier_keywords_reference(query.modifier, keywords)
    _projection_keywords_reference(query.projection, keywords)

    for node in walk.iter_patterns(query.pattern):
        if isinstance(node, ast.TriplePattern):
            triple_count += 1
        elif isinstance(node, ast.PathPattern):
            triple_count += 1
            path_count += 1
        elif isinstance(node, ast.GroupPattern):
            if _joins_reference(node):
                keywords.add("And")
        elif isinstance(node, ast.UnionPattern):
            keywords.add("Union")
        elif isinstance(node, ast.OptionalPattern):
            keywords.add("Opt")
        elif isinstance(node, ast.GraphGraphPattern):
            keywords.add("Graph")
        elif isinstance(node, ast.MinusPattern):
            keywords.add("Minus")
        elif isinstance(node, ast.ServicePattern):
            keywords.add("Service")
        elif isinstance(node, ast.BindPattern):
            keywords.add("Bind")
            _expression_keywords_reference(node.expression, keywords)
        elif isinstance(node, ast.ValuesPattern):
            keywords.add("Values")
        elif isinstance(node, ast.FilterPattern):
            keywords.add("Filter")
            _expression_keywords_reference(node.expression, keywords)
        elif isinstance(node, ast.SubSelectPattern):
            uses_subquery = True
            subquery = node.query
            keywords.add(subquery.query_type.value.title())
            _modifier_keywords_reference(subquery.modifier, keywords)
            _projection_keywords_reference(subquery.projection, keywords)

    return QueryFeatures(
        query_type=query.query_type,
        keywords=frozenset(keywords),
        triple_count=triple_count,
        path_pattern_count=path_count,
        has_body=query.has_body(),
        uses_subquery=uses_subquery,
        uses_projection=_projection_reference(query),
    )


def _joins_reference(group):
    joinable = 0
    for element in group.elements:
        if not isinstance(element, ast.FilterPattern):
            joinable += 1
            if joinable >= 2:
                return True
    return False


def _modifier_keywords_reference(modifier, keywords):
    if modifier.limit is not None:
        keywords.add("Limit")
    if modifier.offset is not None:
        keywords.add("Offset")
    if modifier.order_by:
        keywords.add("Order By")
        for condition in modifier.order_by:
            _expression_keywords_reference(condition.expression, keywords)
    if modifier.group_by:
        keywords.add("Group By")
    if modifier.having:
        keywords.add("Having")
        for expression in modifier.having:
            _expression_keywords_reference(expression, keywords)


def _projection_keywords_reference(projection, keywords):
    if projection is None:
        return
    if projection.distinct:
        keywords.add("Distinct")
    if projection.reduced:
        keywords.add("Reduced")
    for item in projection.items:
        if isinstance(item, ast.ProjectionExpression):
            _expression_keywords_reference(item.expression, keywords)


def _expression_keywords_reference(expression, keywords):
    for node in walk.iter_expressions(expression):
        if isinstance(node, ast.Aggregate):
            keyword = _AGGREGATE_KEYWORDS_REFERENCE.get(node.name)
            if keyword is not None:
                keywords.add(keyword)
            elif node.name == "SAMPLE":
                keywords.add("Sample")
            elif node.name == "GROUP_CONCAT":
                keywords.add("Group Concat")
        elif isinstance(node, ast.ExistsExpression):
            keywords.add("Not Exists" if node.negated else "Exists")


def _projection_reference(query):
    """§4.4 projection use: True, False, or None when only Bind
    variables are missing from the selection."""
    if query.query_type is ast.QueryType.ASK:
        return bool(walk.pattern_variables(query.pattern))
    if query.query_type is not ast.QueryType.SELECT:
        return False
    projection = query.projection
    assert projection is not None
    if projection.select_all:
        return False
    body_vars = walk.pattern_variables(query.pattern)
    selected = set(projection.variables())
    if selected >= body_vars:
        return False
    bind_vars = {
        node.variable
        for node in walk.iter_patterns(query.pattern)
        if isinstance(node, ast.BindPattern)
    }
    if body_vars - selected <= bind_vars:
        return None
    return True


def operators_reference(query):
    """Table 3 :class:`OperatorClassification` of *query*'s body."""
    operators = set()
    pure = True
    for node in walk.iter_patterns(query.pattern, enter_subqueries=False):
        if isinstance(node, ast.TriplePattern):
            continue
        if isinstance(node, ast.GroupPattern):
            if _joins_reference(node):
                operators.add(Operator.AND)
        elif isinstance(node, ast.FilterPattern):
            operators.add(Operator.FILTER)
            if any(
                isinstance(sub, (ast.ExistsExpression, ast.Aggregate))
                for sub in walk.iter_expressions(node.expression)
            ):
                pure = False
        elif isinstance(node, ast.OptionalPattern):
            operators.add(Operator.OPT)
        elif isinstance(node, ast.GraphGraphPattern):
            operators.add(Operator.GRAPH)
        elif isinstance(node, ast.UnionPattern):
            operators.add(Operator.UNION)
        else:
            pure = False
    return OperatorClassification(frozenset(operators), pure)


def _contains_exists_reference(expression):
    return any(
        isinstance(node, ast.ExistsExpression)
        for node in walk.iter_expressions(expression)
    )


def simple_filter_reference(expression):
    """§5.2: vars(R) has at most one variable (and no EXISTS), or R is
    ``?x = ?y``."""
    variables = walk.expression_variables(expression)
    if len(variables) <= 1:
        return not _contains_exists_reference(expression)
    return _equality_reference(expression) is not None


def _equality_reference(expression):
    if (
        isinstance(expression, ast.Comparison)
        and expression.op == "="
        and isinstance(expression.left, ast.TermExpression)
        and isinstance(expression.left.term, Variable)
        and isinstance(expression.right, ast.TermExpression)
        and isinstance(expression.right.term, Variable)
    ):
        return expression.left.term, expression.right.term
    return None


def _body_uses_only_reference(pattern, allowed):
    if pattern is None:
        return False
    for node in walk.iter_patterns(pattern, enter_subqueries=False):
        if isinstance(node, (ast.GroupPattern, ast.TriplePattern)):
            continue
        if isinstance(node, allowed):
            if isinstance(node, ast.FilterPattern) and _contains_exists_reference(
                node.expression
            ):
                return False
            continue
        return False
    return True


def fragments_reference(query):
    """§5.2 :class:`FragmentProfile` of *query*, from its own walks."""
    pattern = query.pattern
    if query.query_type not in (ast.QueryType.SELECT, ast.QueryType.ASK):
        pattern = None
    if not _body_uses_only_reference(
        pattern, (ast.FilterPattern, ast.OptionalPattern)
    ):
        return FragmentProfile(
            is_aof=False, is_cq=False, is_cpf=False, is_cqf=False,
            is_well_designed=False, has_simple_filters=False,
            interface_width=None, is_cqof=False,
        )
    cq = _body_uses_only_reference(pattern, ())
    cpf = _body_uses_only_reference(pattern, (ast.FilterPattern,))
    simple = all(
        simple_filter_reference(node.expression)
        for node in walk.iter_patterns(pattern, enter_subqueries=False)
        if isinstance(node, ast.FilterPattern)
    )
    algebra = to_binary_algebra(pattern)
    well_designed = is_well_designed(algebra)
    width = None
    cqof = False
    if well_designed:
        width = interface_width(build_pattern_tree(algebra))
        cqof = simple and width <= 1
    return FragmentProfile(
        is_aof=True,
        is_cq=cq,
        is_cpf=cpf,
        is_cqf=cpf and simple,
        is_well_designed=well_designed,
        has_simple_filters=simple,
        interface_width=width,
        is_cqof=cqof,
    )


def predicate_variable_reference(pattern):
    """Does any triple pattern of the body use a variable predicate?"""
    return any(
        isinstance(triple.predicate, Variable)
        for triple in _triples_reference(pattern)
    )


def canonical_graph_reference(
    pattern, include_constants=True, collapse_equalities=True
):
    """The canonical graph of *pattern* (§5, footnote 20), from its own
    walks."""
    parent = {}

    def find(term):
        root = term
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(term, term) != term:
            parent[term], term = root, parent[term]
        return root

    if collapse_equalities:
        for node in walk.iter_patterns(pattern, enter_subqueries=False):
            if isinstance(node, ast.FilterPattern):
                pair = _equality_reference(node.expression)
                if pair is not None:
                    root_a, root_b = find(pair[0]), find(pair[1])
                    if root_a != root_b:
                        parent[root_a] = root_b
    representatives = {term: find(term) for term in parent}

    graph = Multigraph()
    for triple in _triples_reference(pattern):
        if isinstance(triple.predicate, Variable):
            raise ValueError(
                "canonical graph undefined for predicate-variable triples"
            )
        subject = representatives.get(triple.subject, triple.subject)
        obj = representatives.get(triple.object, triple.object)
        if include_constants:
            graph.add_edge(subject, obj)
            continue
        subject_is_node = isinstance(subject, (Variable, BlankNode))
        object_is_node = isinstance(obj, (Variable, BlankNode))
        if subject_is_node and object_is_node:
            graph.add_edge(subject, obj)
        elif subject_is_node:
            graph.add_node(subject)
        elif object_is_node:
            graph.add_node(obj)
    return graph


def canonical_hypergraph_reference(pattern):
    """The canonical hypergraph of *pattern* (§5), from its own walk."""
    hypergraph = Hypergraph()
    for triple in _triples_reference(pattern):
        hypergraph.add_edge(frozenset(
            term for term in triple.terms()
            if isinstance(term, (Variable, BlankNode))
        ))
    return hypergraph


# ---------------------------------------------------------------------------
# The recursive-descent expression and path grammar
# ---------------------------------------------------------------------------


class ParserReference(Parser):
    """:class:`Parser` with one method per precedence level of the
    expression and path grammars, as it was before the two precedence
    loops; the rest of the parser is shared."""

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
            return ast.InExpression(left, self._parse_arguments()[1], negated=False)
        if token.is_keyword("NOT"):
            self._next()
            self._expect_keyword("IN")
            return ast.InExpression(left, self._parse_arguments()[1], negated=True)
        return left

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
