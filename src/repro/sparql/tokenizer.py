"""SPARQL 1.1 lexer.

Turns a query string into a stream of :class:`Token` objects.  The lexer
covers the full terminal vocabulary the parser needs: IRI references,
prefixed names, blank-node labels, variables (``?x``/``$x``), string
literals in all four quote forms, numeric literals, language tags,
keywords/identifiers, property-path and expression punctuation, and
comments.  Positions (1-based line/column) are tracked for error
messages, which the log pipeline surfaces when counting invalid queries.

One compiled pattern does the scanning: each match skips whitespace and
comments, then takes exactly one token.  Its alternatives are tried in
the order that resolves the grammar's ambiguities (a variable before the
``?`` operator, a prefixed name before a keyword, a number before
``.``), and each ends in an empty marker group, so ``match.lastindex``
names the token kind.  Positions come from newline offsets in the
consumed spans.  String literals without escapes are taken whole by the
pattern; only literals with escapes (or errors) go through the escape
decoder.

Paper mapping: first stage of the sec 2 validity check (Table 1).
"""

from __future__ import annotations

import re
import sys
from typing import List, NamedTuple, Tuple

from ..exceptions import SparqlSyntaxError

__all__ = ["Token", "TokenType", "tokenize"]


class TokenType:
    """Token categories (plain string constants; cheap to compare)."""

    IRIREF = "IRIREF"  # <http://...>
    PNAME = "PNAME"  # prefix:local or prefix: or :local
    BLANK_NODE = "BLANK_NODE"  # _:label
    VAR = "VAR"  # ?x or $x
    STRING = "STRING"  # "..." '...' """...""" '''...'''
    LANGTAG = "LANGTAG"  # @en, @en-US
    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL"
    DOUBLE = "DOUBLE"
    KEYWORD = "KEYWORD"  # SELECT, WHERE, FILTER, a, true, false, ...
    PUNCT = "PUNCT"  # { } ( ) [ ] , ; . ^^ || && etc.
    ANON = "ANON"  # []
    NIL = "NIL"  # ()
    EOF = "EOF"


class Token(NamedTuple):
    """One lexical token with its source position.

    An immutable record, as a frozen dataclass would be; a named tuple
    because the lexer makes one per token and a tuple is several times
    cheaper to build.
    """

    type: str
    value: str
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.type == TokenType.KEYWORD and self.value.upper() in words

    def is_punct(self, *symbols: str) -> bool:
        """Whether this token is one of the given punctuation symbols."""
        return self.type == TokenType.PUNCT and self.value in symbols

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r}, {self.line}:{self.column})"


# PN_CHARS_BASE from the SPARQL grammar as code point ranges,
# approximated with broad unicode ranges (the logs' queries use ASCII
# plus occasional accented names).
_PN_BASE = (
    (0x41, 0x5A), (0x61, 0x7A), (0xC0, 0xD6), (0xD8, 0xF6), (0xF8, 0x2FF),
    (0x370, 0x37D), (0x37F, 0x1FFF), (0x200C, 0x200D), (0x2070, 0x218F),
    (0x2C00, 0x2FEF), (0x3001, 0xD7FF), (0xF900, 0xFDCF), (0xFDF0, 0xFFFD),
)
_PN_U = _PN_BASE + ((0x5F, 0x5F),)  # _
_DIGIT = ((0x30, 0x39),)
_COLON = ((0x3A, 0x3A),)
_VARNAME = _PN_U + _DIGIT + ((0xB7, 0xB7), (0x300, 0x36F), (0x203F, 0x2040))
_PN_CHARS = _VARNAME + ((0x2D, 0x2D),)  # -


def _chars(ranges: Tuple[Tuple[int, int], ...]) -> str:
    """A regex character class matching exactly the code points in *ranges*.

    Spelled as the negation of its complement: compiling a class fills
    a 64K-entry map in a Python loop over every code point the class
    lists, once per occurrence in a pattern.  The name classes here
    list ~53K code points each, their complements ~11K, and the token
    pattern holds ten of them.
    """
    gaps, start = [], 0
    for low, high in sorted(ranges):
        if low > start:
            gaps.append((start, low - 1))
        start = max(start, high + 1)
    gaps.append((start, sys.maxunicode))
    return "[^" + "".join(rf"\U{low:08x}-\U{high:08x}" for low, high in gaps) + "]"


# PLX of PN_LOCAL: a percent-escape or a backslash escape.
_PLX = r"(?:%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%])"

# Whitespace and comments before a token.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"

# Kinds of match that are not one plain token (see tokenize()).
_ANON, _NIL, _LONG, _OPEN, _EOF, _BAD = "ANON", "NIL", "LONG", "OPEN", "EOF", "BAD"

# (pattern, kind) in match order.  A plain kind is (token type, leading
# characters, trailing characters): the token's value is the match
# without them.  Most patterns start with one literal or class, which
# lets the regex engine skip them on the first character.
# Names that may not end in a dot, ``[x.]*[x]`` in the grammar, are
# spelled ``(?:\.*[x])*``: the same strings, one class occurrence fewer.
_ALTERNATIVES = (
    (rf"[?$]{_chars(_PN_U + _DIGIT)}{_chars(_VARNAME)}*", (TokenType.VAR, 1, 0)),
    # PN_PREFIX? ':' PN_LOCAL?  The first character is a prefix
    # character or the colon itself; the lookbehind tells which.
    (
        rf"{_chars(_PN_BASE + _COLON)}(?:(?<=:)|(?:\.*{_chars(_PN_CHARS)})*:)"
        rf"(?:(?:{_chars(_PN_U + _DIGIT + _COLON)}|{_PLX})"
        rf"(?:\.*(?:{_chars(_PN_CHARS + _COLON)}|{_PLX}))*)?",
        (TokenType.PNAME, 0, 0),
    ),
    (r"<[^<>\"{}|^`\\\x00-\x20]*>", (TokenType.IRIREF, 1, 1)),
    (rf"_:{_chars(_PN_U + _DIGIT)}(?:\.*{_chars(_PN_CHARS)})*", (TokenType.BLANK_NODE, 2, 0)),
    (rf"{_chars(_PN_U)}{_chars(_PN_U + _DIGIT)}*", (TokenType.KEYWORD, 0, 0)),
    (r"[0-9]+(?:\.[0-9]*)?[eE][+-]?[0-9]+", (TokenType.DOUBLE, 0, 0)),
    (r"\.[0-9]+[eE][+-]?[0-9]+", (TokenType.DOUBLE, 0, 0)),
    (r"[0-9]+\.[0-9]*", (TokenType.DECIMAL, 0, 0)),
    (r"\.[0-9]+", (TokenType.DECIMAL, 0, 0)),
    (r"[0-9]+", (TokenType.INTEGER, 0, 0)),
    # ANON [] and NIL () — whitespace inside is allowed.
    (r"\[[ \t\r\n]*\]", _ANON),
    (r"\([ \t\r\n]*\)", _NIL),
    # A string literal free of escapes (and, in the short forms, of
    # line breaks) is one match; any other leaves its opener to
    # _scan_string.
    (r'"""[^\\]*?"""', _LONG),
    (r'"""', _OPEN),
    (r"'''[^\\]*?'''", _LONG),
    (r"'''", _OPEN),
    (r'"[^"\\\n\r]*"', (TokenType.STRING, 1, 1)),
    (r'"', _OPEN),
    (r"'[^'\\\n\r]*'", (TokenType.STRING, 1, 1)),
    (r"'", _OPEN),
    (r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*", (TokenType.LANGTAG, 1, 0)),
    # Multi-character punctuation first.
    (r"(?:\^\^|\|\||&&|!=|<=|>=|[{}()\[\];,.*/|^?+!<>=\-&])", (TokenType.PUNCT, 0, 0)),
    (r"\Z", _EOF),
    # Any other character is an error.  As some alternative always
    # matches where the skip ends, no match backtracks into the skip.
    (r"(?s:.)", _BAD),
)

# Group 1 is the skipped prefix; alternative i ends in group i + 2.
_TOKEN_RE = re.compile(
    f"({_SKIP})(?:" + "|".join(f"{pattern}()" for pattern, _ in _ALTERNATIVES) + ")"
)
_KINDS = (None, None) + tuple(kind for _, kind in _ALTERNATIVES)

# Where a string literal's body may stop: its closer, an escape or, in
# the short forms, a line break.
_STRING_STOPS = {
    '"""': re.compile(r'\\|"""'),
    "'''": re.compile(r"\\|'''"),
    '"': re.compile(r'[\\"\n\r]'),
    "'": re.compile(r"[\\'\n\r]"),
}
_UCHAR = {"u": re.compile(r"[0-9A-Fa-f]{4}"), "U": re.compile(r"[0-9A-Fa-f]{8}")}

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


def _position(text: str, index: int) -> Tuple[int, int]:
    """1-based (line, column) of *index* in *text*."""
    return text.count("\n", 0, index) + 1, index - text.rfind("\n", 0, index)


def _scan_string(
    text: str, start: int, opener: str, line: int, column: int
) -> Tuple[str, int]:
    """Decode the string literal whose body starts at *start*.

    Returns the value and the index just past the closer.  *line* and
    *column* are the literal's own position, where an unterminated
    literal is reported.
    """
    stop = _STRING_STOPS[opener]
    pieces: List[str] = []
    pos = start
    while True:
        found = stop.search(text, pos)
        if found is None:
            raise SparqlSyntaxError("unterminated string literal", line, column)
        index = found.start()
        pieces.append(text[pos:index])
        if found.group() == opener:
            return "".join(pieces), found.end()
        if text[index] != "\\":
            raise SparqlSyntaxError("newline in short string literal", *_position(text, index))
        escape = text[index + 1 : index + 2]
        if escape in _ECHAR:
            pieces.append(_ECHAR[escape])
            pos = index + 2
        elif escape in _UCHAR:
            pos = index + (6 if escape == "u" else 10)
            code = text[index + 2 : pos]
            if not _UCHAR[escape].fullmatch(code) or int(code, 16) > sys.maxunicode:
                raise SparqlSyntaxError(
                    f"bad \\{escape} escape: {code!r}", *_position(text, index)
                )
            pieces.append(chr(int(code, 16)))
        else:
            raise SparqlSyntaxError(
                f"unknown string escape: \\{escape}", *_position(text, index)
            )


def tokenize(text: str) -> List[Token]:
    """Tokenize *text*; always ends with an EOF token.

    Raises :class:`SparqlSyntaxError` on characters that cannot start
    any SPARQL token.
    """
    match = _TOKEN_RE.match
    tokens: List[Token] = []
    append = tokens.append
    pos = 0
    line = 1
    line_start = 0  # index of the current line's first character
    while True:
        found = match(text, pos)
        start = found.end(1)
        if start != pos:
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, start) + 1
        pos = found.end()
        kind = _KINDS[found.lastindex]
        column = start - line_start + 1
        if type(kind) is tuple:
            token_type, lead, trail = kind
            append(Token(token_type, text[start + lead : pos - trail], line, column))
            continue
        if kind is _EOF:
            append(Token(TokenType.EOF, "", line, column))
            return tokens
        if kind is _BAD:
            char = text[start]
            message = "bad language tag" if char == "@" else f"unexpected character {char!r}"
            raise SparqlSyntaxError(message, line, column)
        if kind is _OPEN:
            value, pos = _scan_string(text, pos, text[start:pos], line, column)
            append(Token(TokenType.STRING, value, line, column))
        elif kind is _LONG:
            append(Token(TokenType.STRING, text[start + 3 : pos - 3], line, column))
        else:
            append(Token(kind, "[]" if kind is _ANON else "()", line, column))
        # Only these tokens can span lines.
        newlines = text.count("\n", start, pos)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", start, pos) + 1

