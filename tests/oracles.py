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

Both ``tests/`` and ``benchmarks/`` import this module.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional

from repro.analysis.incremental import CHECKPOINT_KIND, CHECKPOINT_SCHEMA_VERSION
from repro.analysis.snapshot import study_to_dict
from repro.analysis.streaks import (
    BUCKET_LABELS,
    DEFAULT_STREAK_THRESHOLD,
    DEFAULT_STREAK_WINDOW,
    PreparedText,
    bucket_label,
    prepared_similar,
)
from repro.exceptions import SparqlSyntaxError
from repro.sparql.tokenizer import Token, TokenType

__all__ = [
    "_levenshtein_banded",
    "_levenshtein_full",
    "_similar_reference",
    "checkpoint_text_reference",
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
