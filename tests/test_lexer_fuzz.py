"""The lexer against its reference, and the parser under byte fuzzing.

* :func:`repro.sparql.tokenize` must equal the character-by-character
  reference lexer (:func:`oracles.tokenize_reference`) on every input:
  the same tokens (type, value, line, column), or the same
  :class:`SparqlSyntaxError` message at the same line and column.
  Inputs are generated over a SPARQL-ish alphabet and byte-mutated from
  the golden queries.
* The name character classes, which the lexer spells as negated
  complements, match exactly the code points of the grammar's classes.
* :func:`repro.sparql.parse_query` raises nothing but
  :class:`SparqlSyntaxError` on byte-mutated golden queries, each
  within a time bound.
"""

import re
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import tokenize_reference
from repro.exceptions import SparqlSyntaxError
from repro.logs import read_entries
from repro.rdf.namespaces import WELL_KNOWN_PREFIXES
from repro.sparql import parse_query, tokenize, tokenizer

GOLDENS = Path(__file__).parent / "goldens"
GOLDEN_QUERIES = [
    *read_entries(GOLDENS / "endpoint_a.log"),
    *read_entries(GOLDENS / "endpoint_b.rq"),
]

# Every character class and token boundary of the lexer, escapes,
# comments, non-ASCII name characters, a superscript digit (not a
# number), a combining mark (a name character only after the first)
# and a lone surrogate.
_ALPHABET = (
    " \t\r\n#\"'\\<>?$_:@.[](){}0123456789eE+-^|&!=*/;,%~"
    "abfnrtuUxSELCTéß٣²·‿\u0301\u200c\ud800\U0001F600"
)
_FRAGMENTS = [
    '"""', "'''", r"\u00e9", r"\U0001F600", r"\u+041", "ex:", r"\.", "%41",
    "_:", "^^", "@en-US", "1.5e-3", "[ ]", "( )", "#c\n", "SELECT", "<urn:x>",
]
_texts = st.lists(
    st.sampled_from(_FRAGMENTS) | st.text(_ALPHABET, max_size=4), max_size=16
).map("".join)


@st.composite
def mutated_golden(draw):
    """A golden query with a few bytes replaced, inserted or deleted,
    decoded as the log reader decodes (or keeping the bad bytes as
    surrogates)."""
    data = bytearray(draw(st.sampled_from(GOLDEN_QUERIES)).encode())
    for _ in range(draw(st.integers(1, 4))):
        index = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        piece = draw(
            st.binary(min_size=1, max_size=3)
            | st.sampled_from([b'"', b"\\", b"\n", b"\xc2\xb2"])
        )
        if action == "insert" or not data:
            data[index:index] = piece
        elif action == "replace":
            data[index : index + len(piece)] = piece
        else:
            del data[index : index + len(piece)]
    return data.decode("utf-8", draw(st.sampled_from(["replace", "surrogateescape"])))


def _lex(lexer, text):
    try:
        return [(token.type, token.value, token.line, token.column) for token in lexer(text)]
    except SparqlSyntaxError as error:
        return ("error", str(error), error.line, error.column)


@settings(max_examples=400, deadline=None)
@given(_texts)
@example('"a\\u0041b" \'\'\'x\ny\'\'\' ?v.')
@example("# only a comment")
@example("ex:a\\. _:b.c. 1.e5 .5E+2 1e")
@example("<a b> <= <=x> ?x<?y")
def test_tokenize_matches_reference_on_generated_text(text):
    assert _lex(tokenize, text) == _lex(tokenize_reference, text)


@settings(max_examples=300, deadline=None)
@given(mutated_golden())
def test_tokenize_matches_reference_on_mutated_goldens(text):
    assert _lex(tokenize, text) == _lex(tokenize_reference, text)


def test_tokenize_matches_reference_on_goldens():
    for text in GOLDEN_QUERIES:
        assert _lex(tokenize, text) == _lex(tokenize_reference, text)


_EVERY_CHARACTER = "".join(map(chr, range(sys.maxunicode + 1)))


@pytest.mark.parametrize(
    "ranges, grammar_class",
    [
        (tokenizer._PN_BASE, f"[{oracles._PN_BASE}]"),
        (tokenizer._PN_BASE + tokenizer._COLON, f"[{oracles._PN_BASE}:]"),
        (tokenizer._PN_U, f"[{oracles._PN_U}]"),
        (tokenizer._PN_U + tokenizer._DIGIT, f"[{oracles._PN_U}0-9]"),
        (tokenizer._PN_U + tokenizer._DIGIT + tokenizer._COLON, f"[{oracles._PN_U}0-9:]"),
        (tokenizer._PN_CHARS, f"[{oracles._PN_CHARS}]"),
        (tokenizer._PN_CHARS + tokenizer._COLON, f"[{oracles._PN_CHARS}:]"),
        (tokenizer._VARNAME, f"[{oracles._PN_U}0-9\u00b7\u0300-\u036f\u203f-\u2040]"),
    ],
)
def test_name_classes_match_the_grammar_exactly(ranges, grammar_class):
    ours = re.compile(tokenizer._chars(ranges)).findall(_EVERY_CHARACTER)
    assert ours == re.compile(grammar_class).findall(_EVERY_CHARACTER)


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(mutated_golden())
# Found by the fuzz: the lexer failed an assertion on superscript digits.
@example("SELECT * WHERE { ?s ?p ?o } LIMIT ²1")
@example("ASK { ?s ?p 1² }")
def test_parser_raises_only_syntax_errors(text):
    for prefixes in (None, WELL_KNOWN_PREFIXES):
        try:
            parse_query(text, extra_prefixes=prefixes)
        except SparqlSyntaxError:
            pass
