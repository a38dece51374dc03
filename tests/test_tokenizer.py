"""Unit tests for the SPARQL lexer."""

import pytest

from repro.exceptions import SparqlSyntaxError
from repro.sparql import TokenType, tokenize


def kinds(text):
    return [t.type for t in tokenize(text)][:-1]  # drop EOF


def values(text):
    return [t.value for t in tokenize(text)][:-1]


class TestBasicTokens:
    def test_iri(self):
        tokens = tokenize("<http://example.org/a>")
        assert tokens[0].type == TokenType.IRIREF
        assert tokens[0].value == "http://example.org/a"

    def test_variables_both_sigils(self):
        tokens = tokenize("?x $y")
        assert [t.value for t in tokens[:2]] == ["x", "y"]
        assert all(t.type == TokenType.VAR for t in tokens[:2])

    def test_pname(self):
        tokens = tokenize("rdf:type foaf:name :bare")
        assert [t.value for t in tokens[:3]] == ["rdf:type", "foaf:name", ":bare"]
        assert all(t.type == TokenType.PNAME for t in tokens[:3])

    def test_pname_trailing_dot_not_consumed(self):
        tokens = tokenize("?s rdf:type ?o.")
        assert tokens[1].value == "rdf:type"
        assert tokens[3].is_punct(".")

    def test_blank_node(self):
        tokens = tokenize("_:b0")
        assert tokens[0].type == TokenType.BLANK_NODE
        assert tokens[0].value == "b0"

    def test_keywords(self):
        assert kinds("SELECT WHERE FILTER") == [TokenType.KEYWORD] * 3

    def test_numbers(self):
        tokens = tokenize("42 3.14 1e6 .5")
        assert [t.type for t in tokens[:4]] == [
            TokenType.INTEGER,
            TokenType.DECIMAL,
            TokenType.DOUBLE,
            TokenType.DECIMAL,
        ]


class TestStrings:
    def test_double_quoted(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_single_quoted(self):
        assert tokenize("'hello'")[0].value == "hello"

    def test_long_quoted(self):
        assert tokenize('"""multi\nline"""')[0].value == "multi\nline"

    def test_long_single_quoted(self):
        assert tokenize("'''a'b'''")[0].value == "a'b"

    def test_escapes(self):
        assert tokenize(r'"a\nb\tc\"d"')[0].value == 'a\nb\tc"d'

    def test_unicode_escape(self):
        assert tokenize(r'"é"')[0].value == "é"

    def test_newline_in_short_string_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            tokenize('"a\nb"')

    def test_unterminated_string_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            tokenize('"unclosed')

    def test_langtag(self):
        tokens = tokenize('"x"@en-US')
        assert tokens[1].type == TokenType.LANGTAG
        assert tokens[1].value == "en-US"


class TestPunctuation:
    def test_multi_char_operators(self):
        assert values("a && b || c != d <= e >= f") == [
            "a", "&&", "b", "||", "c", "!=", "d", "<=", "e", ">=", "f",
        ]

    def test_datatype_marker(self):
        tokens = tokenize('"5"^^<urn:t>')
        assert tokens[1].is_punct("^^")

    def test_anon_and_nil(self):
        tokens = tokenize("[] [ ] () ( )")
        assert [t.type for t in tokens[:4]] == [
            TokenType.ANON, TokenType.ANON, TokenType.NIL, TokenType.NIL,
        ]

    def test_path_operators(self):
        assert values("a*/b+|^c?") == ["a", "*", "/", "b", "+", "|", "^", "c", "?"]


class TestCommentsAndPositions:
    def test_comments_skipped(self):
        assert values("SELECT # comment\n?x") == ["SELECT", "x"]

    def test_line_column_tracking(self):
        tokens = tokenize("SELECT\n  ?x")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(SparqlSyntaxError) as info:
            tokenize("SELECT\n  ~")
        assert info.value.line == 2

    def test_eof_token_always_present(self):
        assert tokenize("")[-1].type == TokenType.EOF
        assert tokenize("?x")[-1].type == TokenType.EOF


class TestRegressions:
    @pytest.mark.parametrize(
        "text",
        [r'"\u+041"', r'"\u 041"', r'"\u0_41"', r'"\U+0000041"', r'"\u004"', r'"\u12'],
    )
    def test_unicode_escape_needs_hex_digits(self, text):
        # int(code, 16) tolerates signs, underscores and spaces; the
        # grammar's UCHAR takes exactly 4 or 8 hex digits.
        with pytest.raises(SparqlSyntaxError, match=r"bad \\[uU] escape") as info:
            tokenize(text)
        assert (info.value.line, info.value.column) == (1, 2)

    def test_unicode_escape_out_of_range(self):
        with pytest.raises(SparqlSyntaxError, match=r"bad \\U escape"):
            tokenize(r'"\U00110000"')

    def test_unicode_escapes_decode(self):
        assert tokenize(r'"é\U0001F600"')[0].value == "é\U0001F600"

    @pytest.mark.parametrize(
        "text, pname",
        [(r"ex:a\.", r"ex:a\."), (r"ex:a\.\.", r"ex:a\.\."), (r"ex:\. ?o", r"ex:\.")],
    )
    def test_pname_keeps_escaped_trailing_dot(self, text, pname):
        tokens = tokenize(text)
        assert (tokens[0].type, tokens[0].value) == (TokenType.PNAME, pname)
        assert not any(t.is_punct(".") for t in tokens)

    def test_escaped_backslash_is_not_a_local_escape(self):
        with pytest.raises(SparqlSyntaxError, match="unexpected character"):
            tokenize(r"ex:a\\.")

    @pytest.mark.parametrize("text", ["1²", "²"])
    def test_superscript_digit_is_a_syntax_error(self, text):
        # str.isdigit() holds for superscripts, which the number pattern
        # never matched: the lexer failed an assertion here.
        with pytest.raises(SparqlSyntaxError, match="unexpected character"):
            tokenize(text)

    def test_numbers_take_ascii_digits_only(self):
        # INTEGER is [0-9]+ in the grammar; other decimal digits are
        # name characters.
        assert kinds(".٣ ٣") == [TokenType.PUNCT, TokenType.KEYWORD, TokenType.KEYWORD]

    def test_ascii_number_forms(self):
        assert values("1. .5 2e3 1.5E-2") == ["1.", ".5", "2e3", "1.5E-2"]
