"""Unit tests for log formats and the clean/parse/dedup pipeline."""

import urllib.parse

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import LogFormatError
from repro.logs import (
    build_query_log,
    encode_access_log_line,
    iter_queries,
    parse_access_log_line,
)
from repro.logs.formats import _DECODE_MEMO_SIZE, _query_parameter
from repro.rdf.namespaces import WELL_KNOWN_PREFIXES


QUERY = 'SELECT ?x WHERE { ?x <urn:p> "a b&c" }'


class TestAccessLogFormat:
    def test_round_trip(self):
        line = encode_access_log_line(QUERY)
        entry = parse_access_log_line(line)
        assert entry.query == QUERY
        assert entry.method == "GET"
        assert entry.status == 200

    def test_special_characters_survive(self):
        tricky = 'SELECT * WHERE { ?x <urn:p> "100% +fun?" }'
        entry = parse_access_log_line(encode_access_log_line(tricky))
        assert entry.query == tricky

    def test_non_query_line(self):
        line = '1.2.3.4 - - [01/Jan/2015:00:00:00 +0000] "GET /robots.txt HTTP/1.1" 404 0'
        entry = parse_access_log_line(line)
        assert entry.query is None

    def test_garbage_rejected(self):
        with pytest.raises(LogFormatError):
            parse_access_log_line("not a log line at all")

    def test_iter_queries_skips_junk(self):
        lines = [
            encode_access_log_line("ASK { ?s ?p ?o }"),
            "junk junk junk",
            '9.9.9.9 - - [x] "GET /sparql?format=json HTTP/1.1" 200 10',
            encode_access_log_line("SELECT * WHERE { ?s ?p ?o }"),
        ]
        assert len(list(iter_queries(lines))) == 2

    def test_iter_queries_equals_per_line_decoding(self):
        # More distinct requests than the memo holds, each seen twice:
        # once while remembered, once after it was evicted.
        queries = [f"ASK {{ ?s <urn:p{i}> ?o }}" for i in range(_DECODE_MEMO_SIZE + 50)]
        lines = [encode_access_log_line(query) for query in queries] * 2
        lines.insert(5, lines[3])  # a repeat the memo serves
        decoded = [parse_access_log_line(line).query for line in lines]
        assert list(iter_queries(lines)) == decoded

    def test_decode_memo_is_bounded(self):
        lines = (encode_access_log_line(f"ASK {{ ?s ?p {i} }}") for i in range(3000))
        queries = iter_queries(lines)
        for _ in range(2500):
            next(queries)
        assert len(queries.gi_frame.f_locals["memo"]) == _DECODE_MEMO_SIZE


_QUERY_STRING_PIECES = st.sampled_from(
    ["query", "qu%65ry", "Query", "format", "=", "&", ";", "+", "%", "%4", "%zz",
     "%41", "%C3%A9", "%C3", "%FF", "%26", "%3D", "%2B", "x", " ", "é"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_QUERY_STRING_PIECES | st.text(max_size=3), max_size=12).map("".join))
@example("query=a+b%20c")
@example("query=%zz%4%")
@example("qu%65ry=encoded+name")
@example("query=first&query=second")
@example("format=json;query=x&query=y;z")
@example("query&query=later")
@example("query=")
@example("query=%C3%28%FF")
def test_query_parameter_matches_parse_qs(query_string):
    parsed = urllib.parse.parse_qs(query_string, keep_blank_values=True)
    assert _query_parameter(query_string) == parsed.get("query", [None])[0]


class TestPipeline:
    def test_counts(self):
        raw = [
            "SELECT * WHERE { ?s ?p ?o }",
            "SELECT * WHERE { ?s ?p ?o }",  # duplicate
            "ASK { ?s <urn:p> ?o }",
            "BROKEN {",
        ]
        log = build_query_log("test", raw)
        assert log.total == 4
        assert log.valid == 3
        assert log.unique == 2

    def test_multiplicities(self):
        raw = ["ASK { ?s ?p ?o }"] * 5 + ["SELECT * WHERE { ?a ?b ?c }"]
        log = build_query_log("test", raw)
        counts = {p.text: p.count for p in log.unique_queries()}
        assert counts["ASK { ?s ?p ?o }"] == 5
        assert counts["SELECT * WHERE { ?a ?b ?c }"] == 1

    def test_valid_stream_repeats(self):
        raw = ["ASK { ?s ?p ?o }"] * 3
        log = build_query_log("test", raw)
        assert len(list(log.valid_queries())) == 3
        assert len(list(log.unique_queries())) == 1

    def test_well_known_prefixes_available(self):
        # Endpoint logs rely on pre-declared prefixes.
        log = build_query_log("test", ["SELECT * WHERE { ?x rdf:type ?c }"])
        assert log.valid == 1

    def test_well_known_includes_wikidata(self):
        assert WELL_KNOWN_PREFIXES["wdt"].startswith("http://www.wikidata.org/")
        log = build_query_log("test", ["ASK { ?x wdt:P31 wd:Q5 }"])
        assert log.valid == 1

    def test_extra_prefixes(self):
        log = build_query_log(
            "test",
            ["SELECT * WHERE { ?x myns:p ?c }"],
            extra_prefixes={"myns": "urn:mine:"},
        )
        assert log.valid == 1

    def test_unknown_prefix_invalid(self):
        log = build_query_log("test", ["SELECT * WHERE { ?x nope:p ?c }"])
        assert log.valid == 0

    def test_order_preserved(self):
        raw = ["ASK { ?b ?p ?o }", "ASK { ?a ?p ?o }"]
        log = build_query_log("test", raw)
        assert [p.text for p in log.unique_queries()] == raw

    def test_summary_row(self):
        log = build_query_log("DBpedia-test", ["ASK { ?s ?p ?o }"])
        assert log.summary_row() == ("DBpedia-test", 1, 1, 1)

    def test_parse_cache_consistency(self):
        # The same text seen valid then again: count increments.
        raw = ["ASK { ?s ?p ?o }", "garbage", "ASK { ?s ?p ?o }"]
        log = build_query_log("test", raw)
        assert log.total == 3 and log.valid == 2 and log.unique == 1
