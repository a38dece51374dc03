"""Valid depends on the query text alone, never on the call stack.

A query nested deeper than :data:`MAX_NESTING_DEPTH` is a syntax error
that names the limit; a query at the limit parses, and its AST ships
to a pool worker, on every supported Python version.  The two chains
the parser builds without nesting, ``UNION`` and ``+ - * /``, pickle,
hash, compare and serialize without recursing along the chain, so a
chain of any length ships and round-trips too.
"""

import pickle

import pytest

from repro.analysis.snapshot import load_study
from repro.cli import main
from repro.exceptions import SparqlSyntaxError
from repro.logs import build_query_log, encode_access_log_line
from repro.sparql import parse_query, serialize_query
from repro.sparql.parser import MAX_NESTING_DEPTH

LIMIT_ERROR = f"nests deeper than the limit of {MAX_NESTING_DEPTH} levels"

SIMPLE = [f"SELECT ?x WHERE {{ ?x <urn:p{i % 7}> ?y }}" for i in range(40)]

#: One query each that the pool could not ship before the limit and
#: the flat chains: 100 nested FILTER EXISTS (now past the limit), a
#: 330-branch UNION and a 330-term sum (both still Valid).
DEEP = {
    "exists": "ASK { " + "FILTER EXISTS { " * 100 + "?s <urn:p> ?o" + " }" * 100 + " }",
    "union": "SELECT * WHERE { "
    + " UNION ".join(f"{{ ?s <urn:p{i}> ?o }}" for i in range(330))
    + " }",
    "sum": "SELECT * WHERE { ?s <urn:p> ?a FILTER(" + " + ".join(["?a"] * 330) + " > 0) }",
}

#: Every construct that nests another, as (head, open, close, leaf,
#: tail, levels each *open* adds, levels *head* adds).
KINDS = {
    "groups": ("", "{ ", "} ", "?s <urn:p> ?o ", "", 1, 0),
    "OPTIONAL": ("", "OPTIONAL { ", "} ", "?s <urn:p> ?o ", "", 1, 0),
    "MINUS": ("", "MINUS { ", "} ", "?s <urn:p> ?o ", "", 1, 0),
    "GRAPH": ("", "GRAPH ?g { ", "} ", "?s <urn:p> ?o ", "", 1, 0),
    "SERVICE": ("", "SERVICE <urn:s> { ", "} ", "?s <urn:p> ?o ", "", 1, 0),
    "FILTER EXISTS": ("", "FILTER EXISTS { ", "} ", "", "", 2, 0),
    "parentheses in a FILTER": ("FILTER ", "(", ")", "?o", " ", 1, 0),
    "parentheses in a path": ("?s ", "(", ")", "<urn:p>", " ?o ", 1, 0),
    "! prefixes": ("FILTER (", "!", "", "?o", ") ", 1, 1),
    "- prefixes": ("FILTER (", "-", "", "?o", ") ", 1, 1),
    "nested calls": ("FILTER ", "STR(", ")", "?o", " ", 1, 0),
    "nested aggregates": ("FILTER (", "SUM(", ")", "?o", ") ", 1, 1),
    "[ ] lists": ("?s <urn:p> ", "[ <urn:p> ", " ]", "?o", " ", 1, 0),
    "collections": ("?s <urn:p> ", "( ", " )", "?o", " ", 1, 0),
    "sub-selects": ("", "{ SELECT * WHERE { ", "} } ", "?s <urn:p> ?o ", "", 3, 0),
}


def nested(kind: str, depth: int) -> str:
    """An ASK query nested exactly *depth* levels whose innermost levels
    are *kind*'s; plain groups around them make up the rest."""
    head, open_, close, leaf, tail, cost, base = KINDS[kind]
    repeats = (depth - 1 - base) // cost
    pad = depth - base - repeats * cost
    return "ASK " + "{ " * pad + head + open_ * repeats + leaf + close * repeats + tail + "} " * pad


def write_log(path, queries) -> None:
    path.write_text("".join(encode_access_log_line(query) + "\n" for query in queries))


def analyze(capsys, *args: str) -> str:
    assert main(["analyze", *args]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_query_log_reports_the_same_at_two_workers(tmp_path, capsys, name):
    log = tmp_path / f"{name}.log"
    write_log(log, SIMPLE[:20] + [DEEP[name]] + SIMPLE[20:])
    serial = analyze(capsys, str(log))
    assert analyze(capsys, "--workers", "2", "--chunk-size", "10", str(log)) == serial
    assert build_query_log(name, [DEEP[name]]).valid == (name != "exists")


@pytest.mark.parametrize("name", ["union", "sum"])
def test_chains_pickle_flat(name):
    data = pickle.dumps(parse_query(DEEP[name]))
    assert pickle.dumps(pickle.loads(data)) == data


#: 1,500-link chains: far past where a recursive ``hash``, ``==``,
#: ``repr`` or serializer fails (about 600 links on Python 3.11).
LONG = {
    "union": "SELECT * WHERE { "
    + " UNION ".join(f"{{ ?s <urn:p{i % 9}> ?o }}" for i in range(1501))
    + " }",
    "sum": "SELECT * WHERE { ?s <urn:p> ?a FILTER("
    + " + ".join(f"?a{i % 5}" for i in range(1501)) + " > 0) }",
    "mixed": "SELECT * WHERE { ?s <urn:p> ?a FILTER("
    + " - ".join(f"?a * {i % 4} / ?b + (?a - ?c)" for i in range(500)) + " > 0) }",
}


@pytest.mark.parametrize("name", sorted(LONG))
def test_long_chains_hash_compare_and_round_trip(name):
    query = parse_query(LONG[name])
    again = parse_query(LONG[name])
    assert query is not again
    assert query == again and hash(query) == hash(again)
    assert repr(query) == repr(again) and repr(query).startswith("Query(")
    assert parse_query(serialize_query(query)) == query
    other = parse_query(LONG[name].replace("?a", "?z", 1) if name != "union"
                        else LONG[name].replace("<urn:p0>", "<urn:q>", 1))
    assert query != other


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_limit_is_valid_and_one_level_past_it_is_not(kind):
    parse_query(nested(kind, MAX_NESTING_DEPTH))
    with pytest.raises(SparqlSyntaxError, match=LIMIT_ERROR):
        parse_query(nested(kind, MAX_NESTING_DEPTH + 1))


def test_limit_is_the_same_at_two_workers(tmp_path, capsys):
    log = tmp_path / "deep.log"
    depths = (MAX_NESTING_DEPTH, MAX_NESTING_DEPTH + 1)
    write_log(log, [nested(kind, depth) for kind in KINDS for depth in depths])
    serial = analyze(capsys, str(log))
    snapshot = tmp_path / "study.json"
    sharded = analyze(
        capsys, "--workers", "2", "--chunk-size", "2", "--save-study", str(snapshot), str(log)
    )
    assert sharded == serial
    stats = load_study(snapshot).datasets["deep"]
    assert (stats.total, stats.valid) == (2 * len(KINDS), len(KINDS))
