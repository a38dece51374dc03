"""Component micro-benchmarks (multi-round timings).

Unlike the table/figure benches (one-shot pedantic runs that print
paper comparisons), these measure the throughput of the hot components
with pytest-benchmark's normal calibration: parser, BGP joins, shape
classification, treewidth, and the banded Levenshtein.  They catch
performance regressions in the substrate the reproduction rests on.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    canonical_graph,
    classify_fragments,
    classify_shape,
    levenshtein,
    query_facts,
    treewidth,
)
from repro.engine import IndexedEngine
from repro.sparql import parse_query, serialize_query
from repro.workload import bib_schema, generate_graph

WIKIDATA_QUERY = """
PREFIX wdt: <http://www.wikidata.org/prop/direct/>
PREFIX wd: <http://www.wikidata.org/entity/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?label ?coord ?subj
WHERE
{ ?subj wdt:P31/wdt:P279* wd:Q839954 .
  ?subj wdt:P625 ?coord .
  ?subj rdfs:label ?label filter(lang(?label)="en")
}
ORDER BY ?label
LIMIT 100
"""

CHAIN_8 = (
    "ASK { " + " . ".join(
        f"?x{i} <urn:p{i}> ?x{i + 1}" for i in range(8)
    ) + " }"
)


def test_parse_throughput(benchmark):
    query = benchmark(parse_query, WIKIDATA_QUERY)
    assert query.projection is not None


def test_serialize_round_trip_throughput(benchmark):
    parsed = parse_query(WIKIDATA_QUERY)

    def round_trip():
        return parse_query(serialize_query(parsed))

    again = benchmark(round_trip)
    assert again.pattern == parsed.pattern


def test_shape_classification_throughput(benchmark):
    facts = query_facts(parse_query(CHAIN_8))

    def classify():
        return classify_shape(canonical_graph(facts))

    profile = benchmark(classify)
    assert profile.chain


def test_fragment_classification_throughput(benchmark):
    query = parse_query(
        "SELECT * WHERE { ?a <urn:p> ?b . ?b <urn:q> ?c "
        "OPTIONAL { ?c <urn:r> ?d } FILTER(lang(?b) = \"en\") }"
    )

    def classify():
        # The facts walk is part of the cost: it replaced the walks the
        # fragment predicates used to make themselves.
        return classify_fragments(query_facts(query))

    profile = benchmark(classify)
    assert profile.is_aof


def test_treewidth_cycle_throughput(benchmark):
    facts = query_facts(parse_query(
        "ASK { " + " . ".join(
            f"?x{i} <urn:p> ?x{(i + 1) % 12}" for i in range(12)
        ) + " }"
    ))
    graph = canonical_graph(facts)
    result = benchmark(treewidth, graph)
    assert result.width == 2


@pytest.fixture(scope="module")
def engine():
    schema = bib_schema()
    return IndexedEngine(generate_graph(schema, 400, seed=3), timeout=30.0)


def test_join_throughput(benchmark, engine):
    ns = bib_schema().namespace
    query = (
        f"SELECT ?r WHERE {{ ?p <{ns}authoredBy> ?r . "
        f"?p <{ns}publishedIn> ?j . ?r <{ns}friendOf> ?f }} LIMIT 50"
    )
    rows = benchmark(engine.evaluate, query)
    assert isinstance(rows, list)


def test_levenshtein_banded_throughput(benchmark):
    a = "SELECT ?x WHERE { ?x <urn:p> 'value-one' . ?x <urn:q> ?y }" * 4
    b = a.replace("value-one", "value-two")
    distance = benchmark(levenshtein, a, b, 60)
    assert distance is not None
