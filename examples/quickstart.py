#!/usr/bin/env python3
"""Quickstart: parse SPARQL, classify structure, run a query.

Walks through the library's layers in five minutes:

1. parse a real Wikidata example query;
2. inspect its shallow features (the paper's Table 2 measurements);
3. classify its fragment (§5.2) and shape (§6);
4. build a tiny RDF graph and evaluate queries on both engine profiles;
5. measure tree- and hypertree width of cyclic queries;
6. run the whole study through the stable ``repro.api`` facade.

Run: ``python examples/quickstart.py``
"""

from repro import (
    IRI,
    Graph,
    IndexedEngine,
    Literal,
    NestedLoopEngine,
    Triple,
    canonical_graph,
    canonical_hypergraph,
    classify_fragments,
    classify_shape,
    extract_features,
    hypertree_width,
    parse_query,
    query_facts,
    treewidth,
)
from repro.api import analyze_corpora


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Parse the paper's running example ("Locations of archaeological
    #    sites", §3).
    # ------------------------------------------------------------------
    wikidata_query = """
    PREFIX wdt: <http://www.wikidata.org/prop/direct/>
    PREFIX wd: <http://www.wikidata.org/entity/>
    PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
    SELECT ?label ?coord ?subj
    WHERE
    { ?subj wdt:P31/wdt:P279* wd:Q839954 .
      ?subj wdt:P625 ?coord .
      ?subj rdfs:label ?label filter(lang(?label)="en")
    }
    """
    query = parse_query(wikidata_query)
    print(f"query type      : {query.query_type.value}")

    # ------------------------------------------------------------------
    # 2. Shallow features (Table 2 semantics).  Every classifier reads
    #    the query's facts, gathered in one walk.
    # ------------------------------------------------------------------
    features = extract_features(query_facts(query))
    print(f"keywords        : {sorted(features.keywords)}")
    print(f"triples         : {features.triple_count}"
          f" (of which {features.path_pattern_count} property path)")
    print(f"uses projection : {features.uses_projection}")

    # ------------------------------------------------------------------
    # 3. Fragment + shape classification on a cyclic CQ.
    # ------------------------------------------------------------------
    cycle = query_facts(parse_query(
        "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }"
    ))
    fragments = classify_fragments(cycle)
    print(f"\ncycle query is CQ={fragments.is_cq} CQF={fragments.is_cqf} "
          f"CQOF={fragments.is_cqof}")
    graph_shape = classify_shape(canonical_graph(cycle))
    print(f"shape           : cycle={graph_shape.cycle} "
          f"flower={graph_shape.flower} girth={graph_shape.shortest_cycle}")
    width = treewidth(canonical_graph(cycle))
    print(f"treewidth       : {width.width} (exact={width.exact})")

    # Predicate variables force the hypergraph view (paper Example 5.1).
    tricky = parse_query("ASK { ?x1 ?x2 ?x3 . ?x3 <urn:a> ?x4 . ?x4 ?x2 ?x5 }")
    hyper = hypertree_width(canonical_hypergraph(query_facts(tricky)))
    print(f"hypertree width : {hyper.width} "
          f"({hyper.node_count} decomposition nodes)")

    # ------------------------------------------------------------------
    # 4. Evaluate queries on a hand-built graph with both engines.
    # ------------------------------------------------------------------
    data = Graph()
    knows, name = IRI("urn:knows"), IRI("urn:name")
    alice, bob, carol = IRI("urn:alice"), IRI("urn:bob"), IRI("urn:carol")
    data.add(Triple(alice, knows, bob))
    data.add(Triple(bob, knows, carol))
    data.add(Triple(carol, knows, alice))
    for node, label in ((alice, "Alice"), (bob, "Bob"), (carol, "Carol")):
        data.add(Triple(node, name, Literal(label)))

    select = (
        "SELECT ?n WHERE { <urn:alice> <urn:knows>+ ?f . ?f <urn:name> ?n } "
        "ORDER BY ?n"
    )
    for engine in (IndexedEngine(data), NestedLoopEngine(data)):
        rows = engine.evaluate(select)
        names = [str(next(iter(r.values()))) for r in rows]
        print(f"\n{engine.name} engine reachable names: {names}")

    triangle = "ASK { ?x <urn:knows> ?y . ?y <urn:knows> ?z . ?z <urn:knows> ?x }"
    print(f"triangle exists : {IndexedEngine(data).evaluate(triangle)}")

    # ------------------------------------------------------------------
    # 6. The full study through the facade: one call from raw query
    #    texts to every measurement of the paper, renderable in any
    #    registered format and serializable as a JSON snapshot.
    # ------------------------------------------------------------------
    result = analyze_corpora(
        {"quickstart": [wikidata_query, select, triangle, "BROKEN {"]}
    )
    stats = result.study.datasets["quickstart"]
    print(f"\nfacade study    : {stats.total} entries -> {stats.valid} valid "
          f"-> {stats.unique} unique")
    print(f"keywords counted: {sorted(result.study.keyword_counts)}")
    print("(result.render('text'|'markdown'|'csv'|...) prints the full "
          "report; result.save(path) writes a mergeable JSON snapshot)")


if __name__ == "__main__":
    main()
