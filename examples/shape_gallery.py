#!/usr/bin/env python3
"""Shape gallery: the paper's Table 4 taxonomy on concrete queries.

Builds one example query per shape class — single edge, chain, chain
set, star, tree, forest, cycle, petal, flower, flower set — classifies
each, and prints the full membership matrix, illustrating why the
paper's rows are *cumulative* (a chain is also a tree, a forest, and a
flower set).  Finishes with the paper's Figure 7 treewidth-3 outlier.

Run: ``python examples/shape_gallery.py``
"""

from repro import canonical_graph, classify_shape, parse_query, query_facts, treewidth
from repro.analysis.shapes import SHAPE_ORDER

GALLERY = {
    "single edge": "ASK { ?a <urn:p> ?b }",
    "chain": "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?d }",
    "chain set": "ASK { ?a <urn:p> ?b . ?x <urn:q> ?y }",
    "star": "ASK { ?x <urn:p> ?a . ?x <urn:q> ?b . ?x <urn:r> ?c }",
    "tree": (
        "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?b <urn:r> ?d . "
        "?d <urn:s> ?e . ?d <urn:t> ?f }"
    ),
    "forest": (
        "ASK { ?x <urn:p> ?a . ?x <urn:q> ?b . ?x <urn:r> ?c . "
        "?m <urn:s> ?n . ?n <urn:t> ?o }"
    ),
    "cycle": "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }",
    "petal": (
        "ASK { ?s <urn:p> ?m1 . ?m1 <urn:q> ?t . "
        "?s <urn:r> ?m2 . ?m2 <urn:s> ?t . ?s <urn:t> ?t }"
    ),
    "flower": (
        # A core with two petals and two stamens, like the paper's
        # Figure 6 DBpedia query.
        "ASK { ?core <urn:a> ?p1 . ?p1 <urn:b> ?p2 . ?p2 <urn:c> ?core . "
        "?core <urn:d> ?q1 . ?q1 <urn:e> ?q2 . ?q2 <urn:f> ?core . "
        "?core <urn:g> ?s1 . ?core <urn:h> ?s2 }"
    ),
    "flower set": (
        "ASK { ?core <urn:a> ?p1 . ?p1 <urn:b> ?p2 . ?p2 <urn:c> ?core . "
        "?other <urn:x> ?leaf }"
    ),
}

#: The paper's Figure 7: the single treewidth-3 query in 39M.
FIGURE7 = """
ASK {
  ?subject <urn:nationality> ?nationality .
  ?subject <urn:birthPlace> ?birthPlace .
  ?subject <urn:genre> ?genre .
  ?object <urn:nationality> ?nationality .
  ?object <urn:birthPlace> ?birthPlace .
  ?object <urn:genre> ?genre .
  ?nationality <urn:rel> ?birthPlace .
  ?birthPlace <urn:rel> ?genre .
  ?genre <urn:rel> ?nationality .
}
"""


def main() -> None:
    header = f"{'query shape':<12} | " + " ".join(
        f"{name[:6]:>6}" for name in SHAPE_ORDER
    ) + " |  tw"
    print(header)
    print("-" * len(header))
    for label, text in GALLERY.items():
        graph = canonical_graph(query_facts(parse_query(text)))
        profile = classify_shape(graph)
        memberships = profile.as_dict()
        row = " ".join(
            f"{'x' if memberships[name] else '·':>6}" for name in SHAPE_ORDER
        )
        width = treewidth(graph).width
        print(f"{label:<12} | {row} | {width:>3}")

    print("\nThe paper's treewidth-3 outlier (Figure 7):")
    graph = canonical_graph(query_facts(parse_query(FIGURE7)))
    result = treewidth(graph)
    profile = classify_shape(graph)
    print(f"  treewidth = {result.width} (exact={result.exact}); "
          f"flower set = {profile.flower_set}")


if __name__ == "__main__":
    main()
