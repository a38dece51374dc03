"""Unit tests for AST traversal utilities."""

from repro.sparql import ast, parse_query, walk


def triples(pattern, enter_subqueries=True):
    return [
        node for node in walk.iter_patterns(pattern, enter_subqueries)
        if isinstance(node, ast.TriplePattern)
    ]


class TestIterPatterns:
    def test_counts_all_nodes(self):
        q = parse_query(
            "SELECT * WHERE { ?s <urn:p> ?o OPTIONAL { ?o <urn:q> ?z } "
            "FILTER(?o > 1) }"
        )
        kinds = [type(n).__name__ for n in walk.iter_patterns(q.pattern)]
        assert kinds.count("TriplePattern") == 2
        assert kinds.count("OptionalPattern") == 1
        assert kinds.count("FilterPattern") == 1

    def test_enters_exists_patterns(self):
        q = parse_query(
            "SELECT * WHERE { ?s ?p ?o FILTER EXISTS { ?s <urn:q> ?z } }"
        )
        assert len(triples(q.pattern)) == 2

    def test_subquery_control(self):
        q = parse_query(
            "SELECT * WHERE { { SELECT ?x WHERE { ?x <urn:p> ?y } } }"
        )
        with_sub = triples(q.pattern, enter_subqueries=True)
        without = triples(q.pattern, enter_subqueries=False)
        assert len(with_sub) == 1
        assert len(without) == 0

    def test_none_pattern(self):
        assert list(walk.iter_patterns(None)) == []

    def test_document_order(self):
        q = parse_query("ASK { ?a <urn:p1> ?b . ?b <urn:p2> ?c . ?c <urn:p3> ?d }")
        predicates = [t.predicate.value for t in triples(q.pattern)]
        assert predicates == ["urn:p1", "urn:p2", "urn:p3"]


class TestVariables:
    def test_pattern_variables(self):
        q = parse_query(
            "SELECT * WHERE { ?s <urn:p> ?o FILTER(?f > 1) BIND(1 AS ?b) "
            "GRAPH ?g { ?x ?p ?y } }"
        )
        names = {v.name for v in walk.pattern_variables(q.pattern)}
        assert names == {"s", "o", "f", "b", "g", "x", "p", "y"}

    def test_subselect_exports_only_projection(self):
        q = parse_query(
            "SELECT * WHERE { { SELECT ?x WHERE { ?x <urn:p> ?hidden } } }"
        )
        names = {v.name for v in walk.pattern_variables(q.pattern)}
        assert names == {"x"}

    def test_expression_variables_in_exists(self):
        q = parse_query("ASK { ?s ?p ?o FILTER EXISTS { ?inner <urn:q> ?o } }")
        filter_node = q.pattern.elements[1]
        names = {v.name for v in walk.expression_variables(filter_node.expression)}
        assert "inner" in names


class TestStripServices:
    def test_removes_service_block(self):
        q = parse_query(
            "SELECT * WHERE { ?s <urn:p> ?o "
            'SERVICE <urn:lang> { ?o <urn:label> ?l } }'
        )
        stripped = walk.strip_services(q)
        kinds = {type(n).__name__ for n in walk.iter_patterns(stripped.pattern)}
        assert "ServicePattern" not in kinds
        assert len(triples(stripped.pattern)) == 1

    def test_noop_without_service(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o }")
        assert walk.strip_services(q) is q

    def test_service_inside_optional(self):
        q = parse_query(
            "SELECT * WHERE { ?s ?p ?o OPTIONAL { SERVICE <urn:e> { ?a ?b ?c } } }"
        )
        stripped = walk.strip_services(q)
        kinds = [type(n).__name__ for n in walk.iter_patterns(stripped.pattern)]
        assert "ServicePattern" not in kinds
        # The OPTIONAL became empty and was dropped entirely.
        assert "OptionalPattern" not in kinds

    def test_union_branch_removal(self):
        q = parse_query(
            "SELECT * WHERE { { ?s ?p ?o } UNION { SERVICE <urn:e> { ?a ?b ?c } } }"
        )
        stripped = walk.strip_services(q)
        kinds = [type(n).__name__ for n in walk.iter_patterns(stripped.pattern)]
        assert "UnionPattern" not in kinds
        assert kinds.count("TriplePattern") == 1

    def test_iter_patterns_enters_nested_subqueries(self):
        q = parse_query(
            "SELECT * WHERE { { SELECT ?x WHERE { "
            "{ SELECT ?y WHERE { ?y <urn:p> ?x } } ?x <urn:q> ?z } } }"
        )
        kinds = [type(n).__name__ for n in walk.iter_patterns(q.pattern)]
        assert kinds.count("SubSelectPattern") == 2
