"""Unit tests for shallow feature extraction (Table 2 semantics)."""

from repro.analysis import extract_features, query_facts
from repro.sparql import parse_query


def features(text):
    return extract_features(query_facts(parse_query(text)))


class TestKeywords:
    def test_query_type_keyword(self):
        assert "Select" in features("SELECT * WHERE { ?s ?p ?o }").keywords
        assert "Ask" in features("ASK { ?s ?p ?o }").keywords
        assert "Describe" in features("DESCRIBE <urn:x>").keywords
        assert "Construct" in features(
            "CONSTRUCT { ?s <urn:p> ?o } WHERE { ?s <urn:q> ?o }"
        ).keywords

    def test_and_requires_two_patterns(self):
        assert "And" not in features("SELECT * WHERE { ?s <urn:p> ?o }").keywords
        assert "And" in features(
            "SELECT * WHERE { ?s <urn:p> ?o . ?o <urn:q> ?z }"
        ).keywords

    def test_filter_does_not_count_as_and(self):
        f = features("SELECT * WHERE { ?s <urn:p> ?o FILTER(?o > 1) }")
        assert "Filter" in f.keywords
        assert "And" not in f.keywords

    def test_solution_modifiers(self):
        f = features(
            "SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 5 OFFSET 1"
        )
        assert {"Distinct", "Order By", "Limit", "Offset"} <= f.keywords

    def test_group_by_having(self):
        f = features(
            "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } "
            "GROUP BY ?s HAVING (COUNT(?o) > 1)"
        )
        assert {"Group By", "Having", "Count"} <= f.keywords

    def test_aggregates_in_projection(self):
        f = features(
            "SELECT (MAX(?v) AS ?a) (MIN(?v) AS ?b) (AVG(?v) AS ?c) "
            "(SUM(?v) AS ?d) WHERE { ?s <urn:v> ?v }"
        )
        assert {"Max", "Min", "Avg", "Sum"} <= f.keywords

    def test_exists_vs_not_exists(self):
        f1 = features("ASK { ?s ?p ?o FILTER EXISTS { ?s <urn:q> ?z } }")
        f2 = features("ASK { ?s ?p ?o FILTER NOT EXISTS { ?s <urn:q> ?z } }")
        assert "Exists" in f1.keywords and "Not Exists" not in f1.keywords
        assert "Not Exists" in f2.keywords

    def test_union_opt_graph_minus(self):
        f = features(
            "SELECT * WHERE { { ?a <urn:x> ?b } UNION { ?a <urn:y> ?b } "
            "OPTIONAL { ?a <urn:z> ?c } GRAPH <urn:g> { ?a ?p ?q } "
            "MINUS { ?a <urn:w> ?b } }"
        )
        assert {"Union", "Opt", "Graph", "Minus"} <= f.keywords

    def test_service_bind_values(self):
        f = features(
            "SELECT * WHERE { SERVICE <urn:e> { ?s ?p ?o } "
            "BIND(1 AS ?x) VALUES ?v { 1 } }"
        )
        assert {"Service", "Bind", "Values"} <= f.keywords

    def test_subquery_adds_select_keyword(self):
        f = features("ASK { { SELECT ?x WHERE { ?x <urn:p> ?y } } }")
        assert "Select" in f.keywords and "Ask" in f.keywords
        assert f.uses_subquery


class TestTripleCounts:
    def test_simple_count(self):
        assert features("ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }").triple_count == 2

    def test_counts_inside_operators(self):
        f = features(
            "SELECT * WHERE { ?a <urn:p> ?b OPTIONAL { ?b <urn:q> ?c } "
            "{ ?a <urn:r> ?d } UNION { ?a <urn:s> ?e } }"
        )
        assert f.triple_count == 4

    def test_path_patterns_counted(self):
        f = features("ASK { ?a <urn:p>* ?b . ?b <urn:q> ?c }")
        assert f.triple_count == 2
        assert f.path_pattern_count == 1

    def test_bodyless_describe_zero(self):
        f = features("DESCRIBE <urn:x>")
        assert f.triple_count == 0
        assert not f.has_body

    def test_subquery_triples_counted(self):
        f = features(
            "SELECT * WHERE { ?a <urn:p> ?b { SELECT ?x WHERE { ?x <urn:q> ?y } } }"
        )
        assert f.triple_count == 2


class TestProjection:
    def test_select_star_no_projection(self):
        assert features("SELECT * WHERE { ?s ?p ?o }").uses_projection is False

    def test_select_all_vars_no_projection(self):
        f = features("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        assert f.uses_projection is False

    def test_select_subset_projects(self):
        assert features("SELECT ?s WHERE { ?s ?p ?o }").uses_projection is True

    def test_ask_without_variables_no_projection(self):
        f = features("ASK { <urn:s> <urn:p> <urn:o> }")
        assert f.uses_projection is False

    def test_ask_with_variables_projects(self):
        assert features("ASK { ?s <urn:p> ?o }").uses_projection is True

    def test_bind_makes_indeterminate(self):
        f = features("SELECT ?s WHERE { ?s <urn:p> ?o BIND(?o AS ?b) }")
        # ?o is missing and not a Bind variable -> definite projection.
        assert f.uses_projection is True
        f2 = features("SELECT ?s ?o WHERE { ?s <urn:p> ?o BIND(1 AS ?b) }")
        # only the Bind variable ?b is missing -> indeterminate.
        assert f2.uses_projection is None

    def test_describe_is_not_projection(self):
        assert features("DESCRIBE ?x WHERE { ?x <urn:p> ?y }").uses_projection is False

    def test_select_or_ask_helper(self):
        assert features("ASK { ?s ?p ?o }").is_select_or_ask()
        assert not features("DESCRIBE <urn:x>").is_select_or_ask()
