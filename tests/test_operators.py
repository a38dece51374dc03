"""Unit tests for Table 3 operator-set classification."""

from repro.analysis import classify_fragments, classify_operators, query_facts
from repro.analysis.operators import TABLE3_ROWS
from repro.sparql import parse_query


def classify(text):
    return classify_operators(query_facts(parse_query(text)))


class TestOperatorSets:
    def test_none(self):
        c = classify("SELECT * WHERE { ?s <urn:p> ?o }")
        assert c.operators == frozenset()
        assert c.pure

    def test_bodyless_query_is_none(self):
        c = classify("DESCRIBE <urn:x>")
        assert c.operators == frozenset() and c.pure

    def test_filter_only(self):
        c = classify("SELECT * WHERE { ?s <urn:p> ?o FILTER(?o > 1) }")
        assert c.letters == frozenset("F")

    def test_and_only(self):
        c = classify("SELECT * WHERE { ?s <urn:p> ?o . ?o <urn:q> ?z }")
        assert c.letters == frozenset("A")

    def test_and_filter(self):
        c = classify(
            "SELECT * WHERE { ?s <urn:p> ?o . ?o <urn:q> ?z FILTER(?z = 1) }"
        )
        assert c.letters == frozenset("AF")

    def test_full_aouf(self):
        c = classify(
            "SELECT * WHERE { ?s <urn:p> ?o . ?o <urn:q> ?z "
            "OPTIONAL { ?z <urn:r> ?w } "
            "{ ?s <urn:x> ?a } UNION { ?s <urn:y> ?a } FILTER(?o != 1) }"
        )
        assert c.letters == frozenset("AOUF")
        assert c.pure

    def test_graph(self):
        c = classify("SELECT * WHERE { GRAPH <urn:g> { ?s ?p ?o } }")
        assert c.letters == frozenset("G")

    def test_property_path_impure(self):
        c = classify("SELECT * WHERE { ?s <urn:p>* ?o }")
        assert not c.pure

    def test_bind_impure(self):
        assert not classify("SELECT * WHERE { ?s ?p ?o BIND(1 AS ?x) }").pure

    def test_minus_impure(self):
        assert not classify(
            "SELECT * WHERE { ?s ?p ?o MINUS { ?s <urn:q> ?o } }"
        ).pure

    def test_subquery_impure(self):
        assert not classify(
            "SELECT * WHERE { { SELECT ?x WHERE { ?x <urn:p> ?y } } }"
        ).pure

    def test_exists_filter_impure(self):
        c = classify("SELECT * WHERE { ?s ?p ?o FILTER EXISTS { ?s <urn:q> ?z } }")
        assert not c.pure

    def test_values_impure(self):
        assert not classify("SELECT * WHERE { VALUES ?x { 1 } ?x <urn:p> ?y }").pure


class TestCPF:
    # CPF has one definition, the fragment classifier's (§5.2); the
    # paper's CPF+O / CPF+G / CPF+U increments are Table 3 letter sets.
    def test_cpf_membership(self):
        def cpf(text):
            return classify_fragments(query_facts(parse_query(text))).is_cpf

        assert cpf("SELECT * WHERE { ?s <urn:p> ?o }")
        assert cpf(
            "SELECT * WHERE { ?s <urn:p> ?o . ?o <urn:q> ?z FILTER(?z > 1) }"
        )
        assert not cpf("SELECT * WHERE { ?s ?p ?o OPTIONAL { ?o <urn:q> ?z } }")

    def test_cpf_plus_opt(self):
        c = classify(
            "SELECT * WHERE { ?s <urn:p> ?o OPTIONAL { ?o <urn:q> ?z } }"
        )
        assert c.pure and c.letters == frozenset("AO")

    def test_cpf_plus_excludes_mixed(self):
        c = classify(
            "SELECT * WHERE { ?s <urn:p> ?o OPTIONAL { ?o <urn:q> ?z } "
            "{ ?s <urn:a> ?b } UNION { ?s <urn:c> ?b } }"
        )
        assert c.pure and c.letters == frozenset("AOU")


class TestTable3Rows:
    def test_row_count_matches_paper(self):
        # 14 operator-set rows (incl. "none"), as in Table 3.
        assert len(TABLE3_ROWS) == 14

    def test_nested_groups_of_one_do_not_count_as_and(self):
        c = classify("SELECT * WHERE { { ?s <urn:p> ?o } }")
        assert c.letters == frozenset()

    def test_union_branches_with_single_triples(self):
        c = classify(
            "SELECT * WHERE { { ?s <urn:a> ?o } UNION { ?s <urn:b> ?o } }"
        )
        assert c.letters == frozenset("U")
