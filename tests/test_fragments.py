"""Unit tests for §5.2 fragment classification (CQ/CPF/CQF/AOF/CQOF)."""

from repro.analysis import classify_fragments, query_facts
from repro.sparql import parse_query


def profile(text):
    return classify_fragments(query_facts(parse_query(text)))


def first_filter_simple(text):
    return query_facts(parse_query(text)).filters[0].simple


class TestCQ:
    def test_plain_bgp_is_cq(self):
        assert profile("ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }").is_cq

    def test_filter_not_cq(self):
        assert not profile("ASK { ?a <urn:p> ?b FILTER(?b > 1) }").is_cq

    def test_optional_not_cq(self):
        assert not profile("ASK { ?a <urn:p> ?b OPTIONAL { ?b <urn:q> ?c } }").is_cq

    def test_nested_groups_still_cq(self):
        assert profile("ASK { { ?a <urn:p> ?b } ?b <urn:q> ?c }").is_cq

    def test_path_not_cq(self):
        assert not profile("ASK { ?a <urn:p>* ?b }").is_cq

    def test_no_body_not_cq(self):
        assert not profile("DESCRIBE <urn:x>").is_cq


class TestFilters:
    def test_single_variable_filter_simple(self):
        assert first_filter_simple('ASK { ?a ?p ?b FILTER(lang(?b) = "en") }')

    def test_variable_equality_simple(self):
        assert first_filter_simple("ASK { ?a ?p ?b FILTER(?a = ?b) }")

    def test_two_variable_inequality_not_simple(self):
        assert not first_filter_simple("ASK { ?a ?p ?b FILTER(?a != ?b) }")

    def test_two_variable_less_than_not_simple(self):
        assert not first_filter_simple("ASK { ?a ?p ?b FILTER(?a < ?b) }")

    def test_exists_never_simple(self):
        assert not first_filter_simple(
            "ASK { ?a ?p ?b FILTER EXISTS { ?a <urn:q> 1 } }"
        )

    def test_cqf_requires_simple_filters(self):
        assert profile("ASK { ?a <urn:p> ?b FILTER(?b > 1) }").is_cqf
        assert not profile("ASK { ?a <urn:p> ?b FILTER(?a < ?b) }").is_cqf

    def test_cpf_allows_any_filter(self):
        assert profile("ASK { ?a <urn:p> ?b FILTER(?a < ?b) }").is_cpf


class TestAOF:
    def test_aof_with_all_three(self):
        assert profile(
            "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c "
            "OPTIONAL { ?c <urn:r> ?d } FILTER(?b != 1) }"
        ).is_aof

    def test_union_not_aof(self):
        assert not profile(
            "ASK { { ?a <urn:x> ?b } UNION { ?a <urn:y> ?b } }"
        ).is_aof

    def test_graph_not_aof(self):
        assert not profile("ASK { GRAPH <urn:g> { ?s ?p ?o } }").is_aof

    def test_nested_optionals_aof(self):
        assert profile(
            "ASK { ?a <urn:p> ?b OPTIONAL { ?b <urn:q> ?c "
            "OPTIONAL { ?c <urn:r> ?d } } }"
        ).is_aof


class TestCQOF:
    def test_paper_p1_is_cqof(self):
        p = profile(
            "SELECT * WHERE { ?A <urn:name> ?N "
            "OPTIONAL { ?A <urn:email> ?E } OPTIONAL { ?A <urn:webPage> ?W } }"
        )
        assert p.is_well_designed
        assert p.interface_width == 1
        assert p.is_cqof

    def test_paper_p2_is_cqof(self):
        p = profile(
            "SELECT * WHERE { ?A <urn:name> ?N "
            "OPTIONAL { ?A <urn:email> ?E OPTIONAL { ?A <urn:webPage> ?W } } }"
        )
        assert p.is_cqof

    def test_interface_width_two_excluded(self):
        p = profile(
            "SELECT * WHERE { ?A <urn:name> ?W "
            "OPTIONAL { ?A <urn:email> ?E } OPTIONAL { ?A <urn:webPage> ?W } }"
        )
        assert p.is_well_designed
        assert p.interface_width == 2
        assert not p.is_cqof

    def test_non_well_designed_excluded(self):
        p = profile(
            "SELECT * WHERE { ?A <urn:name> ?N "
            "OPTIONAL { ?A <urn:email> ?E } ?X <urn:other> ?E }"
        )
        assert not p.is_well_designed
        assert not p.is_cqof

    def test_plain_cq_is_cqof(self):
        p = profile("ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }")
        assert p.is_cq and p.is_cqf and p.is_cqof
        assert p.interface_width == 0

    def test_non_simple_filter_blocks_cqof(self):
        p = profile(
            "SELECT * WHERE { ?a <urn:p> ?b OPTIONAL { ?b <urn:q> ?c } "
            "FILTER(?a < ?b) }"
        )
        assert p.is_aof and p.is_well_designed
        assert not p.is_cqof

    def test_construct_never_in_fragments(self):
        p = profile("CONSTRUCT { ?s <urn:p> ?o } WHERE { ?s <urn:q> ?o }")
        assert not p.is_aof and not p.is_cq

    def test_fragment_nesting_invariant(self):
        # CQ ⊆ CQF ⊆ CQOF on a sample of queries.
        samples = [
            "ASK { ?a <urn:p> ?b }",
            "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }",
            'ASK { ?a <urn:p> ?b FILTER(lang(?b) = "en") }',
            "SELECT * WHERE { ?a <urn:p> ?b OPTIONAL { ?b <urn:q> ?c } }",
        ]
        for text in samples:
            p = profile(text)
            if p.is_cq:
                assert p.is_cqf, text
            if p.is_cqf:
                assert p.is_cqof, text
