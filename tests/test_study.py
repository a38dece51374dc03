"""Unit tests for the corpus study driver."""

import pytest

from repro.analysis import study as study_module
from repro.analysis.study import study_corpus
from repro.logs import build_query_log


def study_of(queries, name="test", dedup=True):
    log = build_query_log(name, queries)
    return study_corpus({name: log}, dedup=dedup)


class TestKeywordAccounting:
    def test_keyword_table(self):
        study = study_of(
            [
                "SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y } LIMIT 5",
                "ASK { ?s <urn:p> ?o . ?o <urn:q> ?z }",
            ]
        )
        table = dict((k, a) for k, a, _ in study.keyword_table())
        assert table["Select"] == 1
        assert table["Ask"] == 1
        assert table["Distinct"] == 1
        assert table["Limit"] == 1
        assert table["And"] == 1

    def test_dedup_vs_valid_weighting(self):
        queries = ["SELECT * WHERE { ?s ?p ?o }"] * 4 + ["ASK { ?a <urn:p> ?b }"]
        unique_study = study_of(queries, dedup=True)
        valid_study = study_of(queries, dedup=False)
        assert unique_study.query_count == 2
        assert valid_study.query_count == 5
        assert valid_study.keyword_counts["Select"] == 4

    def test_no_body_counted(self):
        study = study_of(["DESCRIBE <urn:x>"])
        assert study.no_body_count == 1


class TestOperatorAccounting:
    def test_table3_rows(self):
        study = study_of(
            [
                "SELECT * WHERE { ?s <urn:p> ?o }",  # none
                "SELECT * WHERE { ?s <urn:p> ?o FILTER(?o > 1) }",  # F
                "SELECT * WHERE { ?s <urn:p> ?o . ?o <urn:q> ?z }",  # A
                "SELECT * WHERE { ?s <urn:p>* ?o }",  # other features
            ]
        )
        table = {label: count for label, count, _ in study.operator_table()}
        assert table["none"] == 1
        assert table["F"] == 1
        assert table["A"] == 1
        assert table["CPF subtotal"] == 3
        assert study.operator_other_features == 1

    def test_cpf_plus_increments(self):
        study = study_of(
            [
                "SELECT * WHERE { ?s <urn:p> ?o OPTIONAL { ?o <urn:q> ?z } }",
                "SELECT * WHERE { GRAPH <urn:g> { ?s <urn:p> ?o } }",
            ]
        )
        opt_increment, _ = study.cpf_plus("O")
        graph_increment, _ = study.cpf_plus("G")
        union_increment, _ = study.cpf_plus("U")
        assert opt_increment == 1
        assert graph_increment == 1
        assert union_increment == 0


class TestProjectionAccounting:
    def test_bounds(self):
        study = study_of(
            [
                "SELECT ?s WHERE { ?s <urn:p> ?o }",  # projects
                "SELECT * WHERE { ?s <urn:p> ?o }",  # no
                "SELECT ?s ?o WHERE { ?s <urn:p> ?o BIND(1 AS ?b) }",  # indeterminate
                "ASK { <urn:a> <urn:b> <urn:c> }",  # no (no vars)
            ]
        )
        low, high = study.projection_bounds()
        assert low == pytest.approx(25.0)
        assert high == pytest.approx(50.0)

    def test_subquery_count(self):
        study = study_of(
            ["SELECT * WHERE { { SELECT ?x WHERE { ?x <urn:p> ?y } } }"]
        )
        assert study.subquery_count == 1


class TestStructureAccounting:
    def test_fragments_and_shapes(self):
        study = study_of(
            [
                "ASK { ?a <urn:p> ?b }",  # single edge CQ
                "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }",  # chain CQ
                "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }",  # cycle
            ]
        )
        assert study.aof_count == 3
        assert study.cq_count == 3
        assert study.cqof_count == 3
        cq_shapes = study.shape_counts["CQ"]
        assert cq_shapes["single edge"] == 1
        assert cq_shapes["chain"] == 2
        assert cq_shapes["cycle"] == 1
        assert cq_shapes["flower set"] == 3
        assert study.treewidth_counts["CQ"][1] == 2
        assert study.treewidth_counts["CQ"][2] == 1
        assert study.girth_hist[3] == 1

    def test_shape_table_has_treewidth_rows(self):
        study = study_of(["ASK { ?a <urn:p> ?b }"])
        rows = dict((label, count) for label, count, _ in study.shape_table("CQ"))
        assert rows["treewidth <= 2"] == 1
        assert rows["treewidth = 3"] == 0
        assert rows["total"] == 1

    def test_constants_tracking(self):
        study = study_of(
            [
                "ASK { ?a <urn:p> <urn:const> }",
                "ASK { ?a <urn:p> ?b }",
            ]
        )
        assert study.single_edge_cq == 2
        assert study.single_edge_cq_with_constants == 1

    def test_predicate_variable_hypergraph(self):
        study = study_of(
            [
                "ASK { ?a ?p ?b . ?b <urn:q> ?c }",  # acyclic, hw 1
                "ASK WHERE { ?x1 ?x2 ?x3 . ?x3 <urn:a> ?x4 . ?x4 ?x2 ?x5 }",  # hw 2
            ]
        )
        assert study.predicate_variable_cqof == 2
        assert study.hypertree_widths[1] == 1
        assert study.hypertree_widths[2] == 1

    def test_cq_size_histograms(self):
        study = study_of(
            [
                "ASK { ?a <urn:p> ?b }",
                "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }",
            ]
        )
        assert study.cq_sizes[1] == 1
        assert study.cq_sizes[2] == 1


class TestPathAccounting:
    def test_path_taxonomy(self):
        study = study_of(
            [
                "ASK { ?s !<urn:a> ?o }",
                "ASK { ?s <urn:a>* ?o }",
                "ASK { ?s (<urn:a>/<urn:b>)* ?o }",
            ]
        )
        assert study.property_path_total == 3
        assert study.simple_path_forms["!a"] == 1
        assert study.path_types["a*"] == 1
        assert study.path_types["(a/b)*"] == 1
        assert study.non_ctract  # (a/b)* recorded

    def test_wikidata_service_stripped(self):
        queries = [
            "SELECT * WHERE { ?s <urn:p> ?o "
            "SERVICE <urn:wikibase:label> { ?o <urn:l> ?l } }"
        ]
        log = build_query_log("WikiData17", queries)
        study = study_corpus({"WikiData17": log})
        # After stripping, the query is a plain 1-triple Select: pure.
        assert study.operator_other_features == 0


class TestDatasetStats:
    def test_per_dataset_histograms(self):
        study = study_of(
            [
                "SELECT * WHERE { ?s <urn:p> ?o }",
                "SELECT * WHERE { ?s <urn:p> ?o . ?o <urn:q> ?z }",
                "DESCRIBE <urn:x>",
            ]
        )
        stats = study.datasets["test"]
        assert stats.queries == 3
        assert stats.select_ask == 2
        assert stats.select_ask_share == pytest.approx(2 / 3)
        buckets = stats.triple_hist_percentages()
        assert buckets["1"] == pytest.approx(50.0)
        assert buckets["2"] == pytest.approx(50.0)
        assert stats.average_triples == pytest.approx(1.0)


class TestRemovedShims:
    def test_removed_shims_are_gone(self):
        # 2.0 dropped the pre-pass-framework aliases; a lookup of any of
        # them (or of an unknown name) is a plain AttributeError.
        for name in ("_SHAPE_NODE_LIMIT", "_NON_CTRACT_LIMIT", "_analyze_query",
                     "_NO_SUCH_ALIAS"):
            with pytest.raises(AttributeError):
                getattr(study_module, name)
