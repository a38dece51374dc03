"""Failure-injection tests: every layer must fail loudly and precisely,
or absorb exactly the failures its contract says it absorbs."""

import pytest

from repro.engine import IndexedEngine
from repro.exceptions import (
    EvaluationError,
    ReproError,
    SparqlSyntaxError,
    WorkloadError,
)
from repro.logs import build_query_log
from repro.rdf import IRI, Graph, Literal, Triple, Variable
from repro.sparql import parse_query
from repro.sparql.parser import MAX_NESTING_DEPTH


class TestExceptionHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc_type in (SparqlSyntaxError, EvaluationError, WorkloadError):
            assert issubclass(exc_type, ReproError)

    def test_catching_base_class_at_pipeline_boundary(self):
        try:
            parse_query("SELECT {")
        except ReproError:
            pass  # the pipeline catches this one type
        else:
            pytest.fail("expected ReproError")


class TestPipelineRobustness:
    def test_pipeline_survives_garbage(self):
        garbage = [
            "",
            "\x00\x01\x02",
            "{" * 50,
            "SELECT " + "?" * 100,
            "PREFIX : <urn:> " * 100,
            "ASK { " + "?a <urn:p> ?b . " * 500 + "}",  # large but valid
            "💥 unicode junk 💥",
        ]
        log = build_query_log("junk", garbage)
        assert log.total == len(garbage)
        assert log.valid == 1  # only the big valid ASK

    def test_deeply_nested_groups_do_not_crash(self):
        depth = 150
        text = "ASK " + "{" * depth + " ?s <urn:p> ?o " + "}" * depth
        # Past the nesting limit: a syntax error that names the limit,
        # on every Python version and stack size.
        with pytest.raises(SparqlSyntaxError, match=f"limit of {MAX_NESTING_DEPTH} levels"):
            parse_query(text)
        log = build_query_log("deep", [text])
        assert (log.total, log.valid) == (1, 0)

    def test_pathological_long_line(self):
        text = "ASK { ?s <urn:p> \"" + "x" * 100_000 + "\" }"
        log = build_query_log("long", [text])
        assert log.valid == 1


class TestEngineRobustness:
    def test_engine_rejects_malformed_query_text(self, social_graph):
        engine = IndexedEngine(social_graph)
        with pytest.raises(SparqlSyntaxError):
            engine.evaluate("SELECT {")

    def test_bind_rebinding_raises(self, social_graph):
        engine = IndexedEngine(social_graph)
        with pytest.raises(EvaluationError):
            engine.evaluate(
                "SELECT * WHERE { ?x <urn:name> ?n BIND(1 AS ?n) }"
            )

    def test_empty_graph_queries(self):
        engine = IndexedEngine(Graph())
        assert engine.evaluate("SELECT * WHERE { ?s ?p ?o }") == []
        assert engine.evaluate("ASK { ?s ?p ?o }") is False
        # Empty body over an empty graph: the empty solution matches.
        assert engine.evaluate("ASK { }") is True

    def test_cartesian_product_query(self, social_graph):
        # Disconnected BGP = cartesian product; must compute, not crash.
        engine = IndexedEngine(social_graph)
        rows = engine.evaluate(
            "SELECT * WHERE { ?a <urn:name> ?n . ?x <urn:age> ?v }"
        )
        assert len(rows) == 3 * 2

    def test_unbound_order_by_sorts_first(self, social_graph):
        engine = IndexedEngine(social_graph)
        rows = engine.evaluate(
            "SELECT ?x ?a WHERE { ?x <urn:name> ?n "
            "OPTIONAL { ?x <urn:age> ?a } } ORDER BY ?a"
        )
        assert Variable("a") not in rows[0]  # unbound first


class TestGraphStoreEdgeCases:
    def test_self_loop_triples(self):
        g = Graph()
        node = IRI("urn:n")
        g.add(Triple(node, IRI("urn:p"), node))
        assert g.count_matches(s=node) == 1
        assert g.count_matches(o=node) == 1
        g.remove(Triple(node, IRI("urn:p"), node))
        assert len(g) == 0
        assert list(g.match(s=node)) == []

    def test_literal_with_odd_characters(self):
        g = Graph()
        lit = Literal('quote " backslash \\ newline \n tab \t')
        g.add(Triple(IRI("urn:s"), IRI("urn:p"), lit))
        assert g.count_matches(o=lit) == 1

    def test_massive_fanout_node(self):
        g = Graph()
        hub = IRI("urn:hub")
        p = IRI("urn:p")
        for i in range(2000):
            g.add(Triple(hub, p, IRI(f"urn:o{i}")))
        assert g.count_matches(s=hub, p=p) == 2000
        assert len(list(g.match(s=hub))) == 2000
