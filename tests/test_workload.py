"""Unit tests for schema, graph generation, and query workloads."""

import pytest

from repro.analysis import canonical_graph, classify_shape, query_facts
from repro.exceptions import WorkloadError
from repro.rdf import IRI
from repro.sparql import parse_query
from repro.workload import (
    DegreeDistribution,
    GraphSchema,
    Predicate,
    chain_query,
    cycle_query,
    flower_query,
    generate_graph,
    generate_workload,
    star_chain_query,
    star_query,
)


class TestDegreeDistribution:
    def test_constant(self):
        import random

        dist = DegreeDistribution("constant", 3, 3)
        assert dist.sample(random.Random(0)) == 3

    def test_uniform_bounds(self):
        import random

        dist = DegreeDistribution("uniform", 1, 5)
        rng = random.Random(0)
        samples = [dist.sample(rng) for _ in range(200)]
        assert min(samples) >= 1 and max(samples) <= 5

    def test_zipfian_bounds_and_skew(self):
        import random

        dist = DegreeDistribution("zipfian", 0, 20)
        rng = random.Random(0)
        samples = [dist.sample(rng) for _ in range(500)]
        assert min(samples) >= 0 and max(samples) <= 20
        # Zipfian: most samples are small.
        assert sum(1 for s in samples if s <= 2) > len(samples) / 2

    def test_invalid_kind(self):
        with pytest.raises(WorkloadError):
            DegreeDistribution("gaussianish", 0, 5)

    def test_invalid_bounds(self):
        with pytest.raises(WorkloadError):
            DegreeDistribution("uniform", 5, 2)


class TestSchema:
    def test_bib_schema_valid(self, schema):
        assert abs(sum(schema.node_types.values()) - 1.0) < 1e-9
        assert schema.predicate("cites").source == "Paper"

    def test_bad_proportions_rejected(self):
        with pytest.raises(WorkloadError):
            GraphSchema("urn:x/", {"A": 0.5, "B": 0.2})

    def test_unknown_predicate_type_rejected(self):
        with pytest.raises(WorkloadError):
            GraphSchema(
                "urn:x/",
                {"A": 1.0},
                [Predicate("p", "A", "Nope", DegreeDistribution("constant", 1, 1))],
            )

    def test_steps_from_includes_reverse(self, schema):
        steps = schema.steps_from("Journal")
        # Journal has no outgoing predicates but two incoming.
        assert steps
        assert all(reverse for _, reverse, _ in steps)

    def test_unknown_predicate_lookup(self, schema):
        with pytest.raises(WorkloadError):
            schema.predicate("nothere")


class TestGraphGeneration:
    def test_deterministic(self, schema):
        g1 = generate_graph(schema, 100, seed=5)
        g2 = generate_graph(schema, 100, seed=5)
        assert set(g1) == set(g2)

    def test_different_seeds_differ(self, schema):
        g1 = generate_graph(schema, 100, seed=5)
        g2 = generate_graph(schema, 100, seed=6)
        assert set(g1) != set(g2)

    def test_type_triples_present(self, schema):
        graph = generate_graph(schema, 50, seed=0)
        type_predicate = IRI(schema.namespace + "type")
        assert graph.count_matches(p=type_predicate) >= 50 * 0.9

    def test_edges_respect_types(self, schema):
        graph = generate_graph(schema, 80, seed=1)
        cites = IRI(schema.namespace + "cites")
        for triple in graph.match(p=cites):
            assert "/paper/" in triple.subject.value
            assert "/paper/" in triple.object.value

    def test_invalid_size(self, schema):
        with pytest.raises(WorkloadError):
            generate_graph(schema, 0)


class TestQueryShapes:
    def shape_of(self, text):
        return classify_shape(canonical_graph(query_facts(parse_query(text))))

    @pytest.mark.parametrize("length", [1, 3, 5, 8])
    def test_chain_queries(self, schema, length):
        q = chain_query(schema, length, seed=length)
        profile = self.shape_of(q.text)
        assert profile.chain
        assert q.length == length

    @pytest.mark.parametrize("length", [3, 4, 6, 8])
    def test_cycle_queries(self, schema, length):
        q = cycle_query(schema, length, seed=length)
        profile = self.shape_of(q.text)
        assert profile.cycle
        assert profile.shortest_cycle == length

    def test_star_queries(self, schema):
        q = star_query(schema, 4, seed=2)
        assert self.shape_of(q.text).star

    def test_star_chain_is_tree(self, schema):
        q = star_chain_query(schema, 3, 3, seed=2)
        profile = self.shape_of(q.text)
        assert profile.tree and not profile.chain

    def test_flower_query(self, schema):
        q = flower_query(schema, petals=2, stamens=2, petal_length=2, seed=3)
        profile = self.shape_of(q.text)
        assert profile.flower and not profile.tree

    def test_select_form(self, schema):
        q = chain_query(schema, 3, seed=1, query_form="SELECT")
        parsed = parse_query(q.text)
        assert parsed.query_type.value == "SELECT"

    def test_chain_length_validation(self, schema):
        with pytest.raises(WorkloadError):
            chain_query(schema, 0)

    def test_cycle_length_validation(self, schema):
        with pytest.raises(WorkloadError):
            cycle_query(schema, 2)

    def test_workload_size_and_determinism(self, schema):
        w1 = generate_workload(schema, "chain", 4, 10, seed=1)
        w2 = generate_workload(schema, "chain", 4, 10, seed=1)
        assert len(w1) == 10
        assert [q.text for q in w1] == [q.text for q in w2]

    def test_workload_unknown_shape(self, schema):
        with pytest.raises(WorkloadError):
            generate_workload(schema, "moebius", 4, 10)

    def test_workload_queries_all_parse(self, schema):
        for shape, length in (("chain", 5), ("cycle", 5), ("star", 5)):
            for q in generate_workload(schema, shape, length, 5, seed=4):
                parse_query(q.text)  # must not raise
