"""Structural-signature cache: transparency, LRU bounds, signatures.

The cache must be invisible in the results — every test here asserts
that enabling it (any capacity, any eviction pressure, any weighting)
produces a :class:`CorpusStudy` equal to the cache-disabled run — while
the hit counters prove it actually engaged.
"""

from repro.analysis.context import (
    AnalysisOptions,
    StructureCache,
    graph_signature,
    hypergraph_signature,
)
from repro.analysis.incremental import WatchSession
from repro.analysis.parallel import measure_chunk, study_corpus_parallel
from repro.analysis.study import study_corpus
from repro.logs import build_query_log
from repro.reporting import render_report
from repro.sparql import parse_query

#: Templated two-triple CQs differing only in their constant: one
#: structural shape, many distinct queries — the redundancy the cache
#: exists to exploit.
TEMPLATED = [
    f"SELECT * WHERE {{ ?a <urn:p> <urn:c{i}> . ?a <urn:q> ?b }}"
    for i in range(12)
]

#: Predicate-variable CQOF queries sharing one hypergraph template
#: (the constant predicate differs; constants are not hypergraph nodes).
TEMPLATED_HYPER = [
    f"ASK {{ ?a ?p ?b . ?b <urn:k{i}> ?c }}" for i in range(8)
]

#: Structurally distinct queries (different shapes/treewidths) to churn
#: a tiny LRU.
DISTINCT_SHAPES = [
    "ASK { ?a <urn:p> ?b }",
    "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }",
    "ASK { ?a <urn:p> ?b . ?b <urn:q> ?c . ?c <urn:r> ?a }",
    "ASK { ?a <urn:p> ?b . ?a <urn:q> ?c . ?a <urn:r> ?d }",
    "ASK { ?a <urn:p> ?a }",
]


def study_with(queries, cache_size, dedup=True, name="d"):
    log = build_query_log(name, queries)
    options = AnalysisOptions(cache_size=cache_size)
    return study_corpus({name: log}, dedup=dedup, options=options)


def graph_of(text):
    from repro.analysis import canonical_graph, query_facts

    return canonical_graph(query_facts(parse_query(text)))


def hypergraph_of(text):
    from repro.analysis import canonical_hypergraph, query_facts

    return canonical_hypergraph(query_facts(parse_query(text)))


class TestCacheTransparency:
    def test_unique_corpus_cached_equals_uncached(self):
        queries = TEMPLATED + DISTINCT_SHAPES + TEMPLATED_HYPER
        cached = study_with(queries, cache_size=4096)
        uncached = study_with(queries, cache_size=0)
        assert cached == uncached
        assert render_report(cached, "text") == render_report(uncached, "text")

    def test_valid_corpus_weights_cached_equals_uncached(self):
        # weight != 1: duplicates keep their multiplicity (appendix
        # corpus) — cached structure results must multiply correctly.
        queries = (
            TEMPLATED * 3 + DISTINCT_SHAPES * 2 + TEMPLATED_HYPER + TEMPLATED[:4]
        )
        cached = study_with(queries, cache_size=4096, dedup=False)
        uncached = study_with(queries, cache_size=0, dedup=False)
        assert cached.query_count == len(queries)
        assert cached == uncached

    def test_tiny_lru_capacity_eviction(self):
        # Capacity 2 with 5+ live shapes: constant eviction churn must
        # not change a single counter.
        queries = (DISTINCT_SHAPES + TEMPLATED[:6] + TEMPLATED_HYPER[:4]) * 3
        cached = study_with(queries, cache_size=2)
        uncached = study_with(queries, cache_size=0)
        assert cached == uncached

    def test_collapsed_single_chunk_run_still_caches(self):
        # workers > 1 but the stream fits one chunk: the driver runs it
        # in-process against its run-local structural cache, so caching
        # still happens (and profiling sees its lookups).
        log = build_query_log("d", TEMPLATED)
        options = AnalysisOptions(profile=True)
        study = study_corpus_parallel(
            {"d": log}, workers=4, chunk_size=10_000, options=options
        )
        profile = study.pass_profile
        assert profile is not None
        assert profile.cache_hits + profile.cache_misses > 0
        assert profile.cache_hits == len(TEMPLATED) - 1
        assert study == study_with(TEMPLATED, cache_size=0)

    def test_parallel_workers_with_cache_match_serial(self):
        queries = TEMPLATED + DISTINCT_SHAPES + TEMPLATED_HYPER
        log = build_query_log("d", queries)
        options = AnalysisOptions(cache_size=3)
        serial = study_corpus({"d": log}, options=AnalysisOptions(cache_size=0))
        sharded = study_corpus_parallel(
            {"d": log}, workers=2, chunk_size=4, options=options
        )
        assert sharded == serial


class TestCacheEngagement:
    def test_templated_graphs_hit(self):
        log = build_query_log("d", TEMPLATED)
        cache = StructureCache()
        measure_chunk("d", log.unique_queries(), cache=cache)
        # First shape computes, the rest of the template family hits.
        assert cache.misses == 1
        assert cache.hits == len(TEMPLATED) - 1

    def test_templated_hypergraphs_hit(self):
        log = build_query_log("d", TEMPLATED_HYPER)
        cache = StructureCache()
        measure_chunk("d", log.unique_queries(), cache=cache)
        assert cache.misses == 1
        assert cache.hits == len(TEMPLATED_HYPER) - 1

    def test_disabled_cache_never_engages(self):
        log = build_query_log("d", TEMPLATED)
        cache = StructureCache(capacity=0)
        measure_chunk(
            "d", log.unique_queries(), options=AnalysisOptions(cache_size=0),
            cache=cache,
        )
        assert cache.hits == 0
        assert cache.misses == 0
        assert len(cache) == 0

    def test_watch_cycles_share_one_cache(self, tmp_path):
        # The second cycle meets the first cycle's shape in a new text.
        log = tmp_path / "day.log"
        log.write_text(TEMPLATED[0] + "\n")
        session = WatchSession([str(log)], tmp_path / "state")
        session.cycle(drain=False)
        assert session._structures.hits == 0
        with log.open("a") as handle:
            handle.write(TEMPLATED[1] + "\n")
        session.cycle()
        assert session._structures.hits == 1

    def test_lru_evicts_least_recently_used(self):
        cache = StructureCache(capacity=2)
        cache.put(("g", 1), "a")
        cache.put(("g", 2), "b")
        assert cache.get(("g", 1)) == "a"  # 1 becomes most recent
        cache.put(("g", 3), "c")  # evicts 2
        assert cache.get(("g", 2)) is None
        assert cache.get(("g", 1)) == "a"
        assert cache.get(("g", 3)) == "c"
        assert len(cache) == 2


class TestSignatures:
    def test_constant_values_are_abstracted(self):
        a = graph_of("SELECT * WHERE { ?a <urn:p> <urn:c1> . ?a <urn:q> ?b }")
        b = graph_of("SELECT * WHERE { ?x <urn:p> <urn:c2> . ?x <urn:q> ?y }")
        assert graph_signature(a) == graph_signature(b)

    def test_variable_vs_constant_endpoint_differs(self):
        a = graph_of("ASK { ?a <urn:p> ?b }")
        b = graph_of("ASK { ?a <urn:p> <urn:const> }")
        assert graph_signature(a) != graph_signature(b)

    def test_structure_differs(self):
        chain = graph_of("ASK { ?a <urn:p> ?b . ?b <urn:q> ?c }")
        star = graph_of("ASK { ?a <urn:p> ?b . ?a <urn:q> ?c }")
        assert graph_signature(chain) != graph_signature(star)

    def test_multiplicity_and_loops_matter(self):
        single = graph_of("ASK { ?a <urn:p> ?b }")
        parallel = graph_of("ASK { ?a <urn:p> ?b . ?a <urn:q> ?b }")
        loop = graph_of("ASK { ?a <urn:p> ?a }")
        signatures = {
            graph_signature(g) for g in (single, parallel, loop)
        }
        assert len(signatures) == 3

    def test_hypergraph_constant_predicates_abstracted(self):
        a = hypergraph_of("ASK { ?a ?p ?b . ?b <urn:k1> ?c }")
        b = hypergraph_of("ASK { ?a ?p ?b . ?b <urn:k2> ?c }")
        assert hypergraph_signature(a) == hypergraph_signature(b)

    def test_hypergraph_structure_differs(self):
        a = hypergraph_of("ASK { ?a ?p ?b . ?b <urn:k> ?c }")
        b = hypergraph_of("ASK { ?a ?p ?b . ?c <urn:k> ?d }")
        assert hypergraph_signature(a) != hypergraph_signature(b)
