"""Analyzer-pass microbench: machine-readable per-pass timings.

Runs the profiled study twice over the session corpus — structural
cache enabled and disabled — and writes ``BENCH_passes.json`` (path
overridable via ``REPRO_BENCH_PASSES_JSON``) with per-pass wall time,
the cache hit rate, and the cached/uncached comparison.  The CI
bench-smoke job uploads the file as an artifact, so the perf
trajectory of the analysis hot path is recorded per commit instead of
scrolling away in job logs.

It also counts the query walks: every pass reads one ``QueryFacts``
record, so ``facts_walks`` may exceed ``queries`` only by the queries
whose SERVICE clauses were stripped (their raw form is walked once
more for Table 5).  CI gates that bound on the counts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from _bench_utils import banner
from repro.analysis import context
from repro.analysis.context import AnalysisOptions
from repro.analysis.study import study_corpus
from repro.sparql import walk


def profiled_run(corpus_logs, cache_size):
    study = study_corpus(
        corpus_logs, options=AnalysisOptions(profile=True, cache_size=cache_size)
    )
    return study.pass_profile


def service_stripped(corpus_logs):
    """Unique queries whose Wikidata view drops SERVICE clauses."""
    return sum(
        walk.strip_services(parsed.query) is not parsed.query
        for name, log in corpus_logs.items()
        if name.lower().startswith("wikidata")
        for parsed in log.unique_queries()
    )


def test_pass_profile_artifact(corpus_study, corpus_logs, monkeypatch):
    walks = []
    query_facts = context.query_facts

    def counting(query):
        walks.append(query)
        return query_facts(query)

    monkeypatch.setattr(context, "query_facts", counting)
    cached = profiled_run(corpus_logs, cache_size=4096)
    facts_walks = len(walks)
    uncached = profiled_run(corpus_logs, cache_size=0)
    stripped = service_stripped(corpus_logs)

    lookups = cached.cache_hits + cached.cache_misses
    payload = {
        "queries": cached.queries,
        "facts_walks": facts_walks,
        "service_stripped": stripped,
        "passes": {
            name: round(seconds, 6)
            for name, seconds in sorted(cached.seconds.items())
        },
        "total_seconds": round(cached.total_seconds, 6),
        "uncached_total_seconds": round(uncached.total_seconds, 6),
        "cache": {
            "hits": cached.cache_hits,
            "misses": cached.cache_misses,
            "hit_rate": round(cached.cache_hit_rate, 4),
        },
    }
    out_path = Path(os.environ.get("REPRO_BENCH_PASSES_JSON", "BENCH_passes.json"))
    # Merge key-wise: other benches (the Table 6 streak comparison)
    # contribute their own top-level keys to the same artifact.
    if out_path.exists():
        merged = json.loads(out_path.read_text(encoding="utf-8"))
        merged.update(payload)
        payload = merged
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    banner("Analyzer passes: per-pass wall time (cache on)")
    for name, seconds in sorted(
        cached.seconds.items(), key=lambda item: item[1], reverse=True
    ):
        print(f"  {name:<10} {seconds:8.4f}s")
    print(
        f"  cache: {cached.cache_hits}/{lookups} hits "
        f"({100.0 * cached.cache_hit_rate:.1f}%), "
        f"total {cached.total_seconds:.4f}s vs "
        f"{uncached.total_seconds:.4f}s uncached"
    )
    print(
        f"  facts walks: {facts_walks} for {cached.queries} queries "
        f"({stripped} SERVICE-stripped)"
    )
    print(f"  wrote {out_path}")

    # The profiled pipeline measured the whole unique stream, and the
    # shared fixture study proves the numbers came from the same corpus.
    assert cached.queries == sum(
        stats.queries for stats in corpus_study.datasets.values()
    )
    assert set(cached.seconds) == {
        "shallow", "paths", "operators", "fragments", "structure",
    }
    assert lookups > 0
    assert cached.queries <= facts_walks <= cached.queries + stripped
    assert out_path.exists()
