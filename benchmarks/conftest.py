"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  The
corpus is generated once per session at ``REPRO_BENCH_SCALE`` times the
paper's Table 1 counts (default 1:50,000 — ~3,600 queries), processed
through the same clean/parse/dedup pipeline the paper describes, and
shared by all corpus-driven benches.

Benches print the measured rows next to the paper's published values so
EXPERIMENTS.md can be filled in mechanically.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
# The reference implementations (oracles.py) are shared with tests/.
sys.path.insert(1, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

import pytest

from _bench_utils import BENCH_SCALE, BENCH_SEED
from repro.analysis.study import study_corpus
from repro.logs import build_query_log
from repro.workload import bib_schema, generate_corpus, generate_graph


@pytest.fixture(scope="session")
def corpus_entries():
    return generate_corpus(scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def corpus_logs(corpus_entries):
    return {
        name: build_query_log(name, entries)
        for name, entries in corpus_entries.items()
    }


@pytest.fixture(scope="session")
def corpus_study(corpus_logs):
    return study_corpus(corpus_logs, dedup=True)


@pytest.fixture(scope="session")
def valid_corpus_study(corpus_logs):
    """The appendix corpus: duplicates retained (Tables 7–9)."""
    return study_corpus(corpus_logs, dedup=False)


@pytest.fixture(scope="session")
def figure3_graph():
    """The gMark Bib graph for the engine experiment (paper: 100k
    nodes; bench default keeps the nested-loop engine's timeouts in
    check while preserving the orderings)."""
    schema = bib_schema()
    n_nodes = int(os.environ.get("REPRO_BENCH_GRAPH_NODES", "1500"))
    return schema, generate_graph(schema, n_nodes, seed=BENCH_SEED)
