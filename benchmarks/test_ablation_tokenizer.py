"""Ablation — the SPARQL lexer vs its character-by-character reference.

Table 1's validity check tokenizes every distinct logged query.  The
lexer (:func:`repro.sparql.tokenize`) takes each token with one match
of a compiled pattern; the reference (``tests/oracles.py``) walks a
cursor one character at a time.  This bench runs both over the distinct
queries of the bench corpus and appends a ``tokenizer`` row to
``BENCH_ablation.json``: how many texts came out identical (the same
tokens with the same positions, or the same error at the same place)
and how long each lexer took.  CI asserts the identity count only; the
speedup is printed, never gated.
"""

from __future__ import annotations

import time

from _bench_utils import banner, record_ablation
from oracles import tokenize_reference

from repro.exceptions import SparqlSyntaxError
from repro.sparql import tokenize


def _lex_all(lexer, texts):
    """Each text's tokens or (message, line, column) error, and the seconds taken."""
    started = time.perf_counter()
    results = []
    for text in texts:
        try:
            results.append(lexer(text))
        except SparqlSyntaxError as error:
            results.append((str(error), error.line, error.column))
    return results, time.perf_counter() - started


def _fields(result):
    if isinstance(result, tuple):
        return result
    return [(token.type, token.value, token.line, token.column) for token in result]


def test_ablation_tokenizer(corpus_entries):
    texts = sorted({text for entries in corpus_entries.values() for text in entries})
    reference, oracle_seconds = _lex_all(tokenize_reference, texts)
    ours, new_seconds = _lex_all(tokenize, texts)
    identical = sum(_fields(a) == _fields(b) for a, b in zip(ours, reference))
    speedup = oracle_seconds / new_seconds if new_seconds > 0 else float("inf")

    banner("Ablation: master-pattern lexer vs character-by-character reference")
    print(f"reference: {oracle_seconds * 1e3:9.1f} ms over {len(texts)} distinct texts")
    print(f"lexer:     {new_seconds * 1e3:9.1f} ms")
    print(f"speedup:   {speedup:9.2f}x")
    print(f"identical: {identical} of {len(texts)}")

    assert identical == len(texts)
    record_ablation(
        {
            "name": "tokenizer",
            "texts": len(texts),
            "identical_tokens": identical,
            "oracle_seconds": round(oracle_seconds, 6),
            "new_seconds": round(new_seconds, 6),
            "speedup": round(speedup, 2),
        }
    )
