"""Unit tests for Levenshtein distance and streak detection (§8).

The hand-built streams of :class:`TestStreakDetection` run through both
the serial reference scan (``tests/oracles.py``) and the product
scanner, :class:`~repro.analysis.streaks.StreakAccumulator`, fed
serially and stitched from two chunks at every cut point.
"""

import pytest

from oracles import streak_histogram_reference, streaks_reference
from repro.analysis import levenshtein, strip_prefixes
from repro.analysis.streaks import (
    PreparedText,
    StreakAccumulator,
    prepared_similar,
)


def similar(text_a, text_b):
    """The paper's similarity test on two raw query texts."""
    return prepared_similar(
        PreparedText.from_raw(text_a), PreparedText.from_raw(text_b)
    )


def accumulate(queries, window):
    accumulator = StreakAccumulator(window=window)
    for text in queries:
        accumulator.push(text)
    return accumulator


def scan(queries, window):
    """The reference streaks of *queries*, after checking that the
    accumulator agrees with them fed serially and split at every cut."""
    streaks = streaks_reference(queries, window=window)
    histogram = streak_histogram_reference(queries, window=window)
    serial = accumulate(queries, window)
    for cut in range(len(queries) + 1):
        stitched = accumulate(queries[:cut], window)
        stitched.merge(accumulate(queries[cut:], window))
        assert stitched == serial, cut
        assert stitched.to_dict() == serial.to_dict(), cut
    assert serial.length_histogram() == histogram
    assert serial.streak_count == len(streaks)
    assert serial.longest == max((len(s) for s in streaks), default=0)
    return streaks


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_classic_example(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_strings(self):
        assert levenshtein("", "") == 0
        assert levenshtein("", "abc") == 3

    def test_symmetry(self):
        assert levenshtein("flaw", "lawn") == levenshtein("lawn", "flaw")

    def test_banded_equals_full_within_budget(self):
        pairs = [("kitten", "sitting"), ("abcdef", "azcdef"), ("x", "xy")]
        for a, b in pairs:
            full = levenshtein(a, b)
            banded = levenshtein(a, b, max_distance=full)
            assert banded == full

    def test_banded_gives_up_over_budget(self):
        assert levenshtein("kitten", "sitting", max_distance=2) is None

    def test_banded_length_gap_short_circuit(self):
        assert levenshtein("a", "a" * 50, max_distance=5) is None

    def test_zero_budget(self):
        assert levenshtein("abc", "abc", max_distance=0) == 0
        assert levenshtein("abc", "abd", max_distance=0) is None


class TestStripPrefixes:
    def test_strips_prefix_declarations(self):
        text = "PREFIX foaf: <urn:f:>\nSELECT ?x WHERE { ?x ?p ?o }"
        assert strip_prefixes(text) == "SELECT ?x WHERE { ?x ?p ?o }"

    def test_keeps_text_without_keyword(self):
        assert strip_prefixes("garbage") == "garbage"

    def test_case_insensitive(self):
        assert strip_prefixes("PREFIX a: <urn:> select ?x").startswith("select")

    def test_all_four_query_forms(self):
        for keyword in ("SELECT", "ASK", "CONSTRUCT", "DESCRIBE"):
            text = f"PREFIX a: <urn:>\n{keyword} stuff"
            assert strip_prefixes(text) == f"{keyword} stuff"


class TestSimilarity:
    def test_prefixes_do_not_create_similarity(self):
        a = "PREFIX verylongprefix: <urn:averylongiri:>\nSELECT ?a WHERE { ?a <urn:x> 1 }"
        b = "PREFIX verylongprefix: <urn:averylongiri:>\nASK { ?completely ?different <urn:thing> }"
        assert not similar(a, b)

    def test_small_edit_is_similar(self):
        a = "SELECT ?x WHERE { ?x <urn:name> \"Alice\" }"
        b = "SELECT ?x WHERE { ?x <urn:name> \"Alicia\" }"
        assert similar(a, b)

    def test_different_queries_not_similar(self):
        a = "SELECT ?x WHERE { ?x <urn:name> ?n }"
        b = "CONSTRUCT { ?a <urn:b> ?c } WHERE { ?a <urn:other> ?c . ?c <urn:more> ?d }"
        assert not similar(a, b)

    def test_threshold_boundary(self):
        # 4 chars changed of 40 → 10% ≤ 25%.
        a = "SELECT ?x WHERE { ?x <urn:p> \"aaaa\" } ##"
        b = "SELECT ?x WHERE { ?x <urn:p> \"bbbb\" } ##"
        assert similar(a, b)


ALICE = 'SELECT ?x WHERE { ?x <urn:name> "Alice" }'
ALIZE = 'SELECT ?x WHERE { ?x <urn:name> "Alize" }'
# Fillers must be dissimilar both to the Alice queries and to one
# another (wildly different lengths and vocabulary).
FILLERS = [
    "ASK { <urn:zz> <urn:yy> <urn:xx> }",
    "CONSTRUCT { ?q <urn:w> ?e } WHERE { ?q <urn:building> ?e . "
    "?e <urn:architect> ?t . ?t <urn:country> <urn:France> }",
    "DESCRIBE <urn:some/very/long/resource/identifier/123456789>",
    "SELECT (COUNT(*) AS ?total) WHERE { ?s ?p ?o } GROUP BY ?s",
    "ASK { ?m <urn:museum> ?c . ?c <urn:city> <urn:Rome> }",
]


class TestStreakDetection:
    def test_refinement_chain_forms_one_streak(self):
        base = 'SELECT ?x WHERE { ?x <urn:name> "Alice%d" }'
        queries = [base % i for i in range(5)]
        assert scan(queries, window=30) == [[0, 1, 2, 3, 4]]

    def test_unrelated_queries_form_singletons(self):
        queries = [
            "SELECT ?x WHERE { ?x <urn:aaaaaaaaaa> ?y }",
            "CONSTRUCT { ?q <urn:w> ?e } WHERE { ?q <urn:zzzz> ?e . ?e ?r ?t }",
            "ASK { <urn:completely> <urn:different> <urn:thing> }",
        ]
        assert scan(queries, window=30) == [[0], [1], [2]]

    def test_window_limits_matching(self):
        queries = [ALICE] + FILLERS + [ALIZE]
        assert max(len(s) for s in scan(queries, window=10)) == 2
        assert max(len(s) for s in scan(queries, window=2)) == 1

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_gap_of_window_extends_and_window_plus_one_founds(self, window):
        # Positions 0 and *gap* hold similar queries, fillers between.
        reach = [ALICE] + FILLERS[: window - 1] + [ALIZE]
        assert [0, window] in scan(reach, window=window)
        beyond = [ALICE] + FILLERS[:window] + [ALIZE]
        assert [window + 1] in scan(beyond, window=window)

    def test_one_query_extends_two_streaks(self):
        # The first two are 12 edits apart (budget 11 at 44 chars), so
        # they found two streaks; the third is 6 edits from each and
        # extends both, and so does the fourth, a repeat of the third.
        first = 'SELECT ?x WHERE { ?x <urn:p> "aaaaaaaaaaaa" }'
        second = 'SELECT ?x WHERE { ?x <urn:p> "bbbbbbbbbbbb" }'
        middle = 'SELECT ?x WHERE { ?x <urn:p> "aaaaaabbbbbb" }'
        assert not similar(first, second)
        assert similar(first, middle) and similar(second, middle)
        streaks = scan([first, second, middle, middle], window=30)
        assert streaks == [[0, 2, 3], [1, 2, 3]]

    def test_interleaved_streaks(self):
        a = ['SELECT ?x WHERE { ?x <urn:aaaa> "a%d" }' % i for i in range(3)]
        b = ['ASK { ?ppppp <urn:zzzz> "zzz%d" . ?ppppp ?q ?r }' % i for i in range(3)]
        queries = [a[0], b[0], a[1], b[1], a[2], b[2]]
        assert scan(queries, window=30) == [[0, 2, 4], [1, 3, 5]]

    def test_streak_indices_are_positions(self):
        queries = [
            "ASK { <urn:unrelated> <urn:filler> <urn:entry> }",
            'SELECT ?x WHERE { ?x <urn:name> "Bob" }',
            'SELECT ?x WHERE { ?x <urn:name> "Bobby" }',
        ]
        assert [1, 2] in scan(queries, window=30)

    def test_detector_close_flushes_active(self):
        """A streak still open at the end of the stream counts."""
        queries = ["SELECT ?x WHERE { ?x <urn:p> 1 }"]
        assert scan(queries, window=5) == [[0]]
        accumulator = accumulate(queries, window=5)
        assert not accumulator.closed and len(accumulator.chains) == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            StreakAccumulator(window=0)
        with pytest.raises(ValueError):
            streaks_reference([], window=0)


class TestHistogram:
    def test_bucket_edges(self):
        accumulator = StreakAccumulator()
        accumulator.closed.update((1, 10, 11, 30, 100, 101, 169))
        histogram = accumulator.length_histogram()
        assert histogram["1-10"] == 2
        assert histogram["11-20"] == 1
        assert histogram["21-30"] == 1
        assert histogram["91-100"] == 1
        assert histogram[">100"] == 2

    def test_all_table6_buckets_present(self):
        histogram = StreakAccumulator().length_histogram()
        assert list(histogram) == [
            "1-10", "11-20", "21-30", "31-40", "41-50", "51-60",
            "61-70", "71-80", "81-90", "91-100", ">100",
        ]
