"""The streak similarity prefilter chain is exact (ISSUE 6).

The fast kernel (:func:`repro.analysis.streaks.prepared_similar`) may
settle a pair by equality, length difference, the bag-of-characters
bound, or the common-affix upper bound before any DP runs — but every
one of those shortcuts must be a *provable* bound on the edit
distance.  These properties pin that down against hypothesis-generated
pairs and real log pairs:

* the bag bound never exceeds the true Levenshtein distance (so a
  bag-reject can never kill a pair the DP would accept);
* the filtered kernel decides every pair exactly like the
  pre-prefilter reference kernel;
* the bit-parallel distance engine equals the full O(n²) DP, and its
  budget cutoff is exact on long texts and at every budget edge;
* the one-loop bag bound equals the two-loop formula;
* the per-scan DP-decision memo changes no streak and no accumulator;
* the stitch memo leaves stitched accumulators equal to the serial
  scan, and each of its hits stands for one DP run;
* worker-precomputed boundary tables leave merges byte-identical;
* lean-mode streak state is byte-identical to full-ingestion state.
"""

import string

from hypothesis import example, given, settings, strategies as st

from oracles import (
    _levenshtein_full,
    _similar_reference,
    streak_histogram_reference,
    streaks_reference,
)
from repro.analysis.streaks import (
    PreparedText,
    SIMILARITY_COUNTERS,
    StreakAccumulator,
    _DecisionMemo,
    bag_distance_bound,
    levenshtein,
    prepared_similar,
    strip_prefixes,
)
from repro.api import analyze_corpora
from repro.workload import generate_day_log

# Small alphabet: collisions (equal bags, shared affixes, near misses)
# are what stress the filter chain, not character diversity.
_texts = st.text(alphabet=string.ascii_lowercase[:6] + " {}?", max_size=40)
_thresholds = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])

# Long texts cross the 30-bit digits of CPython ints and many cutoff
# checks of the budgeted DP; U+1F600 is outside the BMP.
_LONG_ALPHABET = "abc {}?\U0001F600"
# Drawing the length first keeps long texts common (plain st.text
# favours short ones).
_long_texts = st.integers(0, 300).flatmap(
    lambda size: st.text(alphabet=_LONG_ALPHABET, min_size=size, max_size=size)
)


@st.composite
def _edited_pairs(draw):
    """A long text and a copy with up to 40 random edits."""
    a = draw(_long_texts)
    b = list(a)
    for _ in range(draw(st.integers(0, 40))):
        operation = draw(st.sampled_from("sid"))
        char = draw(st.sampled_from(_LONG_ALPHABET))
        if operation == "i" or not b:
            b.insert(draw(st.integers(0, len(b))), char)
        elif operation == "s":
            b[draw(st.integers(0, len(b) - 1))] = char
        else:
            del b[draw(st.integers(0, len(b) - 1))]
    return a, "".join(b)


def _two_loop_bag_bound(freq_a, freq_b):
    """The bag bound as first written: both surpluses, two loops."""
    excess_a = sum(max(n - freq_b.get(c, 0), 0) for c, n in freq_a.items())
    excess_b = sum(max(n - freq_a.get(c, 0), 0) for c, n in freq_b.items())
    return max(excess_a, excess_b)


@given(_texts, _texts)
def test_bag_bound_is_a_lower_bound(a, b):
    """bag_distance_bound(a, b) <= levenshtein(a, b), always."""
    bound = bag_distance_bound(PreparedText(a).freq, PreparedText(b).freq)
    assert bound <= _levenshtein_full(a, b)


@given(_texts, _texts, _thresholds)
def test_prefilters_never_flip_a_decision(a, b, threshold):
    """Filtered kernel ≡ pre-prefilter reference kernel, any pair."""
    assert prepared_similar(
        PreparedText(a), PreparedText(b), threshold
    ) == _similar_reference(a, b, threshold)


@given(_texts, _texts)
def test_bitparallel_distance_equals_full_dp(a, b):
    """The Myers engine computes the exact Levenshtein distance."""
    assert levenshtein(a, b) == _levenshtein_full(a, b)


@given(_texts, _texts, st.integers(0, 12))
def test_bounded_distance_agrees_with_full_dp(a, b, max_distance):
    """levenshtein(..., max_distance=k) is exact on both sides of k."""
    full = _levenshtein_full(a, b)
    expected = full if full <= max_distance else None
    assert levenshtein(a, b, max_distance=max_distance) == expected


@given(st.one_of(_edited_pairs(), st.tuples(_long_texts, _long_texts)))
@settings(max_examples=60, deadline=None)
@example(("", ""))
@example(("", "abc"))
@example(("\U0001F600" * 40, "\U0001F600" * 37 + "a"))
def test_budgeted_distance_equals_full_dp_on_long_texts(pair):
    """The final-diagonal cutoff is exact at every budget edge.

    Budgets 0, d − 1, d, d + 1 and the length difference, both argument
    orders: at or above d the distance comes back exact, below it None.
    """
    a, b = pair
    full = _levenshtein_full(a, b)
    assert levenshtein(a, b) == full
    for budget in {0, max(full - 1, 0), full, full + 1, abs(len(a) - len(b))}:
        expected = full if full <= budget else None
        assert levenshtein(a, b, max_distance=budget) == expected
        assert levenshtein(b, a, max_distance=budget) == expected


@given(st.one_of(st.tuples(_texts, _texts), st.tuples(_long_texts, _long_texts)))
def test_one_loop_bag_bound_equals_two_loop_formula(pair):
    """Deriving excess_b from the length difference changes nothing."""
    freq_a, freq_b = (PreparedText(text).freq for text in pair)
    assert bag_distance_bound(freq_a, freq_b) == _two_loop_bag_bound(
        freq_a, freq_b
    )


def test_decision_memo_changes_no_output():
    """Memo on vs off: same accumulator, same streaks as the reference
    scan, fewer DP runs.

    Every DP run the memo saves shows up as one more memo hit, and the
    number of decisions asked for does not move.
    """
    log = generate_day_log(600, session_rate=0.3, seed=5)
    runs = {}
    for memo_on in (True, False):
        accumulator = StreakAccumulator()
        if not memo_on:
            accumulator._memo = None
        SIMILARITY_COUNTERS.reset()
        for text in log:
            accumulator.push(text)
        runs[memo_on] = (accumulator, SIMILARITY_COUNTERS.to_dict())
    (on_acc, on), (off_acc, off) = runs[True], runs[False]
    assert on_acc.length_histogram() == streak_histogram_reference(log)
    assert on_acc.longest == max(len(s) for s in streaks_reference(log))
    assert on_acc == off_acc
    assert on_acc.to_dict() == off_acc.to_dict()
    assert on["comparisons"] == off["comparisons"]
    assert on["dp_runs"] < off["dp_runs"]
    assert on["memo_hits"] > off["memo_hits"] > 0
    assert on["dp_runs"] + on["memo_hits"] == off["dp_runs"] + off["memo_hits"]


def test_decision_memo_is_bounded_and_keeps_recent_decisions():
    """Two generations of 256: old entries fall out, recent hits stay."""
    memo = _DecisionMemo()
    for number in range(1000):
        memo.put((str(number), "q"), number % 2 == 0)
    assert len(memo.young) + len(memo.old) <= 512
    assert memo.get(("999", "q")) is False
    assert memo.get(("0", "q")) is None
    # An old-generation hit moves to the young one, so it survives the
    # next rotation, which drops the rest of its old generation.
    survivor, dropped = list(memo.old)[:2]
    assert memo.get(survivor) is not None
    for number in range(1000, 1256):
        memo.put((str(number), "q"), True)
    assert memo.get(survivor) is not None
    assert memo.get(dropped) is None


@given(st.lists(_texts, max_size=60), st.integers(1, 8), st.integers(1, 20))
@settings(max_examples=50, deadline=None)
def test_boundary_tables_leave_merges_byte_identical(texts, window, cut):
    """Merging with a precomputed boundary table equals merging without."""
    cut = min(cut, len(texts))
    plain_left = StreakAccumulator(window=window)
    primed_left = StreakAccumulator(window=window)
    for text in texts[:cut]:
        plain_left.push(text)
        primed_left.push(text)
    primed_left.precompute_boundary(texts[cut:cut + window])
    right = StreakAccumulator(window=window)
    for text in texts[cut:]:
        right.push(text)
    assert primed_left.merge(right.copy()) == plain_left.merge(right)
    assert primed_left.to_dict() == plain_left.to_dict()


#: Three orderings of one basic graph pattern: equal lengths and
#: character bags, so every pair between them passes the prefilters,
#: and far enough apart that the DP rejects it.
_BOT_TRIPLES = (
    "?film <http://dbpedia.org/ontology/director> ?director .",
    '?director <http://xmlns.com/foaf/0.1/name> "Stanley Kubrick"@en .',
    "?film <http://www.w3.org/2000/01/rdf-schema#label> ?title .",
)
_BOT_QUERIES = tuple(
    "SELECT ?title WHERE {\n  "
    + "\n  ".join(_BOT_TRIPLES[index] for index in order)
    + "\n}"
    for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
)


def _bot_heavy_stream(size):
    """A day log with a bot query after every entry.

    The bot cycles A A B B C C through :data:`_BOT_QUERIES`, so from
    any cut on, one bot chain on the left meets another bot text twice
    before its own comes back: a decision the stitch asks for twice.
    """
    stream = []
    for index, text in enumerate(generate_day_log(size, session_rate=0.5, seed=9)):
        stream += [text, _BOT_QUERIES[index // 2 % 3]]
    return stream


_BOT_STREAM = _bot_heavy_stream(120)
#: One bot cycle with the day-log entries between: the smallest chunk
#: that is sure to hold every bot text.
_BOT_CYCLE = 12


def _passed_prefilters(counters):
    """Decisions that reached the memo/DP stage of the filter chain."""
    return counters["comparisons"] - (
        counters["equal_accepts"]
        + counters["length_rejects"]
        + counters["bag_rejects"]
        + counters["trim_accepts"]
    )


def _accumulate(texts):
    accumulator = StreakAccumulator()
    for text in texts:
        accumulator.push(text)
    return accumulator


@given(
    st.lists(
        st.integers(_BOT_CYCLE, (len(_BOT_STREAM) - _BOT_CYCLE) // 7),
        min_size=1, max_size=7,
    )
)
@settings(max_examples=30, deadline=None)
def test_stitch_memo_changes_no_decision(sizes):
    """Stitching 2-8 chunks equals the serial scan, and each stitch's
    memo answers repeated pairs instead of the DP.

    Every decision that passes the prefilters is either a DP run or a
    memo hit, so ``dp_runs + memo_hits`` is what the DP would have run
    without the memo.
    """
    cuts = [0]
    for size in sizes:
        cuts.append(cuts[-1] + size)
    cuts.append(len(_BOT_STREAM))
    chunks = [
        _accumulate(_BOT_STREAM[start:end]) for start, end in zip(cuts, cuts[1:])
    ]
    SIMILARITY_COUNTERS.reset()
    stitched = chunks[0]
    for chunk in chunks[1:]:
        stitched.merge(chunk)
    merges = SIMILARITY_COUNTERS.to_dict()
    serial = _accumulate(_BOT_STREAM)
    assert stitched == serial
    assert stitched.to_dict() == serial.to_dict()
    assert merges["memo_hits"] > 0
    assert merges["dp_runs"] + merges["memo_hits"] == _passed_prefilters(merges)


def test_bot_queries_reach_the_dp_and_differ():
    """The premise of the stream above: bot pairs need (and fail) the DP."""
    prepared = [PreparedText.from_raw(text) for text in _BOT_QUERIES]
    SIMILARITY_COUNTERS.reset()
    for a in prepared:
        for b in prepared:
            if a is not b:
                assert not prepared_similar(a, b)
    assert SIMILARITY_COUNTERS.dp_runs == 6


def test_prepared_similar_matches_stripped_similar_on_log_pairs():
    """Real log pairs through the kernel and the reference, plus
    counter sanity."""
    stripped = [strip_prefixes(q) for q in generate_day_log(120, seed=3)]
    pairs = [(a, b) for a in stripped[:40] for b in stripped[40:80]]
    SIMILARITY_COUNTERS.reset()
    for a, b in pairs:
        assert prepared_similar(
            PreparedText(a), PreparedText(b)
        ) == _similar_reference(a, b)
    counters = SIMILARITY_COUNTERS.to_dict()
    settled = (
        counters["equal_accepts"]
        + counters["length_rejects"]
        + counters["bag_rejects"]
        + counters["trim_accepts"]
        + counters["dp_runs"]
    )
    assert counters["comparisons"] == len(pairs) == settled


def test_lean_mode_streak_state_is_byte_identical():
    """Lean and full ingestion agree on everything but Valid/Unique.

    ``--metrics streaks`` always ingests leanly; the full pipeline is
    the oracle, reached through the driver's ``lean_ingestion`` field."""
    from repro.analysis.context import AnalysisOptions
    from repro.analysis.parallel import build_query_logs_parallel
    from repro.analysis.study import study_corpus

    log = generate_day_log(150, session_rate=0.4, seed=11)
    lean = analyze_corpora({"day": log}, metrics=("streaks",)).study
    options = AnalysisOptions(metrics=("streaks",), lean_ingestion=False)
    full = study_corpus(
        build_query_logs_parallel({"day": log}, chunk_size=16, options=options),
        options=options,
    )
    assert lean.datasets["day"].streaks == full.datasets["day"].streaks
    assert (
        lean.datasets["day"].streaks.to_dict()
        == full.datasets["day"].streaks.to_dict()
    )
    assert lean.datasets["day"].total == len(log)
    assert lean.datasets["day"].valid == 0  # parse never ran
    assert full.datasets["day"].valid > 0


def test_parallel_ingestion_counters_match_serial_exactly():
    """Sharded chunks ship counter deltas home; totals must be exact.

    Regression for a silent drop: pool workers mutate their *own*
    ``SIMILARITY_COUNTERS``, so before the deltas rode back with the
    chunk results the parent's totals under-counted whenever ingestion
    actually forked.  workers=1 (in-process chunks) and workers=2
    (forked chunks) must now agree to the query, not approximately.
    """
    from repro.analysis.context import AnalysisOptions
    from repro.analysis.parallel import build_query_logs_parallel

    log = generate_day_log(200, session_rate=0.5, seed=7)
    options = AnalysisOptions(metrics=("streaks",))
    totals = {}
    for workers in (1, 2):
        SIMILARITY_COUNTERS.reset()
        logs = build_query_logs_parallel(
            {"day": log}, workers=workers, chunk_size=16, options=options
        )
        assert logs["day"].streaks is not None
        totals[workers] = SIMILARITY_COUNTERS.to_dict()
    assert totals[1] == totals[2]
    assert totals[1]["comparisons"] > 0
