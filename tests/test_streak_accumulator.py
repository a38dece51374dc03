"""Mergeable streak detection: sharded ≡ serial, byte-for-byte (§8).

The contract under test (ISSUE 5 acceptance criteria):

* ``merge(detect(a), detect(b)) ≡ detect(a + b)`` — full accumulator
  equality (chain spans, head-region positions, tails, histograms,
  canonical snapshot bytes), for any chunk split, property-tested
  across windows and chunk sizes;
* the accumulator's histogram is byte-identical to the serial
  reference scan in ``tests/oracles.py``;
* chunk-boundary edge cases hold: streaks spanning three or more
  chunks, windows larger than the chunk size, and empty chunks.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from oracles import streak_histogram_reference, streaks_reference
from repro.analysis.streaks import StreakAccumulator

# Five families: members of a family are pairwise similar (short
# suffix edits), different families are dissimilar — so random draws
# produce real streaks, interleavings, and boundary-crossing chains.
FAMILIES = [
    'SELECT ?x WHERE {{ ?x <urn:name> "Alice{}" }}',
    'ASK {{ ?p <urn:zzzz> "z{}" . ?p ?q ?r }}',
    "CONSTRUCT {{ ?q <urn:w> ?e }} WHERE {{ ?q <urn:building{}> ?e }}",
    "DESCRIBE <urn:some/long/resource/identifier/{}>",
    "SELECT ?s WHERE {{ ?s <urn:p> ?o . FILTER(?o > {}) }}",
]


def make_query(family: int, variant: int) -> str:
    return FAMILIES[family].format(variant)


def detect(stream, window):
    accumulator = StreakAccumulator(window=window)
    for text in stream:
        accumulator.push(text)
    return accumulator


def detect_chunked(stream, window, boundaries):
    merged = StreakAccumulator(window=window)
    bounds = [0] + sorted(boundaries) + [len(stream)]
    for start, stop in zip(bounds, bounds[1:]):
        merged.merge(detect(stream[start:stop], window))
    return merged


class TestPushMatchesSerialDetector:
    @pytest.mark.parametrize("window", [1, 2, 5, 30])
    def test_histogram_equals_find_streaks(self, window):
        stream = [make_query(i % 5, i % 3) for i in range(60)]
        accumulator = detect(stream, window)
        assert accumulator.length_histogram() == streak_histogram_reference(
            stream, window=window
        )
        assert accumulator.streak_count == len(
            streaks_reference(stream, window=window)
        )

    def test_longest_matches_serial(self):
        stream = [make_query(0, i) for i in range(7)] + [make_query(3, 9)]
        accumulator = detect(stream, 30)
        serial = streaks_reference(stream, window=30)
        assert accumulator.longest == max(len(s) for s in serial)

    def test_empty_stream(self):
        accumulator = StreakAccumulator()
        assert accumulator.streak_count == 0
        assert accumulator.longest == 0
        assert set(accumulator.length_histogram().values()) == {0}

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            StreakAccumulator(window=0)


class TestChunkBoundaries:
    def test_streak_spanning_three_chunks(self):
        # Nine similar queries, chunked in threes, tiny window: the
        # single 9-member streak must survive two stitches.
        stream = [make_query(0, i) for i in range(9)]
        merged = detect_chunked(stream, window=2, boundaries=[3, 6])
        assert merged == detect(stream, 2)
        assert merged.streak_count == 1
        assert merged.longest == 9

    def test_window_larger_than_chunk_size(self):
        # window 30 over chunks of 2: every chain is open or
        # head-founded at every boundary; an open chain from chunk 1
        # can still be extended by chunk 4.
        stream = [
            make_query(0, 1), make_query(1, 1),
            make_query(2, 1), make_query(3, 1),
            make_query(4, 1), make_query(1, 2),
            make_query(0, 2), make_query(2, 2),
        ]
        merged = detect_chunked(stream, window=30, boundaries=[2, 4, 6])
        assert merged == detect(stream, 30)
        by_start = {chain.start: chain for chain in merged.chains}
        assert by_start[0].head_positions == [0, 6]  # Alice chain spans 3 stitches
        assert by_start[1].head_positions == [1, 5]

    def test_empty_chunks_are_identity(self):
        stream = [make_query(i % 3, i % 2) for i in range(10)]
        serial = detect(stream, 5)
        merged = StreakAccumulator(window=5)
        merged.merge(StreakAccumulator(window=5))  # leading empty chunk
        merged.merge(detect(stream[:4], 5))
        merged.merge(StreakAccumulator(window=5))  # interior empty chunk
        merged.merge(detect(stream[4:], 5))
        merged.merge(StreakAccumulator(window=5))  # trailing empty chunk
        assert merged == serial

    def test_boundary_query_absorbed_not_refounded(self):
        # The first query of chunk 2 extends a chunk-1 streak; it must
        # not also found a second streak of its own.
        stream = [make_query(0, 1), make_query(0, 2), make_query(0, 3)]
        merged = detect_chunked(stream, window=3, boundaries=[1])
        assert merged.streak_count == 1
        assert merged.chains[0].head_positions == [0, 1, 2]
        assert merged.chains[0].length == 3

    def test_out_of_window_chains_do_not_stitch(self):
        # The similar query in chunk 2 sits beyond the window reach of
        # the chunk-1 chain: two separate streaks.
        fillers = [make_query(1, 1), make_query(2, 1), make_query(3, 1)]
        stream = [make_query(0, 1)] + fillers + [make_query(0, 2)]
        merged = detect_chunked(stream, window=2, boundaries=[2])
        assert merged == detect(stream, 2)
        lengths = sorted(c.length for c in merged.chains) + sorted(
            length for length, n in merged.closed.items() for _ in range(n)
        )
        assert 2 not in lengths  # the Alice pair never joined up

    def test_window_and_threshold_mismatch_rejected(self):
        with pytest.raises(ValueError, match="window/threshold"):
            StreakAccumulator(window=5).merge(StreakAccumulator(window=6))
        with pytest.raises(ValueError, match="window/threshold"):
            StreakAccumulator(threshold=0.25).merge(
                StreakAccumulator(threshold=0.5)
            )

    def test_merge_returns_self_and_mutates_left_only(self):
        left, right = detect([make_query(0, 1)], 5), detect([make_query(0, 2)], 5)
        before = json.dumps(right.to_dict())
        assert left.merge(right) is left
        assert json.dumps(right.to_dict()) == before

    def test_copy_is_independent(self):
        accumulator = detect([make_query(0, i) for i in range(4)], 5)
        duplicate = accumulator.copy()
        assert duplicate == accumulator
        duplicate.push(make_query(0, 9))
        assert duplicate != accumulator


# ---------------------------------------------------------------------------
# Property: merge(detect(a), detect(b)) == detect(a + b) — exactly.
# ---------------------------------------------------------------------------

streams = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2)).map(
        lambda fv: make_query(*fv)
    ),
    min_size=0,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(
    stream=streams,
    window=st.sampled_from([1, 2, 3, 5, 8, 30, 64]),
    data=st.data(),
)
def test_merge_equals_serial_property(stream, window, data):
    cuts = data.draw(
        st.lists(st.integers(0, len(stream)), min_size=0, max_size=4)
    )
    serial = detect(stream, window)
    merged = detect_chunked(stream, window, cuts)
    assert merged == serial
    # Canonical snapshot form: identical bytes, not just equal values.
    assert json.dumps(merged.to_dict()) == json.dumps(serial.to_dict())
    assert merged.length_histogram() == streak_histogram_reference(
        stream, window=window
    )


@settings(max_examples=30, deadline=None)
@given(stream=streams, window=st.sampled_from([2, 5, 30]))
def test_fixed_size_chunking_property(stream, window):
    """The drivers' actual shape: contiguous fixed-size chunks."""
    serial = detect(stream, window)
    for chunk_size in (1, 2, 3, 7):
        boundaries = list(range(chunk_size, len(stream), chunk_size))
        assert detect_chunked(stream, window, boundaries) == serial


def test_decision_memo_never_rides_transport(tmp_path):
    """The DP-decision memo is derived state: not pickled, not saved.

    A scan fills the memo; pickling the accumulator must give the same
    bytes as with the memo emptied (so shard transport ships what it
    shipped before the memo existed), the unpickled copy must be equal
    and start with an empty memo, and neither ``to_dict()`` nor the
    ``save_study`` bytes may depend on what the memo holds.
    """
    import pickle

    from repro.analysis.snapshot import save_study
    from repro.analysis.streaks import _DecisionMemo
    from repro.api import analyze_corpora
    from repro.workload import generate_day_log

    log = generate_day_log(400, session_rate=0.3, seed=5)
    accumulator = detect(log, 30)
    assert accumulator._memo.young, "the scan should have filled the memo"
    filled = accumulator._memo

    shipped = pickle.dumps(accumulator, pickle.HIGHEST_PROTOCOL)
    snapshot = json.dumps(accumulator.to_dict())
    accumulator._memo = _DecisionMemo()
    emptied = pickle.dumps(accumulator, pickle.HIGHEST_PROTOCOL)
    assert len(shipped) == len(emptied)
    assert shipped == emptied
    assert json.dumps(accumulator.to_dict()) == snapshot

    received = pickle.loads(shipped)
    assert received == accumulator
    assert not received._memo.young and not received._memo.old
    # The received copy scans on like any accumulator.
    received.push(log[0])
    accumulator.push(log[0])
    assert received == accumulator

    study = analyze_corpora({"day": log}, metrics=("streaks",)).study
    saved = {}
    for label, memo in (("filled", filled), ("emptied", _DecisionMemo())):
        study.datasets["day"].streaks._memo = memo
        save_study(study, tmp_path / f"{label}.json")
        saved[label] = (tmp_path / f"{label}.json").read_bytes()
    assert saved["filled"] == saved["emptied"]
