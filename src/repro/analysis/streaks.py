"""Streak detection: sequences of gradually-refined queries (paper §8).

A *streak* (window size w) is a sequence of queries q_{i1}, …, q_{ik}
from an ordered log such that consecutive members are at most w
positions apart and each member *matches* its predecessor: the two
queries are similar, and no query in between was similar to the
predecessor.

The paper's similarity test: strip namespace prefixes (everything
before the first SELECT / ASK / CONSTRUCT / DESCRIBE keyword), then
require normalized Levenshtein distance ≤ 0.25 — i.e. the queries are
at least 75% identical.

The paper notes the discovery was "extremely resource-consuming"; this
kernel makes it affordable through a chain of *exact* accelerations,
each a provable bound on the edit distance (so every decision is
byte-identical to running the full dynamic program — property-tested
in ``tests/test_streak_prefilters.py``):

1. **equality** — exact repeats, the common case in real logs;
2. **length prefilter** — ``|len(a) − len(b)|`` is a lower bound on
   the distance; O(1);
3. **bag-of-characters prefilter** — the multiset surplus
   ``max(|bag(a)−bag(b)|, |bag(b)−bag(a)|)`` is a lower bound on the
   distance; one O(alphabet) loop over character-frequency vectors
   cached on :class:`PreparedText`;
4. **common-affix accept** — after trimming the shared prefix and
   suffix (which leaves the distance unchanged), the longer remainder
   length is an *upper* bound on the distance: small enough means
   similar without any DP;
5. **decision memo** — each scan state remembers its recent DP
   decisions by text pair, so a (chain tail, query) pair that a
   bot-repeated stream brings back is not decided twice, and each
   stitch keeps the decisions it made against the right-hand head, so
   chains that share a tail decide each head text once;
6. **budgeted bit-parallel DP** — Myers' algorithm on the trimmed
   remainders, which stops as soon as a cell on the final diagonal
   exceeds the edit budget.  (The banded DP it replaced survives only
   as the correctness oracle and ablation baseline, in
   ``tests/oracles.py``.)

See ``docs/PERFORMANCE.md`` for the measured effect of each stage and
:data:`SIMILARITY_COUNTERS` for per-process instrumentation.

:class:`StreakAccumulator` is the one streak scanner: fed serially it
is the scan, and its per-chunk states merge into the state of the
whole stream.  The plain serial scan it is checked against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BUCKET_LABELS",
    "DEFAULT_STREAK_THRESHOLD",
    "DEFAULT_STREAK_WINDOW",
    "SIMILARITY_COUNTERS",
    "STREAK_BUCKETS",
    "PreparedText",
    "SimilarityCounters",
    "StreakAccumulator",
    "bag_distance_bound",
    "bucket_label",
    "levenshtein",
    "prepared_similar",
    "strip_prefixes",
]

_BODY_START_RE = re.compile(r"\b(SELECT|ASK|CONSTRUCT|DESCRIBE)\b", re.IGNORECASE)

#: The paper's streak parameters (§8): lookbehind window of 30 log
#: positions, normalized Levenshtein distance at most 25%.
DEFAULT_STREAK_WINDOW = 30
DEFAULT_STREAK_THRESHOLD = 0.25

#: Table 6 row buckets: (low, high) inclusive; None = unbounded.
STREAK_BUCKETS: Tuple[Tuple[int, Optional[int]], ...] = (
    (1, 10), (11, 20), (21, 30), (31, 40), (41, 50),
    (51, 60), (61, 70), (71, 80), (81, 90), (91, 100),
    (101, None),
)

#: Table 6 bucket labels, in row order ("1-10", …, ">100").
BUCKET_LABELS: Tuple[str, ...] = tuple(
    f"{low}-{high}" if high is not None else f">{low - 1}"
    for low, high in STREAK_BUCKETS
)


def bucket_label(length: int) -> str:
    """The Table 6 row a streak of *length* members falls into."""
    for (low, high), label in zip(STREAK_BUCKETS, BUCKET_LABELS):
        if length >= low and (high is None or length <= high):
            return label
    raise ValueError(f"streak length must be >= 1, got {length}")


def strip_prefixes(query_text: str) -> str:
    """Drop everything before the first query-form keyword.

    Namespace prefixes introduce superficial similarity between
    otherwise unrelated queries; the paper removes them before
    measuring distance.
    """
    match = _BODY_START_RE.search(query_text)
    if match is None:
        return query_text
    return query_text[match.start():]


def levenshtein(
    a: str, b: str, max_distance: Optional[int] = None
) -> Optional[int]:
    """Levenshtein distance between *a* and *b*.

    Computed with the Myers/Hyyrö bit-parallel algorithm: each text
    position costs a handful of arbitrary-precision integer operations
    on ``len(a)``-bit vectors, i.e. O(len_b · ⌈len_a/64⌉) machine words
    instead of the O(len²) cell-by-cell DP — the difference that makes
    day-log streak scans affordable (see the Levenshtein ablation
    bench, which keeps the older banded DP around as a measured
    comparison point).

    When *max_distance* is given, returns ``None`` if the distance
    exceeds the bound: at once when the length difference does, else
    as soon as the DP reaches a cell on the final diagonal whose value
    exceeds it (edit distance never decreases along a diagonal, so
    that cell is a lower bound on the answer).  Without a bound the
    result is always the exact distance.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    len_a, len_b = len(a), len(b)
    if max_distance is not None and len_b - len_a > max_distance:
        return None
    if len_a == 0:
        return len_b
    return _levenshtein_bitparallel(a, b, max_distance)


#: Columns between two final-diagonal checks of the budgeted Myers DP.
_CUTOFF_STRIDE = 8


def _levenshtein_bitparallel(
    a: str, b: str, max_distance: Optional[int] = None
) -> Optional[int]:
    """Exact Levenshtein distance via Myers' bit-vector algorithm.

    Requires *a* non-empty and no longer than *b* (callers handle the
    rest).  The pattern *a* is encoded as per-character match masks;
    each character of *b* then updates the vertical positive/negative
    delta vectors with a few bit operations on ``len(a)``-bit integers.
    Python's arbitrary-precision ints hold the whole vector, so no
    64-bit block chaining is needed.

    Row ``r`` of column ``j`` holds ``j + popcount(P & low) −
    popcount(N & low)`` with ``low = 2**r − 1``, so the distance is read
    off the last column once, and with *max_distance* every
    ``_CUTOFF_STRIDE`` columns the cell on the final diagonal (row =
    column − (len b − len a)) is checked against the budget: edit
    distance never decreases along a diagonal (Ukkonen 1985), so once
    that cell exceeds the budget so does the answer, and the function
    returns ``None``.  Verified equal to the full DP in the property
    suite and the Levenshtein ablation bench.
    """
    length = len(a)
    mask = (1 << length) - 1
    match_masks: Dict[str, int] = {}
    bit = 1
    for char in a:
        match_masks[char] = match_masks.get(char, 0) | bit
        bit <<= 1
    positive = mask  # vertical delta +1 positions
    negative = 0  # vertical delta -1 positions
    get = match_masks.get
    len_b = len(b)
    offset = len_b - length
    # Row 0 of the final diagonal is the length difference, which the
    # caller already held within budget: the first check is a stride in.
    checks = (
        range(offset + _CUTOFF_STRIDE, len_b, _CUTOFF_STRIDE)
        if max_distance is not None else ()
    )
    start = 0
    for stop in (*checks, len_b):
        for char in b[start:stop]:
            matches = get(char, 0)
            diagonal = matches | negative
            horizontal_x = (((matches & positive) + positive) ^ positive) | matches
            h_positive = negative | (mask ^ (horizontal_x | positive))
            h_negative = positive & horizontal_x
            h_positive = ((h_positive << 1) | 1) & mask
            h_negative = (h_negative << 1) & mask
            positive = h_negative | (mask ^ (diagonal | h_positive))
            negative = h_positive & diagonal
        if stop == len_b:
            break
        start = stop
        low = (1 << (stop - offset)) - 1
        if (
            stop + (positive & low).bit_count() - (negative & low).bit_count()
            > max_distance
        ):
            return None
    distance = len_b + positive.bit_count() - negative.bit_count()
    if max_distance is not None and distance > max_distance:
        return None
    return distance


@dataclass
class SimilarityCounters:
    """Per-process instrumentation of the similarity filter chain.

    Every field counts decisions since the last :meth:`reset`; the
    module-level :data:`SIMILARITY_COUNTERS` instance is what the
    kernel increments.  Counters never influence results — they exist
    so benchmarks (and ``BENCH_passes.json``) can report how much work
    each prefilter stage absorbed before the DP ran.
    """

    comparisons: int = 0  #: similarity decisions requested
    equal_accepts: int = 0  #: settled by exact text equality
    length_rejects: int = 0  #: settled by the length-difference bound
    bag_rejects: int = 0  #: settled by the bag-of-chars bound
    trim_accepts: int = 0  #: settled by the common-affix upper bound
    dp_runs: int = 0  #: pairs that actually reached the DP
    memo_hits: int = 0  #: decisions reused from a per-push, stitch or DP-decision memo
    boundary_hits: int = 0  #: decisions reused from a worker boundary table

    def reset(self) -> None:
        """Zero every counter (start of a measured run)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot, JSON-ready for bench payloads."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Per-field increments since a :meth:`to_dict` snapshot.

        The transactional capture the sharded drivers use: snapshot,
        process a chunk, take the delta, :meth:`restore` the snapshot,
        and ship the delta to the parent — which :meth:`add`\\ s it
        unconditionally.  In-process and pool-worker chunks then count
        exactly once each, wherever they ran.
        """
        return {
            name: getattr(self, name) - before[name]
            for name in self.__dataclass_fields__
        }

    def restore(self, values: Dict[str, int]) -> None:
        """Reset every counter to a :meth:`to_dict` snapshot."""
        for name in self.__dataclass_fields__:
            setattr(self, name, values[name])

    def add(self, delta: Dict[str, int]) -> None:
        """Fold a shipped per-chunk delta into this process's counters."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + delta.get(name, 0))

    @property
    def dp_skip_rate(self) -> float:
        """Fraction of comparisons settled without running the DP."""
        if not self.comparisons:
            return 0.0
        return 1.0 - self.dp_runs / self.comparisons


#: The kernel's live instrumentation (per process; workers each have
#: their own copy, so parent-side numbers cover the serial remainder).
SIMILARITY_COUNTERS = SimilarityCounters()


class PreparedText:
    """A prefix-stripped query text with cached similarity features.

    Streak scanning compares each incoming query against up to
    ``window`` chain tails; preparing the text once (stripping, length,
    lazily a character-frequency :class:`~collections.Counter`) makes
    every one of those comparisons O(1)/O(alphabet) until the rare pair
    that genuinely needs the DP.
    """

    __slots__ = ("text", "length", "_freq")

    def __init__(self, stripped: str) -> None:
        self.text = stripped
        self.length = len(stripped)
        self._freq: Optional[Counter] = None

    @classmethod
    def from_raw(cls, query_text: str) -> "PreparedText":
        """Prepare a raw (unstripped) query text."""
        return cls(strip_prefixes(query_text))

    @property
    def freq(self) -> Counter:
        """Character-frequency vector, computed once per text."""
        freq = self._freq
        if freq is None:
            freq = self._freq = Counter(self.text)
        return freq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedText({self.text!r})"


def bag_distance_bound(freq_a: Counter, freq_b: Counter) -> int:
    """Lower bound on Levenshtein distance from character frequencies.

    ``max`` of the two multiset surpluses: every character *a* has in
    excess of *b* must be deleted or substituted away, and vice versa,
    while one edit operation fixes at most one unit of either surplus.
    One loop suffices: the surpluses differ by exactly the length
    difference, ``excess_a − excess_b = len(a) − len(b)``.
    Property-tested against the exact distance and the two-loop
    formula in ``tests/test_streak_prefilters.py``.
    """
    return _bag_bound(
        freq_a, freq_b, sum(freq_a.values()) - sum(freq_b.values())
    )


def _bag_bound(freq_a: Counter, freq_b: Counter, length_difference: int) -> int:
    """:func:`bag_distance_bound` given ``len(a) − len(b)``."""
    excess_a = 0
    get = freq_b.get
    for char, count in freq_a.items():
        difference = count - get(char, 0)
        if difference > 0:
            excess_a += difference
    excess_b = excess_a - length_difference
    return excess_a if excess_a > excess_b else excess_b


def _strip_common_affixes(a: str, b: str) -> Tuple[str, str]:
    """Trim the shared prefix and suffix; Levenshtein-invariant.

    An optimal alignment never edits inside a common prefix or suffix,
    so ``levenshtein(a, b) == levenshtein(*_strip_common_affixes(a, b))``
    while the DP band shrinks to the differing core (measured ~5× fewer
    cells on real day logs).
    """
    limit = min(len(a), len(b))
    prefix = 0
    while prefix < limit and a[prefix] == b[prefix]:
        prefix += 1
    suffix = 0
    limit -= prefix
    while suffix < limit and a[len(a) - 1 - suffix] == b[len(b) - 1 - suffix]:
        suffix += 1
    return a[prefix:len(a) - suffix], b[prefix:len(b) - suffix]


#: Entries per generation of a :class:`_DecisionMemo`.
_MEMO_GENERATION = 256


class _DecisionMemo:
    """Bounded memo of DP decisions for one scan state or one stitch.

    Bot-repeated queries make a scan meet the same (chain tail, query)
    pair again and again, and a stitch meets the same (chain tail, head
    text) pair; the memo keeps the DP from re-deciding it.
    Two generations of at most :data:`_MEMO_GENERATION` entries each:
    when the young one fills it becomes the old one and the previous
    old one is dropped, and a hit in the old generation is copied back
    into the young one, so recently used decisions survive rotation
    while at most ``2 × _MEMO_GENERATION`` stay alive.  Keys are
    ``(a.text, b.text)``; one memo serves one threshold.  Derived state
    only — never pickled, snapshotted or compared.
    """

    __slots__ = ("young", "old")

    def __init__(self) -> None:
        self.young: Dict[Tuple[str, str], bool] = {}
        self.old: Dict[Tuple[str, str], bool] = {}

    def get(self, key: Tuple[str, str]) -> Optional[bool]:
        """The remembered decision for *key*, or ``None``."""
        verdict = self.young.get(key)
        if verdict is None:
            verdict = self.old.get(key)
            if verdict is not None:
                self.put(key, verdict)
        return verdict

    def put(self, key: Tuple[str, str], verdict: bool) -> None:
        """Remember *verdict* for *key*, rotating a full generation."""
        if len(self.young) >= _MEMO_GENERATION:
            self.old = self.young
            self.young = {}
        self.young[key] = verdict


def prepared_similar(
    a: PreparedText,
    b: PreparedText,
    threshold: float = DEFAULT_STREAK_THRESHOLD,
    memo: Optional[_DecisionMemo] = None,
) -> bool:
    """The similarity test on prepared texts — the kernel's hot path.

    Decision-identical to the plain banded-DP test on the underlying
    texts (property-tested against ``tests/oracles.py``); the filter
    chain documented in the module docstring only changes *how fast*
    the answer arrives.  *memo* (a
    scan state's :class:`_DecisionMemo`, always used with the same
    *threshold*) is consulted after the prefilters, right before the
    DP.
    """
    counters = SIMILARITY_COUNTERS
    counters.comparisons += 1
    if a.text == b.text:
        counters.equal_accepts += 1
        return True  # exact repeats are common in real logs
    longest = a.length if a.length > b.length else b.length
    budget = int(longest * threshold)
    difference = a.length - b.length
    if (difference if difference > 0 else -difference) > budget:
        counters.length_rejects += 1
        return False
    if _bag_bound(a.freq, b.freq, difference) > budget:
        counters.bag_rejects += 1
        return False
    trimmed_a, trimmed_b = _strip_common_affixes(a.text, b.text)
    if max(len(trimmed_a), len(trimmed_b)) <= budget:
        # Distance ≤ max remainder length (delete one side, insert the
        # other — an upper bound), already within budget: similar.
        counters.trim_accepts += 1
        return True
    if memo is not None:
        key = (a.text, b.text)
        verdict = memo.get(key)
        if verdict is not None:
            counters.memo_hits += 1
            return verdict
    counters.dp_runs += 1
    verdict = levenshtein(trimmed_a, trimmed_b, max_distance=budget) is not None
    if memo is not None:
        memo.put(key, verdict)
    return verdict


# ---------------------------------------------------------------------------
# Mergeable, order-aware streak accumulation (the sharded Table 6 path)
# ---------------------------------------------------------------------------


@dataclass
class _Chain:
    """One streak under construction inside a :class:`StreakAccumulator`.

    The lean representation: instead of every member's stream position
    (which grows linearly with the streak), a chain keeps only what
    merging can ever ask for — the founding position ``start`` (the
    canonical sort key and the head-founded test), the member count
    ``length``, the last member's position ``end`` (window reach
    arithmetic), ``tail``, the prefix-stripped text of the last member
    (the only text similarity ever compares against), and
    ``head_positions``, the members that fall in the accumulator's head
    region (``< window``).  Member positions are strictly increasing,
    so the head-region members are exactly the first
    ``len(head_positions)`` members: a head position's index in
    ``head_positions`` *is* its member index, which is all the stitch
    needs to absorb a suffix.  State per chain is O(window), however
    long the streak runs.
    """

    start: int
    length: int
    end: int
    head_positions: List[int]
    tail: str
    #: Cached similarity features of ``tail``; derived state, excluded
    #: from equality and snapshots, rebuilt lazily after a reload.
    prepared: Optional[PreparedText] = field(
        default=None, compare=False, repr=False
    )

    def tail_prepared(self) -> PreparedText:
        """The prepared form of ``tail``, (re)built if stale or absent."""
        prepared = self.prepared
        if prepared is None or prepared.text != self.tail:
            prepared = self.prepared = PreparedText(self.tail)
        return prepared

    def copy(self) -> "_Chain":
        """An independent deep copy."""
        return _Chain(
            start=self.start,
            length=self.length,
            end=self.end,
            head_positions=list(self.head_positions),
            tail=self.tail,
            prepared=self.prepared,
        )


class StreakAccumulator:
    """Mergeable per-chunk state of streak detection (§8, Table 6).

    Streak discovery is the one analysis of the paper that depends on
    *stream order* with a bounded lookbehind window, which is exactly
    what a naive chunk split destroys: a streak may span chunk
    boundaries, and whether a query founds a new streak depends on
    whether it extended one from the previous chunk.  This accumulator
    makes the computation mergeable anyway, by keeping three things per
    chunk:

    * ``head`` — the prefix-stripped texts of the chunk's first
      ``window`` queries.  An open streak arriving from the left can
      only be extended by a query within ``window`` positions of its
      tail, so the head is the complete set of candidates a left-hand
      neighbour will ever need to inspect.
    * ``chains`` — explicit records for every streak that is still
      *open* (its tail is within ``window`` of the chunk end, so queries
      to the right may extend it) or was *founded in the head region*
      (a left-hand neighbour's open streak may absorb it: had the
      streams been one, its founder would have extended that streak
      instead of founding a new one).
    * ``closed`` — a length histogram of every other streak, which no
      amount of stitching on either side can change.

    :meth:`merge` stitches a right-hand accumulator on: each of our open
    chains scans the right head for its first similar query within
    window reach; on a hit it absorbs the suffix of whatever chain that
    query belongs to (all chains containing a query share one suffix
    from it, because extending sets the same tail), and deletes the
    absorbed chain if that query *founded* it.  The result is exactly —
    chain records, tails, histogram, bytes — what one accumulator fed
    the concatenated stream holds, property-tested in
    ``tests/test_streak_accumulator.py``.

    Canonical form (load-bearing for byte-identical snapshots):
    ``chains`` is kept sorted by founding position, which is also the
    serial founding order.

    Memory bound: retained chains are lean — ``(start, length, end,
    tail, head-region positions)``, O(window) each — so a pathological
    stream that is one endless streak (e.g. a bot repeating a single
    query) holds that one chain open at *constant* size while its
    ``length`` grows.  Total accumulator state is O(window²) however
    long the stream runs, which is what lets watch-mode checkpoints
    (``repro watch``) carry open-chain records as their streak resume
    token (``tests/test_watch.py`` pins the bound).
    """

    __slots__ = (
        "window", "threshold", "length", "head", "chains", "closed",
        "_boundary", "_memo",
    )

    def __init__(
        self,
        window: int = DEFAULT_STREAK_WINDOW,
        threshold: float = DEFAULT_STREAK_THRESHOLD,
    ) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self.threshold = threshold
        self.length = 0  # queries consumed so far
        self.head: List[str] = []
        self.chains: List[_Chain] = []
        self.closed: Counter = Counter()  # streak length -> count
        #: Optional worker-precomputed decision table for the *next*
        #: chunk's head: (our chain tail, their stripped head text) ->
        #: similar?  Derived state — see :meth:`precompute_boundary`.
        self._boundary: Optional[Dict[Tuple[str, str], bool]] = None
        #: DP decisions of this scan state (see :class:`_DecisionMemo`).
        self._memo = _DecisionMemo()

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        """Every slot but the memo: a memo never rides transport.

        The same ``(None, slots)`` state the default protocol would
        build without the memo, so shipped payloads keep their bytes.
        """
        return None, {
            name: getattr(self, name) for name in self.__slots__
            if name != "_memo"
        }

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._memo = _DecisionMemo()

    # -- feeding ---------------------------------------------------------

    def push(self, query_text: str) -> None:
        """Feed the next query of the ordered stream."""
        prepared = PreparedText.from_raw(query_text)
        position = self.length
        self.length += 1
        if position < self.window:
            self.head.append(prepared.text)
        # Skip chains that fell out of the window; head-founded ones
        # stay as records because a future left-hand merge may still
        # absorb them.
        # Chains sharing a tail (extended by the same query) share one
        # decision, so memoize per distinct tail text within the push.
        decisions: Dict[str, bool] = {}
        extended = False
        for chain in self.chains:
            gap = position - chain.end
            if gap > self.window:
                continue  # retired (kept or already counted below)
            key = chain.tail
            if key in decisions:
                verdict = decisions[key]
                SIMILARITY_COUNTERS.memo_hits += 1
            else:
                verdict = prepared_similar(
                    chain.tail_prepared(), prepared, self.threshold, self._memo
                )
                decisions[key] = verdict
            if verdict:
                if position < self.window:
                    chain.head_positions.append(position)
                chain.length += 1
                chain.end = position
                chain.tail = prepared.text
                chain.prepared = prepared
                extended = True
        self._sweep_closed()
        if not extended:
            self.chains.append(
                _Chain(
                    start=position,
                    length=1,
                    end=position,
                    head_positions=[position] if position < self.window else [],
                    tail=prepared.text,
                    prepared=prepared,
                )
            )

    def _sweep_closed(self) -> None:
        """Move dead, non-head-founded chains into the histogram.

        A chain is dead once the next stream position (``self.length``)
        is already more than ``window`` past its tail — no future query
        can extend it — and immutable under stitching unless it was
        founded in the head region.  Sweeping eagerly keeps the state
        canonical: a serially-fed accumulator equals the stitched one at
        every chunk boundary, not just after a final normalization.
        """
        kept: List[_Chain] = []
        for chain in self.chains:
            if self.length - chain.end > self.window and chain.start >= self.window:
                self.closed[chain.length] += 1
            else:
                kept.append(chain)
        self.chains = kept

    # -- merging ---------------------------------------------------------

    def copy(self) -> "StreakAccumulator":
        """An independent deep copy (merge mutates the left side)."""
        duplicate = StreakAccumulator(self.window, self.threshold)
        duplicate.length = self.length
        duplicate.head = list(self.head)
        duplicate.chains = [chain.copy() for chain in self.chains]
        duplicate.closed = Counter(self.closed)
        duplicate._boundary = (
            dict(self._boundary) if self._boundary is not None else None
        )
        return duplicate

    def precompute_boundary(self, lookahead: Sequence[str]) -> None:
        """Precompute the decisions a right-hand stitch will ask for.

        *lookahead* is the raw text of the first ``window`` queries of
        the stream slice that directly follows ours — i.e. the next
        chunk's ``head``.  A worker that already holds both can score
        every (open chain tail, head text) pair the parent's
        :meth:`merge` scan will evaluate, moving that work off the
        serial merge path.  The table is consulted with an exact
        fallback on miss (chains stitched through from *earlier* chunks
        carry tails this worker never saw), so byte-identity is trivial:
        the same :func:`prepared_similar` computes both sides.

        The scan order and early-``break`` mirror :meth:`merge` exactly,
        which also means no decision is computed that the merge could
        not ask for.  Reach arithmetic is frame-independent: at merge
        time the gap to a chain is ``merged_length - shifted_end``,
        equal to our local ``length - end``.
        """
        table: Dict[Tuple[str, str], bool] = {}
        prepared_head = [
            PreparedText.from_raw(text) for text in lookahead[: self.window]
        ]
        for chain in self.chains:
            reach = self.window - (self.length - chain.end)
            if reach < 0:
                continue  # retired: the stitch will skip it too
            tail = chain.tail_prepared()
            for prepared in prepared_head[: reach + 1]:
                key = (tail.text, prepared.text)
                if key in table:
                    verdict = table[key]
                else:
                    verdict = table[key] = prepared_similar(
                        tail, prepared, self.threshold, self._memo
                    )
                if verdict:
                    break
        self._boundary = table

    def merge(self, other: "StreakAccumulator") -> "StreakAccumulator":
        """Stitch *other* — the accumulator of the stream slice that
        directly follows ours — onto this one, in place.

        Exactness argument: once a query q extends a streak, the streak's
        tail and end equal q's, so every chain containing q evolves
        identically from q on.  An open chain from the left therefore
        only needs its *first* similar in-window query on the right —
        from there its future is the recorded suffix of q's chain.  And
        a query founds a chain iff it extended nothing, so the only
        right-hand chains the stitch can delete are those founded by a
        query that now extends an incoming chain.
        """
        if other.window != self.window or other.threshold != self.threshold:
            raise ValueError(
                "cannot merge streak accumulators with different "
                f"window/threshold: ({self.window}, {self.threshold}) vs "
                f"({other.window}, {other.threshold})"
            )
        offset = self.length
        window = self.window

        # Which right-hand chain does each head position belong to, and
        # at which member index?  All chains containing a position share
        # its suffix, so the first (canonical order) is as good as any.
        # Head positions are the first members of their chain (positions
        # strictly increase), so the index within ``head_positions`` is
        # the member index.
        position_index: Dict[int, Tuple[_Chain, int]] = {}
        for chain in other.chains:
            for index, position in enumerate(chain.head_positions):
                position_index.setdefault(position, (chain, index))

        # Scan the right head once per incoming open chain.  Workers
        # precompute these decisions against their successor's head
        # (see precompute_boundary); the table is authoritative on hit —
        # same prepared_similar, same inputs — and misses (tails
        # stitched through from earlier chunks) fall back to computing
        # the decision here, through a memo of this stitch: chains
        # extended by one query share a tail, so the same pair comes
        # back within one stitch.  Not a scan state's own memo: a
        # shipped accumulator arrives with an empty one, so consulting
        # it here would make the counters depend on where the chunk ran.
        boundary = self._boundary
        memo = _DecisionMemo()
        absorbed_founders = set()
        extensions: List[Tuple[_Chain, int]] = []
        prepared_head: List[Optional[PreparedText]] = [None] * len(other.head)
        for chain in self.chains:
            reach = window - (offset - chain.end)
            if reach < 0:
                continue  # retired: no future query can reach it
            tail = chain.tail
            tail_prepared: Optional[PreparedText] = None
            for position, stripped in enumerate(other.head[: reach + 1]):
                if boundary is not None and (tail, stripped) in boundary:
                    verdict = boundary[(tail, stripped)]
                    SIMILARITY_COUNTERS.boundary_hits += 1
                else:
                    if tail_prepared is None:
                        tail_prepared = chain.tail_prepared()
                    candidate = prepared_head[position]
                    if candidate is None:
                        candidate = prepared_head[position] = PreparedText(stripped)
                    verdict = prepared_similar(
                        tail_prepared, candidate, self.threshold, memo
                    )
                if verdict:
                    extensions.append((chain, position))
                    break
        for chain, position in extensions:
            try:
                source, index = position_index[position]
            except KeyError:  # pragma: no cover - accumulator invariant
                raise RuntimeError(
                    f"streak stitch: head position {position} belongs to "
                    "no recorded chain"
                ) from None
            if index == 0:
                # *source* was founded by this query: a query founds a
                # chain iff it extended nothing, so a founding position
                # appears in exactly one chain, at member index 0.
                absorbed_founders.add(position)
            # Absorb the suffix of *source* from member *index* on: the
            # absorbed members shifted by *offset* land in our head
            # region only if they were right-hand head positions that
            # shift below the window.
            chain.length += source.length - index
            chain.end = source.end + offset
            if offset < window:
                chain.head_positions.extend(
                    member + offset
                    for member in source.head_positions[index:]
                    if member + offset < window
                )
            chain.tail = source.tail
            chain.prepared = source.prepared

        # Assemble: surviving right-hand chains shift into our frame.
        merged = list(self.chains)
        for chain in other.chains:
            if chain.start in absorbed_founders:
                continue
            merged.append(
                _Chain(
                    start=chain.start + offset,
                    length=chain.length,
                    end=chain.end + offset,
                    head_positions=[
                        member + offset
                        for member in chain.head_positions
                        if member + offset < window
                    ],
                    tail=chain.tail,
                    prepared=chain.prepared,
                )
            )
        self.closed.update(other.closed)
        self.length += other.length
        if offset < window:
            self.head.extend(other.head[: window - offset])
        # The next stitch scans the head of *other*'s successor; adopt
        # its precomputed decisions (None if it had none).
        self._boundary = other._boundary

        # Canonicalize: founding order, and close everything that is
        # now neither open nor head-founded.
        merged.sort(key=lambda chain: chain.start)
        kept: List[_Chain] = []
        for chain in merged:
            open_ = self.length - chain.end <= window
            if open_ or chain.start < window:
                kept.append(chain)
            else:
                self.closed[chain.length] += 1
        self.chains = kept
        return self

    # -- results ---------------------------------------------------------

    @property
    def streak_count(self) -> int:
        """Total streaks detected so far, open ones included."""
        return len(self.chains) + sum(self.closed.values())

    @property
    def longest(self) -> int:
        """Length of the longest streak (0 on an empty stream)."""
        longest_open = max((chain.length for chain in self.chains), default=0)
        longest_closed = max(
            (length for length, count in self.closed.items() if count), default=0
        )
        return max(longest_open, longest_closed)

    def length_histogram(self) -> Dict[str, int]:
        """The Table 6 row histogram, every bucket present in row order.

        Equals the serial reference scan's histogram
        (``tests/oracles.py``) for the stream this accumulator (or its
        merged parts) consumed.
        """
        histogram: Dict[str, int] = {label: 0 for label in BUCKET_LABELS}
        for length, count in self.closed.items():
            histogram[bucket_label(length)] += count
        for chain in self.chains:
            histogram[bucket_label(chain.length)] += 1
        return histogram

    # -- equality / snapshots -------------------------------------------

    def _key(self) -> Tuple[Any, ...]:
        return (
            self.window,
            self.threshold,
            self.length,
            tuple(self.head),
            tuple(
                (c.start, c.length, c.end, tuple(c.head_positions), c.tail)
                for c in self.chains
            ),
            frozenset(self.closed.items()),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreakAccumulator):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (
            f"StreakAccumulator(window={self.window}, "
            f"threshold={self.threshold}, length={self.length}, "
            f"streaks={self.streak_count})"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native snapshot in canonical form (sorted ``closed``
        pairs, chains in founding order) — serial and stitched runs of
        the same stream serialize to identical bytes.  The inverse
        lives in :mod:`repro.analysis.snapshot`."""
        return {
            "window": self.window,
            "threshold": self.threshold,
            "length": self.length,
            "head": list(self.head),
            "chains": [
                {
                    "start": chain.start,
                    "length": chain.length,
                    "end": chain.end,
                    "head_positions": list(chain.head_positions),
                    "tail": chain.tail,
                }
                for chain in self.chains
            ],
            "closed": [
                [length, count] for length, count in sorted(self.closed.items())
            ],
        }
