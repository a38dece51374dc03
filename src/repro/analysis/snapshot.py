"""Versioned JSON snapshots of study results.

A :class:`~repro.analysis.study.CorpusStudy` is the paper's artifact —
the thing worth checkpointing, shipping between machines, and merging
across fleet shards — so this module gives it (and
:class:`~repro.analysis.study.DatasetStats` /
:class:`~repro.analysis.passes.PassProfile`) a stable, versioned
``to_dict``/``from_dict`` pair plus :func:`save_study`/:func:`load_study`
file helpers.

Design constraints, all load-bearing:

* **Zero-count preservation.**  Counters are serialized as ordered
  ``[key, count]`` pair lists, not JSON objects, so explicitly-recorded
  zero buckets survive (they change table shapes) and non-string keys
  (triple-size ints, treewidth ints) keep their type.
* **Insertion-order preservation.**  Counter key order breaks ties in
  ``Counter.most_common`` and therefore in rendered tables; pair lists
  round-trip it exactly, which is what makes
  ``merge(load(a), load(b))`` byte-identical (rendered report) to
  merging in memory.
* **Schema checking.**  Every snapshot carries ``schema`` and ``kind``
  headers; :func:`study_from_dict` raises
  :class:`~repro.exceptions.StudySnapshotError` — never a silent
  best-effort load — on version or shape mismatches.
* **Loud evolution.**  Fields are enumerated by dataclass
  introspection (like ``CorpusStudy.merge``): a future metric added to
  the dataclass is serialized automatically or rejected loudly, never
  silently dropped from snapshots.

Operator-set keys (``frozenset`` of letters) are stored as sorted
letter strings (``"AFO"``); the set itself is order-free, so the
round trip is exact.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Union

from ..exceptions import StudySnapshotError
from ..ioutils import atomic_write_bytes
from .passes import PassProfile
from .streaks import StreakAccumulator, _Chain
from .study import CorpusStudy, DatasetStats

__all__ = [
    "COMPATIBLE_SCHEMA_VERSIONS",
    "SCHEMA_VERSION",
    "STUDY_KIND",
    "encode_study",
    "load_study",
    "profile_from_dict",
    "profile_to_dict",
    "save_study",
    "stats_from_dict",
    "stats_to_dict",
    "streaks_from_dict",
    "streaks_to_dict",
    "study_from_dict",
    "study_to_dict",
]

#: Version of the snapshot layout.  Bump on any incompatible change
#: and teach :func:`study_from_dict` to migrate — or to refuse loudly.
#: Version 2 added the per-dataset ``streaks`` accumulator (Table 6).
#: Version 3 switched streak chains to the lean representation
#: (start/length/end/head_positions instead of full member-position
#: lists), making open-chain state O(window) per chain.  Dropping the
#: pass profile's ``store_hits`` counter (3.0) needed no bump: readers
#: that predate the key default it to 0, and :func:`profile_from_dict`
#: ignores it in profiles written by 2.x.
SCHEMA_VERSION = 3

#: Versions :func:`study_from_dict` can read.  Version 1 predates the
#: streak accumulator: its datasets load with ``streaks = None``.
#: Version 2 chains carry full member-position lists and are converted
#: to the lean representation on load.
COMPATIBLE_SCHEMA_VERSIONS = (1, 2, SCHEMA_VERSION)

#: The ``kind`` header of a corpus-study snapshot.
STUDY_KIND = "repro.corpus_study"


# ---------------------------------------------------------------------------
# Counter <-> pair-list codecs
# ---------------------------------------------------------------------------


def _encode_counter(counter: Counter) -> List[List[Any]]:
    """Counter → ordered ``[key, count]`` pairs (zeros preserved)."""
    return [[key, count] for key, count in counter.items()]


def _decode_counter(pairs: Any, where: str) -> Counter:
    counter: Counter = Counter()
    if not isinstance(pairs, list):
        raise StudySnapshotError(f"{where}: expected a list of [key, count] pairs")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise StudySnapshotError(f"{where}: malformed pair {pair!r}")
        key, count = pair
        # Only str/int keys exist in the schema; anything else (e.g. a
        # nested list from a corrupted file) must fail as a snapshot
        # error, not as an unhashable-key TypeError mid-load.
        if not isinstance(key, (str, int)) or isinstance(key, bool):
            raise StudySnapshotError(f"{where}: key {key!r} is not a string or int")
        if not isinstance(count, int) or isinstance(count, bool):
            raise StudySnapshotError(f"{where}: count for {key!r} is not an int")
        counter[key] = count
    return counter


def _encode_operator_sets(counter: Counter) -> List[List[Any]]:
    """``frozenset`` letter keys → sorted strings (``frozenset("AFO")``
    round-trips exactly; sets carry no order to lose)."""
    return [["".join(sorted(letters)), count] for letters, count in counter.items()]


def _decode_operator_sets(pairs: Any, where: str) -> Counter:
    decoded = _decode_counter(pairs, where)
    counter: Counter = Counter()
    for letters, count in decoded.items():
        if not isinstance(letters, str):
            raise StudySnapshotError(f"{where}: operator-set key {letters!r} is not a string")
        counter[frozenset(letters)] = count
    return counter


def _require(data: Dict[str, Any], key: str, where: str) -> Any:
    try:
        return data[key]
    except KeyError:
        raise StudySnapshotError(f"{where}: missing field {key!r}") from None


def _require_int(data: Dict[str, Any], key: str, where: str) -> int:
    value = _require(data, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise StudySnapshotError(f"{where}: field {key!r} is not an int")
    return value


# ---------------------------------------------------------------------------
# StreakAccumulator
# ---------------------------------------------------------------------------


def streaks_to_dict(accumulator: StreakAccumulator) -> Dict[str, Any]:
    """Serialize streak-detection state in canonical form.

    The accumulator itself produces the canonical layout (chains in
    founding order, ``closed`` pairs sorted by length), so serial and
    stitched runs of the same stream serialize to identical bytes."""
    return accumulator.to_dict()


def _decode_chain(entry: Any, where: str, window: int, length: int) -> _Chain:
    """Decode one streak chain, either layout, with invariant checks.

    Schema 3 chains are lean (``start``/``length``/``end``/
    ``head_positions``); schema 2 chains carry full member-position
    lists and are converted on load.  Cross-field invariants the merge
    arithmetic relies on must fail here, not as wrong Table 6 numbers
    after a later merge.
    """
    if not isinstance(entry, dict):
        raise StudySnapshotError(f"{where}: malformed chain {entry!r}")
    tail = _require(entry, "tail", where)
    if not isinstance(tail, str):
        raise StudySnapshotError(f"{where}: malformed chain {entry!r}")
    if "positions" in entry:  # schema <= 2: full member-position list
        positions = entry["positions"]
        if (
            not isinstance(positions, list)
            or not positions
            or not all(
                isinstance(p, int) and not isinstance(p, bool) for p in positions
            )
        ):
            raise StudySnapshotError(f"{where}: malformed chain {entry!r}")
        if positions[0] < 0 or positions[-1] >= length or any(
            later <= earlier for earlier, later in zip(positions, positions[1:])
        ):
            raise StudySnapshotError(
                f"{where}: chain positions {positions!r} are not strictly "
                f"increasing indices below length {length}"
            )
        return _Chain(
            start=positions[0],
            length=len(positions),
            end=positions[-1],
            head_positions=[p for p in positions if p < window],
            tail=tail,
        )
    start = _require_int(entry, "start", where)
    members = _require_int(entry, "length", where)
    end = _require_int(entry, "end", where)
    head_positions = _require(entry, "head_positions", where)
    if not isinstance(head_positions, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in head_positions
    ):
        raise StudySnapshotError(f"{where}: malformed chain {entry!r}")
    # Member positions are strictly increasing stream indices, so any
    # chain satisfies start <= end < stream length and holds between
    # 1 + (end > start) and end - start + 1 members.
    if not (0 <= start <= end < length):
        raise StudySnapshotError(
            f"{where}: chain span [{start}, {end}] is not within the "
            f"consumed stream of length {length}"
        )
    if members < 1 + (end > start) or members > end - start + 1:
        raise StudySnapshotError(
            f"{where}: chain of {members} member(s) cannot span "
            f"[{start}, {end}]"
        )
    if any(
        later <= earlier
        for earlier, later in zip(head_positions, head_positions[1:])
    ):
        raise StudySnapshotError(
            f"{where}: chain head positions {head_positions!r} are not "
            "strictly increasing"
        )
    # Head-region positions are the chain's first members: present and
    # founder-anchored exactly when the founder is in the head region.
    if start < window:
        if (
            not head_positions
            or head_positions[0] != start
            or head_positions[-1] > end
            or head_positions[-1] >= window
            or len(head_positions) > members
        ):
            raise StudySnapshotError(
                f"{where}: chain head positions {head_positions!r} do not "
                f"anchor a chain founded at {start} inside window {window}"
            )
    elif head_positions:
        raise StudySnapshotError(
            f"{where}: chain founded at {start} beyond window {window} "
            f"cannot hold head positions {head_positions!r}"
        )
    return _Chain(
        start=start,
        length=members,
        end=end,
        head_positions=list(head_positions),
        tail=tail,
    )


def streaks_from_dict(data: Any, where: str) -> StreakAccumulator:
    """Rebuild a :class:`StreakAccumulator`; raises on malformed input."""
    if not isinstance(data, dict):
        raise StudySnapshotError(f"{where}: expected an object")
    window = _require_int(data, "window", where)
    if window < 1:
        raise StudySnapshotError(f"{where}: 'window' must be >= 1")
    threshold = _require(data, "threshold", where)
    if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
        raise StudySnapshotError(f"{where}: 'threshold' is not a number")
    if not 0.0 <= float(threshold) <= 1.0:  # also rejects NaN
        raise StudySnapshotError(
            f"{where}: 'threshold' must be within [0, 1], got {threshold!r}"
        )
    accumulator = StreakAccumulator(window=window, threshold=float(threshold))
    length = _require_int(data, "length", where)
    if length < 0:
        raise StudySnapshotError(f"{where}: 'length' must be >= 0")
    accumulator.length = length
    head = _require(data, "head", where)
    if not isinstance(head, list) or not all(isinstance(t, str) for t in head):
        raise StudySnapshotError(f"{where}: 'head' must be a string list")
    if len(head) != min(window, length):
        raise StudySnapshotError(
            f"{where}: 'head' must hold min(window, length) = "
            f"{min(window, length)} texts, got {len(head)}"
        )
    accumulator.head = list(head)
    chains = _require(data, "chains", where)
    if not isinstance(chains, list):
        raise StudySnapshotError(f"{where}: 'chains' must be a list")
    for entry in chains:
        accumulator.chains.append(
            _decode_chain(entry, f"{where}.chains", window, length)
        )
    closed = _decode_counter(_require(data, "closed", where), f"{where}.closed")
    for streak_length, count in closed.items():
        if not isinstance(streak_length, int) or streak_length < 1:
            raise StudySnapshotError(
                f"{where}: closed-streak length {streak_length!r} is not a "
                "positive int"
            )
        if count < 0:
            raise StudySnapshotError(
                f"{where}: closed-streak count for length {streak_length} "
                "is negative"
            )
    accumulator.closed = closed
    return accumulator


# ---------------------------------------------------------------------------
# DatasetStats
# ---------------------------------------------------------------------------


def stats_to_dict(stats: DatasetStats) -> Dict[str, Any]:
    """Serialize per-dataset accumulators (JSON-native values only)."""
    data: Dict[str, Any] = {}
    for field_info in fields(DatasetStats):
        value = getattr(stats, field_info.name)
        if field_info.name == "streaks":
            data[field_info.name] = None if value is None else streaks_to_dict(value)
        elif isinstance(value, Counter):
            data[field_info.name] = _encode_counter(value)
        elif isinstance(value, (int, str)):
            data[field_info.name] = value
        else:  # pragma: no cover - guards future fields
            raise TypeError(
                f"DatasetStats snapshot: no encoding for field "
                f"{field_info.name!r} of type {type(value).__name__}"
            )
    return data


def stats_from_dict(data: Any) -> DatasetStats:
    """Rebuild :class:`DatasetStats`; raises on malformed input."""
    if not isinstance(data, dict):
        raise StudySnapshotError("dataset stats: expected an object")
    name = _require(data, "name", "dataset stats")
    if not isinstance(name, str):
        raise StudySnapshotError("dataset stats: 'name' is not a string")
    where = f"dataset {name!r}"
    stats = DatasetStats(name=name)
    for field_info in fields(DatasetStats):
        if field_info.name == "name":
            continue
        if field_info.name == "streaks":
            # .get, not _require: schema-1 snapshots predate streaks and
            # load as None (see COMPATIBLE_SCHEMA_VERSIONS).
            streaks_data = data.get("streaks")
            if streaks_data is not None:
                stats.streaks = streaks_from_dict(streaks_data, f"{where}.streaks")
            continue
        template = getattr(stats, field_info.name)
        if isinstance(template, Counter):
            setattr(
                stats,
                field_info.name,
                _decode_counter(
                    _require(data, field_info.name, where),
                    f"{where}.{field_info.name}",
                ),
            )
        else:
            setattr(stats, field_info.name, _require_int(data, field_info.name, where))
    return stats


# ---------------------------------------------------------------------------
# PassProfile
# ---------------------------------------------------------------------------


def profile_to_dict(profile: PassProfile) -> Dict[str, Any]:
    """Serialize a pass profile (wall times are floats; everything else int)."""
    return {
        "seconds": dict(profile.seconds),
        "queries": profile.queries,
        "cache_hits": profile.cache_hits,
        "cache_misses": profile.cache_misses,
        "chunks_shipped": profile.chunks_shipped,
        "shipped_bytes": profile.shipped_bytes,
        "merge_seconds": profile.merge_seconds,
    }


def profile_from_dict(data: Any) -> PassProfile:
    """Rebuild a :class:`PassProfile`; raises on malformed input."""
    if not isinstance(data, dict):
        raise StudySnapshotError("pass profile: expected an object")
    seconds = _require(data, "seconds", "pass profile")
    if not isinstance(seconds, dict) or not all(
        isinstance(name, str) and isinstance(elapsed, (int, float))
        for name, elapsed in seconds.items()
    ):
        raise StudySnapshotError("pass profile: 'seconds' must map pass names to numbers")
    # Later-vintage counters (the transport trio with the parallel
    # runtime): profiles snapshotted before them simply read 0.  A
    # ``store_hits`` key, written by 2.x, is ignored.
    optional_ints = {}
    for key in ("chunks_shipped", "shipped_bytes"):
        value = data.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise StudySnapshotError(f"pass profile: '{key}' must be an integer")
        optional_ints[key] = value
    merge_seconds = data.get("merge_seconds", 0.0)
    if not isinstance(merge_seconds, (int, float)) or isinstance(merge_seconds, bool):
        raise StudySnapshotError("pass profile: 'merge_seconds' must be a number")
    return PassProfile(
        seconds={name: float(elapsed) for name, elapsed in seconds.items()},
        queries=_require_int(data, "queries", "pass profile"),
        cache_hits=_require_int(data, "cache_hits", "pass profile"),
        cache_misses=_require_int(data, "cache_misses", "pass profile"),
        merge_seconds=float(merge_seconds),
        **optional_ints,
    )


# ---------------------------------------------------------------------------
# CorpusStudy
# ---------------------------------------------------------------------------

#: Fields with bespoke encodings; everything else must be an int or a
#: Counter.  Derived from the merge machinery's special-field set so
#: the codec and ``CorpusStudy.merge`` stay in lockstep when a future
#: field needs bespoke handling — plus ``operator_sets``, which merges
#: generically (Counter) but needs a codec for its frozenset keys.
_SPECIAL_STUDY_FIELDS = CorpusStudy._SPECIAL_MERGE_FIELDS | {"operator_sets"}


def study_to_dict(study: CorpusStudy) -> Dict[str, Any]:
    """Serialize a study to a JSON-native, versioned dict.

    The inverse of :func:`study_from_dict`:
    ``study_from_dict(study_to_dict(s)) == s`` (and renders the same
    report bytes), for any study the drivers can produce.
    """
    data: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": STUDY_KIND,
        "dedup": study.dedup,
        "datasets": {
            name: stats_to_dict(stats) for name, stats in study.datasets.items()
        },
        "operator_sets": _encode_operator_sets(study.operator_sets),
        "shape_counts": {
            fragment: _encode_counter(counts)
            for fragment, counts in study.shape_counts.items()
        },
        "treewidth_counts": {
            fragment: _encode_counter(counts)
            for fragment, counts in study.treewidth_counts.items()
        },
        "path_type_k": {name: list(ks) for name, ks in study.path_type_k.items()},
        "non_ctract": list(study.non_ctract),
        "pass_profile": (
            None if study.pass_profile is None else profile_to_dict(study.pass_profile)
        ),
    }
    for field_info in fields(CorpusStudy):
        if field_info.name in _SPECIAL_STUDY_FIELDS:
            continue
        value = getattr(study, field_info.name)
        if isinstance(value, Counter):
            data[field_info.name] = _encode_counter(value)
        elif isinstance(value, int):
            data[field_info.name] = value
        else:
            raise TypeError(
                f"CorpusStudy snapshot: no encoding for field "
                f"{field_info.name!r} of type {type(value).__name__}; add it "
                f"to the snapshot codec alongside its merge rule"
            )
    return data


def study_from_dict(data: Any) -> CorpusStudy:
    """Rebuild a :class:`CorpusStudy` from :func:`study_to_dict` output.

    Every structural problem — wrong schema version, wrong kind,
    missing or mistyped fields — raises
    :class:`~repro.exceptions.StudySnapshotError` with a message naming
    the offending field.
    """
    if not isinstance(data, dict):
        raise StudySnapshotError("study snapshot: expected a JSON object")
    schema = data.get("schema")
    if schema not in COMPATIBLE_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in COMPATIBLE_SCHEMA_VERSIONS)
        raise StudySnapshotError(
            f"study snapshot: unsupported schema version {schema!r} "
            f"(this build reads versions {supported})"
        )
    kind = data.get("kind")
    if kind != STUDY_KIND:
        raise StudySnapshotError(
            f"study snapshot: unexpected kind {kind!r} (expected {STUDY_KIND!r})"
        )
    dedup = _require(data, "dedup", "study snapshot")
    if not isinstance(dedup, bool):
        raise StudySnapshotError("study snapshot: 'dedup' is not a bool")
    study = CorpusStudy(dedup=dedup)

    datasets = _require(data, "datasets", "study snapshot")
    if not isinstance(datasets, dict):
        raise StudySnapshotError("study snapshot: 'datasets' is not an object")
    for name, stats_data in datasets.items():
        stats = stats_from_dict(stats_data)
        if stats.name != name:
            raise StudySnapshotError(
                f"study snapshot: dataset key {name!r} disagrees with "
                f"stats name {stats.name!r}"
            )
        study.datasets[name] = stats

    study.operator_sets = _decode_operator_sets(
        _require(data, "operator_sets", "study snapshot"), "operator_sets"
    )
    for attr in ("shape_counts", "treewidth_counts"):
        raw = _require(data, attr, "study snapshot")
        if not isinstance(raw, dict):
            raise StudySnapshotError(f"study snapshot: {attr!r} is not an object")
        decoded = {
            fragment: _decode_counter(pairs, f"{attr}[{fragment}]")
            for fragment, pairs in raw.items()
        }
        # The renderers index the CQ/CQF/CQOF fragments unconditionally
        # (they are part of the schema, zero counters included), so a
        # snapshot missing one must fail here, not as a KeyError later.
        for fragment in getattr(study, attr):
            if fragment not in decoded:
                raise StudySnapshotError(
                    f"study snapshot: {attr} is missing fragment {fragment!r}"
                )
        setattr(study, attr, decoded)
    path_type_k = _require(data, "path_type_k", "study snapshot")
    if not isinstance(path_type_k, dict) or not all(
        isinstance(name, str)
        and isinstance(ks, list)
        and all(isinstance(k, int) for k in ks)
        for name, ks in path_type_k.items()
    ):
        raise StudySnapshotError(
            "study snapshot: 'path_type_k' must map path types to int lists"
        )
    study.path_type_k = {name: list(ks) for name, ks in path_type_k.items()}
    non_ctract = _require(data, "non_ctract", "study snapshot")
    if not isinstance(non_ctract, list) or not all(
        isinstance(text, str) for text in non_ctract
    ):
        raise StudySnapshotError("study snapshot: 'non_ctract' must be a string list")
    study.non_ctract = list(non_ctract)
    profile_data = _require(data, "pass_profile", "study snapshot")
    if profile_data is not None:
        study.pass_profile = profile_from_dict(profile_data)

    for field_info in fields(CorpusStudy):
        if field_info.name in _SPECIAL_STUDY_FIELDS:
            continue
        template = getattr(study, field_info.name)
        if isinstance(template, Counter):
            setattr(
                study,
                field_info.name,
                _decode_counter(
                    _require(data, field_info.name, "study snapshot"),
                    field_info.name,
                ),
            )
        else:
            setattr(
                study,
                field_info.name,
                _require_int(data, field_info.name, "study snapshot"),
            )
    return study


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


#: gzip member header magic (RFC 1952) — the same detection idiom the
#: log-ingestion layer uses (:mod:`repro.logs.sources`).
_GZIP_MAGIC = b"\x1f\x8b"


def encode_study(study: CorpusStudy) -> str:
    """*study* as compact snapshot JSON: :func:`save_study`'s file
    without its final newline."""
    return json.dumps(study_to_dict(study), separators=(",", ":"))


def save_study(study: CorpusStudy, path: Union[str, Path]) -> None:
    """Write *study* to *path* as a compact JSON snapshot.

    Compact separators keep the encode in the json module's C encoder
    (``indent`` forces the pure-Python one) and the file about a
    quarter smaller.  :func:`load_study` reads compact and indented
    snapshots alike, and ``repro report FILE --format json`` prints
    the indented view.

    A path ending in ``.gz`` (e.g. ``study.json.gz``) is written
    gzip-compressed, with a zeroed timestamp so equal studies produce
    byte-identical files.  The write is atomic (same-directory temp
    file + rename): a crash or interrupt mid-save leaves the previous
    snapshot intact rather than a truncated file that
    :func:`load_study` would reject.
    """
    payload = (encode_study(study) + "\n").encode("utf-8")
    if Path(path).suffix == ".gz":
        payload = gzip.compress(payload, mtime=0)
    atomic_write_bytes(path, payload)


def load_study(path: Union[str, Path]) -> CorpusStudy:
    """Load a snapshot written by :func:`save_study`.

    gzip-compressed snapshots are recognized by their magic bytes, not
    the file name, so a misnamed ``study.json`` that is actually
    gzipped still loads.  Raises
    :class:`~repro.exceptions.StudySnapshotError` for unreadable or
    mis-versioned content (I/O errors propagate as ``OSError``)."""
    raw = Path(path).read_bytes()
    if raw[: len(_GZIP_MAGIC)] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError) as error:
            raise StudySnapshotError(
                f"{path}: truncated or corrupt gzip data ({error})"
            ) from error
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as error:
        raise StudySnapshotError(f"{path}: not UTF-8 text ({error})") from error
    except json.JSONDecodeError as error:
        raise StudySnapshotError(f"{path}: not valid JSON ({error})") from error
    return study_from_dict(data)
