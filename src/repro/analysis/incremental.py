"""Incremental always-on analysis: the engine behind ``repro watch``.

The batch pipeline answers "what does this log say"; this module
answers it *continuously*: tail growing log files (or directories of
them), feed only the new suffix through the existing pass pipeline,
and fold the result into a running :class:`CorpusStudy` checkpoint —
exploiting the fact that every accumulator in the system already
merges in stream order.

Three pieces make the fold exact (invariant 12 in
``docs/ARCHITECTURE.md``: the checkpointed study is byte-identical to
a one-shot ``repro analyze`` of the full log, for *any* split into
watch cycles):

* **Resumable source cursors.**  Each tailed file carries a logical
  byte offset (raw bytes for plain files, decompressed bytes for gzip
  — recognized by magic, and readable across appended gzip members)
  plus a SHA-256 fingerprint of the consumed prefix.  Every cycle
  re-verifies the fingerprint while skipping the prefix, so a
  truncated, rotated, or rewritten source raises
  :class:`~repro.exceptions.WatchStateError` instead of silently
  double-counting history.  Cycles advance only past *complete* entry
  boundaries (the last newline; for block format, the last blank
  line), so a writer flushing mid-entry never splits one, nor the end
  of a gzip member not yet flushed; ``drain`` consumes the
  unterminated tail on a final cycle (an unfinished member fails).
* **Cross-cycle deduplication.**  Table 1's Unique column and every
  main-body measurement run over first occurrences.  The checkpoint
  carries the SHA-256 digests of all unique valid texts counted, so
  each cycle measures exactly the queries whose first occurrence falls
  in its slice — concatenated across cycles, that is precisely the
  one-shot unique stream, in order.
* **Streak resume tokens.**  The per-dataset
  :class:`~repro.analysis.streaks.StreakAccumulator` snapshots with
  the study; its open-chain records (lean: O(window) per chain,
  however long the streak) are the resume state.  Each cycle pushes
  the dataset's new raw entries, in order, onto that live
  accumulator, so the scan simply continues: nothing is stitched, and
  the scan's bounded decision memo stays warm across cycles.

The checkpoint keeps one cumulative study *per dataset* and derives
the combined study by merging them in input order — the same stitch
the sharded drivers use — so datasets growing in interleaved cycles
still report with exactly the one-shot counter order (one-shot runs
fold each dataset to completion before the next).

A session does each fold once, following the semi-naïve rule (derive
only from the new facts).  A text whose digest its dataset already
holds was Valid under the prefix environment the checkpoint's config
fixes, so it counts toward Total and Valid without being parsed: a
cycle parses only the texts its datasets have not counted (invalid
texts are parsed again each time they recur).  The session stitches
the combined study, flattens it to long rows and encodes it, once per
change of its per-dataset studies: idle cycles do none of it.  Each
cycle's diff takes the previous cycle's rows as its "before" side;
``study.json`` is the encoding plus a newline.
The checkpoint is assembled from per-dataset fragments: each
dataset's encoded seen-digest list and study are memoized until a
cycle changes that dataset's study (a loaded checkpoint starts with
none), so a cycle re-encodes only the datasets it grew, and the
assembled document is byte for byte the compact encoding of the whole.
With a warehouse, the session stores that combined study as the
warehouse part it owns, handing over its encoding and long rows, so
the warehouse renders exactly the checkpoint and neither encodes nor
flattens it again.  It writes until one write of the current study
succeeds: a kill or :class:`~repro.exceptions.WarehouseError` after
the checkpoint heals on the next cycle, idle or not.  The one writable
handle, opened at the first write and held until
:meth:`WatchSession.close`, keeps the parts it wrote, so steady cycles
never decode them; a ``WarehouseError`` drops it.

Durability: cursors, seen-digests, and the per-dataset study snapshots
are one JSON *checkpoint* document written with a single atomic
replace — a crashed or SIGKILLed cycle leaves either the previous
checkpoint or the new one, never a torn cursor/study pair, so
resuming re-reads at most one suffix (``tests/test_watch.py``
kill-tests this).  A convenience copy of the combined study is kept
next to it for ``repro report`` / ``repro merge``; it is derived
state, rewritten every cycle.

Limits, by design: watch analyses the Unique corpus (``dedup=True``)
only; the entry format of a file is detected once, at its first
non-empty cycle, and pinned; and directory sources assume files grow
append-only in sorted name order (the one-shot concatenation order).
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..exceptions import StudySnapshotError, WarehouseError, WatchStateError
from ..ioutils import atomic_write_text
from ..logs.pipeline import LogShard, process_entries
from ..logs.sources import (
    _PARSERS,
    DETECT_LINES,
    IncompleteGzip,
    dataset_name,
    detect_format,
    open_binary,
    source_paths,
)
from .context import AnalysisOptions, StructureCache
from .parallel import measure_chunk
from .passes import resolve_passes, sequence_only_selection, streaks_selected
from .snapshot import encode_study, study_from_dict, study_to_dict
from .streaks import StreakAccumulator
from .study import CorpusStudy

if TYPE_CHECKING:
    from ..warehouse import StudyWarehouse

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA_VERSION",
    "WatchCycle",
    "WatchSession",
]

#: ``kind`` header of a watch checkpoint document.
CHECKPOINT_KIND = "repro.watch_checkpoint"

#: Version of the checkpoint layout (the embedded study dicts carry
#: their own snapshot schema version and migrate independently, so a
#: checkpoint written before a snapshot schema bump keeps loading).
CHECKPOINT_SCHEMA_VERSION = 1

#: File names inside a watch state directory.
CHECKPOINT_NAME = "checkpoint.json"
STUDY_NAME = "study.json"

_READ_CHUNK = 1 << 20

#: One cell of a study's long rows: (section, row, column, value).
_LongRow = Tuple[str, str, str, str]


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _compact(value: Any) -> str:
    """*value* as compact JSON, the checkpoint's encoding."""
    return json.dumps(value, separators=(",", ":"))


def _stitch(
    studies: Mapping[str, CorpusStudy], names: Sequence[str]
) -> Tuple[CorpusStudy, List[_LongRow], str]:
    """The combined study of *studies*, merged in *names* order, its
    long rows (the cells the cycle diff compares) and its compact
    snapshot encoding (``study.json`` and the warehouse part)."""
    # Reporting imports lazily: analysis must stay importable without
    # the reporting layer (and vice versa).
    from ..reporting.reporters import study_long_rows

    combined = CorpusStudy(dedup=True)
    for name in names:
        combined.merge(studies[name])
    return combined, study_long_rows(combined), encode_study(combined)


def _consumable_length(data: bytes, format: str, drain: bool) -> int:
    """Length of the longest prefix of *data* ending at an entry boundary.

    Line formats cut after the last newline; block format cuts after
    the last blank separator line, so a block still being written is
    never split.  ``drain`` consumes everything — only correct when
    the writer has finished (the final scheduled cycle).
    """
    if drain:
        return len(data)
    if format == "blocks":
        cut = position = 0
        while True:
            newline = data.find(b"\n", position)
            if newline < 0:
                return cut
            if not data[position:newline].strip():
                cut = newline + 1
            position = newline + 1
    cut = data.rfind(b"\n")
    return 0 if cut < 0 else cut + 1


def _region_lines(data: bytes) -> List[str]:
    """Decode a consumed region exactly as :func:`open_text` would.

    Same wrapper class, same encoding, same ``errors="replace"``, same
    universal-newline translation — and regions always split right
    after ``\\n``, which no UTF-8 multi-byte sequence or ``\\r\\n``
    pair can straddle, so region-wise decoding equals whole-file
    decoding.
    """
    wrapper = io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="replace"
    )
    return [line.rstrip("\n") for line in wrapper]


@dataclass
class _SourceCursor:
    """Resume state of one tailed file."""

    path: str
    format: Optional[str] = None  # pinned at the first non-empty read
    offset: int = 0  # consumed logical bytes
    fingerprint: str = ""  # sha256 of the consumed logical prefix

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "format": self.format,
            "offset": self.offset,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Any, where: str) -> "_SourceCursor":
        if not isinstance(data, dict):
            raise WatchStateError(f"{where}: malformed cursor {data!r}")
        path = data.get("path")
        format = data.get("format")
        offset = data.get("offset")
        fingerprint = data.get("fingerprint")
        if (
            not isinstance(path, str)
            or (format is not None and format not in _PARSERS)
            or not isinstance(offset, int)
            or isinstance(offset, bool)
            or offset < 0
            or not isinstance(fingerprint, str)
        ):
            raise WatchStateError(f"{where}: malformed cursor {data!r}")
        return cls(
            path=path, format=format, offset=offset, fingerprint=fingerprint
        )

    def read_new_entries(self, drain: bool) -> List[str]:
        """Verify the consumed prefix, consume complete new entries.

        Advances ``offset``/``fingerprint`` past the consumed region
        and returns its raw query texts (empty when nothing complete is
        new).  Raises :class:`WatchStateError` when the on-disk prefix
        no longer matches what the study already folded in.
        """
        path = Path(self.path)
        hasher = hashlib.sha256()
        try:
            stream = open_binary(path)
        except OSError as error:
            raise WatchStateError(
                f"watched source {self.path}: unreadable ({error})"
            ) from error
        with stream:
            remaining = self.offset
            while remaining:
                chunk = stream.read(min(_READ_CHUNK, remaining))
                if not chunk:
                    raise WatchStateError(
                        f"watched source {self.path}: shrank below the "
                        f"{self.offset}-byte cursor (truncated or rotated)"
                    )
                hasher.update(chunk)
                remaining -= len(chunk)
            if self.offset and hasher.hexdigest() != self.fingerprint:
                raise WatchStateError(
                    f"watched source {self.path}: consumed prefix was "
                    "rewritten behind the cursor (rotated or edited)"
                )
            data = bytearray()
            try:
                while chunk := stream.read1(_READ_CHUNK):
                    data += chunk
            except IncompleteGzip:
                if drain:  # else: an unflushed member, retried next cycle
                    raise
        if not data:
            return []
        if self.format is None:
            # First sight of data: detect like the one-shot reader and
            # pin.  (One-shot detection sees the whole file's peek
            # window at once; appends that would flip the verdict are
            # out of contract — see the module docstring.)
            self.format = detect_format(_region_lines(data)[:DETECT_LINES])
        consumable = _consumable_length(data, self.format, drain)
        if not consumable:
            return []
        region = bytes(data[:consumable])
        hasher.update(region)
        self.offset += consumable
        self.fingerprint = hasher.hexdigest()
        return list(_PARSERS[self.format](iter(_region_lines(region))))


@dataclass
class WatchCycle:
    """What one :meth:`WatchSession.cycle` call did."""

    generation: int
    new_entries: Dict[str, int] = field(default_factory=dict)
    changed: bool = False
    diff: str = ""

    @property
    def total_new(self) -> int:
        return sum(self.new_entries.values())


class WatchSession:
    """A resumable incremental-analysis session over growing logs.

    Construct with the input paths (files or directories, one dataset
    each — the same inputs ``repro analyze`` takes) and a *state
    directory*; every :meth:`cycle` call ingests whatever the sources
    grew by, folds it into the running study, and atomically rewrites
    the checkpoint.  Killing the process at any point loses at most
    the in-flight cycle: a new session over the same state directory
    resumes from the last durable checkpoint and converges to the same
    bytes (``tests/test_watch.py``).

    The analysis configuration (metrics, streak parameters, shape
    limit, extra prefixes) is fixed at the first checkpoint; resuming
    with different options raises
    :class:`~repro.exceptions.WatchStateError` rather than mixing
    incompatible measurements into one study.

    With a ``warehouse_path`` the session holds one writable warehouse
    handle from its first write on; :meth:`close` (or leaving a
    ``with`` block) releases it, and a later :meth:`cycle` reopens it.
    """

    def __init__(
        self,
        inputs: Sequence[Union[str, Path]],
        state_dir: Union[str, Path],
        *,
        metrics: Optional[Sequence[str]] = None,
        streak_window: Optional[int] = None,
        streak_threshold: Optional[float] = None,
        shape_node_limit: Optional[int] = None,
        extra_prefixes: Optional[Mapping[str, str]] = None,
        warehouse_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if not inputs:
            raise ValueError("watch needs at least one input file or directory")
        self.inputs: Tuple[str, ...] = tuple(str(path) for path in inputs)
        names = [dataset_name(path) for path in self.inputs]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate dataset name(s) {sorted(duplicates)}; "
                "rename the inputs"
            )
        self._datasets: Tuple[Tuple[str, str], ...] = tuple(
            zip(names, self.inputs)
        )
        self.state_dir = Path(state_dir)
        self.checkpoint_path = self.state_dir / CHECKPOINT_NAME
        self.study_path = self.state_dir / STUDY_NAME
        self.warehouse_path = (
            None if warehouse_path is None else Path(warehouse_path)
        )
        defaults = AnalysisOptions()
        self.options = AnalysisOptions(
            metrics=None if metrics is None else tuple(metrics),
            shape_node_limit=(
                defaults.shape_node_limit
                if shape_node_limit is None
                else shape_node_limit
            ),
            streak_window=(
                defaults.streak_window
                if streak_window is None
                else streak_window
            ),
            streak_threshold=(
                defaults.streak_threshold
                if streak_threshold is None
                else streak_threshold
            ),
            lean_ingestion=sequence_only_selection(metrics),
        )
        resolve_passes(self.options.metrics)  # reject unknown metrics now
        self._scan_streaks = streaks_selected(self.options.metrics)
        self.extra_prefixes = (
            None if extra_prefixes is None else dict(extra_prefixes)
        )
        self.generation = 0
        self._studies: Dict[str, CorpusStudy] = {}
        self._cursors: Dict[str, _SourceCursor] = {}
        self._seen: Dict[str, set] = {}
        #: One structural LRU for the whole session, so a shape measured
        #: in an earlier cycle hits in a later one (invariant 4).
        self._structures = StructureCache(self.options.cache_size)
        #: (combined study, its long rows, its encoding) of the current
        #: ``_studies``; ``None`` once they change.
        self._stitched: Optional[Tuple[CorpusStudy, List[_LongRow], str]] = None
        #: Dataset name -> its encoded (sorted seen digests, study), as
        #: the checkpoint spells them; an entry is dropped when a cycle
        #: changes that dataset's study.
        self._fragments: Dict[str, Tuple[str, str]] = {}
        self._warehouse: Optional["StudyWarehouse"] = None  # opened lazily
        #: The combined study this session last stored in the warehouse.
        self._stored: Optional[CorpusStudy] = None
        if self.checkpoint_path.exists():
            self._load_checkpoint()

    @property
    def study(self) -> Optional[CorpusStudy]:
        """The checkpointed study so far (``None`` before any cycle).

        Derived by stitching the per-dataset studies in input order —
        exactly how a one-shot run over the full sources would fold
        them, so counter key order (and hence snapshot bytes) match.
        The stitch is memoized until the next cycle that changes the
        study, so treat the returned object as read-only.
        """
        if not self._studies:
            return None
        return self._combined()[0]

    def _combined(self) -> Tuple[CorpusStudy, List[_LongRow], str]:
        if self._stitched is None:
            self._stitched = _stitch(
                self._studies, [name for name, _ in self._datasets]
            )
        return self._stitched

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Release the held warehouse handle (idempotent).

        The session stays usable: the next cycle that writes reopens
        the warehouse."""
        warehouse, self._warehouse = self._warehouse, None
        if warehouse is not None:
            warehouse.close()

    def __enter__(self) -> "WatchSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- configuration identity -------------------------------------

    def _config_dict(self) -> Dict[str, Any]:
        options = self.options
        return {
            "metrics": (
                None if options.metrics is None else list(options.metrics)
            ),
            "streak_window": options.streak_window,
            "streak_threshold": options.streak_threshold,
            "shape_node_limit": options.shape_node_limit,
            "extra_prefixes": self.extra_prefixes,
            "lean": options.lean_ingestion,
        }

    # -- checkpoint I/O ---------------------------------------------

    def _load_checkpoint(self) -> None:
        where = str(self.checkpoint_path)
        try:
            data = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WatchStateError(
                f"{where}: unreadable checkpoint ({error})"
            ) from error
        if not isinstance(data, dict) or data.get("kind") != CHECKPOINT_KIND:
            raise WatchStateError(f"{where}: not a watch checkpoint")
        if data.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            raise WatchStateError(
                f"{where}: checkpoint schema {data.get('schema')!r} is not "
                f"{CHECKPOINT_SCHEMA_VERSION} (written by another version?)"
            )
        if tuple(data.get("inputs", ())) != self.inputs:
            raise WatchStateError(
                f"{where}: checkpoint watches inputs {data.get('inputs')!r}, "
                f"session asks for {list(self.inputs)!r}"
            )
        config = data.get("config")
        if config != self._config_dict():
            raise WatchStateError(
                f"{where}: checkpoint was written under options {config!r}; "
                f"this session asks for {self._config_dict()!r} — one study "
                "cannot mix them"
            )
        generation = data.get("generation")
        if not isinstance(generation, int) or isinstance(generation, bool):
            raise WatchStateError(f"{where}: malformed generation")
        cursors = data.get("cursors")
        if not isinstance(cursors, list):
            raise WatchStateError(f"{where}: malformed cursors")
        known = {name for name, _ in self._datasets}
        seen = data.get("seen")
        if not isinstance(seen, dict) or not set(seen) <= known:
            raise WatchStateError(f"{where}: malformed seen-digest map")
        for digests in seen.values():
            if not isinstance(digests, list) or not all(
                isinstance(digest, str) for digest in digests
            ):
                raise WatchStateError(f"{where}: malformed seen-digest map")
        studies = data.get("studies")
        if not isinstance(studies, dict) or set(studies) != known:
            raise WatchStateError(
                f"{where}: per-dataset studies do not cover the watched "
                f"datasets {sorted(known)}"
            )
        loaded: Dict[str, CorpusStudy] = {}
        for name, document in studies.items():
            try:
                loaded[name] = study_from_dict(document)
            except StudySnapshotError as error:
                raise WatchStateError(
                    f"{where}: study for dataset {name!r}: {error}"
                ) from error
        self.generation = generation
        self._cursors = {}
        for entry in cursors:
            cursor = _SourceCursor.from_dict(entry, where)
            self._cursors[cursor.path] = cursor
        self._seen = {name: set(digests) for name, digests in seen.items()}
        self._studies = loaded
        self._fragments = {}

    def _fragment(self, name: str) -> Tuple[str, str]:
        """Dataset *name*'s encoded seen digests and study, memoized."""
        fragment = self._fragments.get(name)
        if fragment is None:
            fragment = self._fragments[name] = (
                _compact(sorted(self._seen.get(name, ()))),
                _compact(study_to_dict(self._studies[name])),
            )
        return fragment

    def _write_checkpoint(self) -> None:
        # The compact encoding of the whole document, assembled from
        # the small head and the per-dataset fragments: only datasets
        # the cycle grew are encoded again.
        head = _compact(
            {
                "kind": CHECKPOINT_KIND,
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "generation": self.generation,
                "inputs": list(self.inputs),
                "config": self._config_dict(),
                "cursors": [
                    cursor.to_dict() for cursor in self._cursors.values()
                ],
            }
        )
        seen = ",".join(
            f"{_compact(name)}:{self._fragment(name)[0]}" for name in self._seen
        )
        studies = ",".join(
            f"{_compact(name)}:{self._fragment(name)[1]}"
            for name, _ in self._datasets
        )
        self.state_dir.mkdir(parents=True, exist_ok=True)
        # One atomic replace carries cursors AND studies: a kill leaves
        # the previous checkpoint or this one, never a torn pair.
        atomic_write_text(
            self.checkpoint_path,
            f'{head[:-1]},"seen":{{{seen}}},"studies":{{{studies}}}}}\n',
        )
        # Derived convenience snapshot (repro report / merge load it),
        # the bytes save_study writes; resume never reads it, so a kill
        # between the two writes merely leaves it one cycle stale until
        # the next rewrite.
        atomic_write_text(self.study_path, self._combined()[2] + "\n")

    # -- the cycle ----------------------------------------------------

    def cycle(self, drain: bool = False) -> WatchCycle:
        """Ingest whatever the sources grew by; checkpoint; report.

        With ``drain`` the unterminated tail of every source is
        consumed as a final entry (use on the last scheduled cycle,
        when the writer is done).  Returns the cycle's outcome,
        including a diff report: what changed in Tables 1–6 since the
        previous checkpoint.
        """
        # Reporting imports lazily: analysis must stay importable
        # without the reporting layer (and vice versa).
        from ..reporting.reporters import render_rows_diff

        first = not self._studies
        previous_rows = [] if first else self._combined()[1]
        new_texts: Dict[str, List[str]] = {}
        for name, spec in self._datasets:
            texts: List[str] = []
            for file_path in source_paths(spec):
                key = str(file_path)
                cursor = self._cursors.get(key)
                if cursor is None:
                    cursor = self._cursors[key] = _SourceCursor(path=key)
                texts.extend(cursor.read_new_entries(drain))
            new_texts[name] = texts
        counts = {name: len(texts) for name, texts in new_texts.items()}
        changed = any(counts.values())
        if changed or first:
            # The first cycle folds every dataset in, entries or not,
            # so the study lists them exactly like a one-shot run
            # would; later cycles only touch datasets that grew.
            self._stitched = None  # the per-dataset studies change below
            for name, texts in new_texts.items():
                if first or texts:
                    self._fragments.pop(name, None)
                    self._ingest(name, texts)
        self.generation += 1
        self._write_checkpoint()
        if self.warehouse_path is not None:
            self._store()
        diff = render_rows_diff(previous_rows, self._combined()[1])
        return WatchCycle(
            generation=self.generation,
            new_entries=counts,
            changed=changed,
            diff=diff,
        )

    def _store(self) -> None:
        """Store the combined study as the session's warehouse part
        unless this session already did (the ledger digest makes a
        study stored before a kill a no-op)."""
        from ..warehouse import StudyWarehouse

        study, rows, body = self._combined()
        if study is self._stored:
            return
        try:
            if self._warehouse is None:
                self._warehouse = StudyWarehouse.open(self.warehouse_path)
            self._warehouse.replace_part(
                f"watch:{self.state_dir.resolve()}",
                study,
                source=f"watch:{self.state_dir}@{self.generation}",
                body=body,
                rows=rows,
            )
        except WarehouseError:
            # The next cycle reopens the file and writes again.
            self.close()
            raise
        self._stored = study

    def _ingest(self, name: str, texts: List[str]) -> None:
        """Fold one dataset's new raw entries into its study.

        Semi-naïve: a text whose digest the dataset already holds was
        Valid under the prefix environment the checkpoint's config
        fixes, so it counts toward Total and Valid unparsed.  Only the
        other texts go through clean → parse → dedup, and their first
        occurrences are the measured stream: concatenated over cycles,
        the one-shot unique stream, in order, which is what makes
        checkpoint ≡ one-shot exact.  The raw entries extend the
        dataset's live streak scan, in order, so nothing is stitched.
        """
        seen = self._seen.setdefault(name, set())
        if self.options.lean_ingestion:
            shard = LogShard(total=len(texts))
        else:
            unseen = [text for text in texts if _text_digest(text) not in seen]
            shard = process_entries(unseen, self.extra_prefixes)
            shard.total = len(texts)
            shard.valid += len(texts) - len(unseen)
            seen.update(_text_digest(text) for text in shard.order)
        log = shard.to_query_log(name)
        delta = measure_chunk(
            name, log.parsed, options=self.options, cache=self._structures
        )
        stats = delta.datasets[name]
        stats.total, stats.valid, stats.unique = log.total, log.valid, log.unique
        study = self._studies.get(name)
        if self._scan_streaks:
            scan = (
                StreakAccumulator(
                    self.options.streak_window, self.options.streak_threshold
                )
                if study is None
                else study.datasets[name].streaks
            )
            for text in texts:
                scan.push(text)
            if study is None:
                stats.streaks = scan
        if study is None:
            self._studies[name] = delta
        else:
            study.merge(delta)
