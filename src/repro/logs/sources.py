"""Lazy log-entry sources: plain text, gzip, and log directories.

The paper's corpus is hundreds of millions of logged queries; reading a
log into one Python list (what the CLI originally did) bounds corpus
size by the heap.  This module turns files on disk into *lazy* streams
of raw query texts, so the streaming drivers in
:mod:`repro.analysis.parallel` can keep peak memory proportional to the
chunk size, never the log size.

Three on-disk entry formats are auto-detected with the CLI's historical
classification rules (applied to the peek window described below,
rather than to the whole file):

* **access-log** — Apache-style lines carrying the query URL-encoded in
  a ``query=`` parameter; decoded via
  :func:`repro.logs.formats.iter_queries` (cleaning happens there:
  malformed and query-less lines are dropped).
* **blocks** — multi-line queries separated by blank lines.
* **lines** — one query per line, with literal ``\\n`` escapes allowed.

Detection peeks at the first :data:`DETECT_LINES` lines only (the first
10 for the access-log signature, the whole peek window for the
blank-line test), buffers them, and replays them in front of the rest of
the stream — so a multi-gigabyte file is never materialized just to
pick a parser.  Files whose first blank line appears beyond the peek
window parse as ``lines``; real logs declare their shape immediately.

Compression is detected from the gzip magic bytes, not the file name,
so misnamed ``.log`` files that are actually gzipped still stream.  A
directory source streams its files in sorted name order, each with its
own format detection, as one concatenated stream.
"""

from __future__ import annotations

import gzip
import io
import zlib
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .formats import iter_queries

__all__ = [
    "DETECT_LINES",
    "IncompleteGzip",
    "dataset_name",
    "detect_format",
    "iter_entries",
    "iter_file_entries",
    "iter_text_lines",
    "open_binary",
    "open_text",
    "read_entries",
    "source_paths",
]

PathLike = Union[str, Path]

#: gzip member header magic (RFC 1952).
_GZIP_MAGIC = b"\x1f\x8b"

#: How many leading lines format detection may buffer.
DETECT_LINES = 4096

#: How many of those lines the access-log signature check examines.
_ACCESS_LOG_PROBE = 10


class IncompleteGzip(gzip.BadGzipFile):
    """Gzip data that ends inside a member: cut off, or not yet flushed."""


class _CheckedGzip(io.RawIOBase):
    """A gzip stream whose damage surfaces as
    :class:`gzip.BadGzipFile`, an :class:`OSError` like every other
    unreadable input, instead of ``EOFError`` (truncated data:
    :class:`IncompleteGzip`) or ``zlib.error`` (corrupt deflate data).
    A read decompresses one step, so only a read with nothing left to
    return raises."""

    def __init__(self, path: Path, inner: BinaryIO) -> None:
        super().__init__()
        self._path = path
        self._inner = inner

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:  # type: ignore[override]
        try:
            return self._inner.readinto1(buffer)
        except (EOFError, zlib.error) as error:
            damage = IncompleteGzip if isinstance(error, EOFError) else gzip.BadGzipFile
            raise damage(
                f"{self._path}: truncated or corrupt gzip data ({error})"
            ) from None

    def close(self) -> None:
        self._inner.close()
        super().close()


def open_binary(path: PathLike) -> BinaryIO:
    """Open *path* as its logical byte stream, decompressing gzip.

    Compression is recognized by magic bytes rather than extension, so
    a gzipped stream named ``endpoint.log`` still opens correctly.
    Concatenated gzip members read as one stream.  Truncated or corrupt
    gzip data raises :class:`gzip.BadGzipFile` when read (truncated:
    :class:`IncompleteGzip`, once ``read1`` returned all before it).
    """
    path = Path(path)
    with path.open("rb") as probe:
        magic = probe.read(len(_GZIP_MAGIC))
    if magic == _GZIP_MAGIC:
        return io.BufferedReader(_CheckedGzip(path, gzip.open(path, "rb")))
    return path.open("rb")


def open_text(path: PathLike) -> io.TextIOBase:
    """Open *path* as text via :func:`open_binary`.

    Decoding matches the historical CLI reader: UTF-8 with
    ``errors="replace"``, so byte junk in real logs cannot abort a run.
    """
    return io.TextIOWrapper(open_binary(path), encoding="utf-8", errors="replace")


def iter_text_lines(path: PathLike) -> Iterator[str]:
    """Lazily yield the lines of *path* (gzip-aware), without newlines."""
    with open_text(path) as handle:
        for line in handle:
            yield line.rstrip("\n")


def detect_format(lines: Sequence[str]) -> str:
    """Classify a sample of leading lines as an entry format.

    Returns ``"access-log"``, ``"blocks"``, or ``"lines"``.  The same
    rules the CLI has always used: an HTTP request marker in the first
    ten lines wins; otherwise any blank line in the sample means
    blank-line-separated blocks; otherwise one query per line.
    """
    head = lines[:_ACCESS_LOG_PROBE]
    if any('"GET ' in line or '"POST ' in line for line in head):
        return "access-log"
    if any(not line.strip() for line in lines):
        return "blocks"
    return "lines"


def _iter_blocks(lines: Iterable[str]) -> Iterator[str]:
    current: List[str] = []
    for line in lines:
        if line.strip():
            current.append(line)
        elif current:
            yield "\n".join(current)
            current = []
    if current:
        yield "\n".join(current)


def _iter_lines(lines: Iterable[str]) -> Iterator[str]:
    for line in lines:
        if line.strip():
            yield line.replace("\\n", "\n")


_PARSERS: Dict[str, Callable[[Iterable[str]], Iterator[str]]] = {
    "access-log": iter_queries,
    "blocks": _iter_blocks,
    "lines": _iter_lines,
}


def iter_file_entries(path: PathLike, format: Optional[str] = None) -> Iterator[str]:
    """Lazily yield raw query texts from one log file.

    With ``format=None`` the format is auto-detected from the first
    :data:`DETECT_LINES` lines; the peeked lines are replayed, so
    nothing is lost and nothing beyond the peek window is buffered.
    """
    if format is not None and format not in _PARSERS:
        raise ValueError(
            f"unknown log format {format!r}; expected one of {sorted(_PARSERS)}"
        )
    lines: Iterator[str] = iter_text_lines(path)
    if format is None:
        head = list(islice(lines, DETECT_LINES))
        format = detect_format(head)
        lines = chain(head, lines)
    return _PARSERS[format](lines)


def source_paths(path: PathLike) -> List[Path]:
    """Resolve a source to concrete files: a file is itself; a
    directory is its regular (non-hidden) files in sorted name order."""
    path = Path(path)
    if path.is_dir():
        return sorted(
            entry
            for entry in path.iterdir()
            if entry.is_file() and not entry.name.startswith(".")
        )
    return [path]


def iter_entries(path: PathLike, format: Optional[str] = None) -> Iterator[str]:
    """Lazily yield raw query texts from a file or log directory.

    Directory sources concatenate their files in sorted name order;
    each file gets its own format detection, so a directory may mix
    access logs with plain query files.
    """
    for file_path in source_paths(path):
        yield from iter_file_entries(file_path, format)


def read_entries(path: PathLike, format: Optional[str] = None) -> List[str]:
    """Materialized :func:`iter_entries` (the in-memory ingestion path)."""
    return list(iter_entries(path, format))


def dataset_name(path: PathLike) -> str:
    """Dataset label for a source path: base name minus ``.gz`` and the
    final extension (``dbpedia.log.gz`` → ``dbpedia``; a directory is
    its own name, dots and all)."""
    path = Path(path)
    if path.is_dir():
        return path.name
    if path.suffix == ".gz":
        path = path.with_suffix("")
    return path.stem if path.suffix else path.name
