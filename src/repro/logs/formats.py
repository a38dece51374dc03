"""Endpoint log-line formats.

Real SPARQL endpoint logs (the USEWOD and Openlink files the paper
analyzed) are HTTP access logs whose request lines carry the query
URL-encoded in a ``query=`` parameter.  This module round-trips that
format so the pipeline can be exercised end-to-end: raw access-log
lines in, query texts out.

Logs repeat requests heavily (the paper's Table 1 "Unique" column), so
:func:`iter_queries` decodes each distinct request once: it memoizes
the ``query=`` extraction by the request's query string, in a memo
bounded by :data:`_DECODE_MEMO_SIZE` entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional
from urllib.parse import quote, unquote

from ..exceptions import LogFormatError

__all__ = ["LogEntry", "encode_access_log_line", "parse_access_log_line", "iter_queries"]

_REQUEST_RE = re.compile(
    r'^(?P<host>\S+) \S+ \S+ \[(?P<time>[^\]]*)\] '
    r'"(?P<method>GET|POST) (?P<path>\S+) HTTP/[\d.]+" '
    r"(?P<status>\d{3}) (?P<size>\d+|-)"
)

#: Distinct request query strings one :func:`iter_queries` call
#: remembers the decoded ``query=`` value of.  A constant, so the memo
#: of a streaming run holds at most this many entries, each no longer
#: than one log line (invariant 2).
_DECODE_MEMO_SIZE = 1024


@dataclass(frozen=True)
class LogEntry:
    """One decoded log line."""

    host: str
    timestamp: str
    method: str
    path: str
    status: int
    query: Optional[str]  # decoded query text, if the line carried one


def encode_access_log_line(
    query: str,
    host: str = "192.0.2.1",
    timestamp: str = "01/Jan/2015:00:00:00 +0000",
    endpoint: str = "/sparql",
    status: int = 200,
) -> str:
    """Render *query* as an Apache-combined-style access-log line."""
    encoded = quote(query, safe="")
    return (
        f'{host} - - [{timestamp}] '
        f'"GET {endpoint}?query={encoded}&format=json HTTP/1.1" {status} 1234'
    )


def parse_access_log_line(line: str) -> LogEntry:
    """Decode one access-log line.

    Raises :class:`~repro.exceptions.LogFormatError` if the line is not
    an access-log line at all.  Lines without a ``query=`` parameter
    decode with ``query=None`` — these are the "entries that were not
    queries" the paper's cleaning step drops.
    """
    match = _REQUEST_RE.match(line)
    if match is None:
        raise LogFormatError(f"not an access-log line: {line[:80]!r}")
    path = match.group("path")
    _, separator, query_string = path.partition("?")
    return LogEntry(
        host=match.group("host"),
        timestamp=match.group("time"),
        method=match.group("method"),
        path=path,
        status=int(match.group("status")),
        query=_query_parameter(query_string) if separator else None,
    )


def _query_parameter(query_string: str) -> Optional[str]:
    """The first ``query=`` value of a URL query string, or ``None``.

    Decodes exactly as ``urllib.parse.parse_qs(query_string,
    keep_blank_values=True).get("query", [None])[0]`` does (``+`` is a
    space, percent-escapes are UTF-8 with replacement, a field without
    ``=`` has an empty value), but stops at the first ``query`` field
    and decodes no other field's value.
    """
    for field in query_string.split("&"):
        name, _, value = field.partition("=")
        if name == "query" or ("%" in name and unquote(name.replace("+", " ")) == "query"):
            return unquote(value.replace("+", " "))
    return None


def iter_queries(lines: Iterable[str]) -> Iterator[str]:
    """Extract the query texts from access-log *lines*, skipping
    non-query lines (malformed lines are skipped too — cleaning, not
    validation, happens here).

    Equivalent to :func:`parse_access_log_line` on every line, with the
    decoded query memoized per distinct request query string."""
    memo: Dict[str, Optional[str]] = {}
    for line in lines:
        match = _REQUEST_RE.match(line)
        if match is None:
            continue
        _, separator, query_string = match.group("path").partition("?")
        if not separator:
            continue
        try:
            query = memo[query_string]
        except KeyError:
            if len(memo) >= _DECODE_MEMO_SIZE:
                del memo[next(iter(memo))]  # the oldest entry
            query = memo[query_string] = _query_parameter(query_string)
        if query is not None:
            yield query
