"""Stdlib-only HTTP query/report service over a study warehouse.

``repro serve WAREHOUSE`` binds a :class:`WarehouseServer` — a
threading :mod:`http.server` over one read-only
:class:`~repro.warehouse.store.StudyWarehouse` handle (requests
serialize on a lock; SQLite's WAL keeps concurrent ingests from a
separate process safe) — and answers GET requests with paginated JSON:

========================================  =================================
``/``                                     service index (endpoints, facts)
``/datasets``                             per-dataset pipeline counters
``/datasets/{name}``                      one dataset's counters
``/datasets/{name}/tables/{1..6}``        table cells, dataset-scoped
``/tables/{1..6}``                        table cells (or text block)
``/streaks``                              per-dataset streak histograms
``/caveats``                              coverage-caveat counters
``/search?q=``                            FTS5 search over query texts
``/report``                               the full report, any format
========================================  =================================

List endpoints take ``?limit=`` (default 50, max 500) and
``?offset=``; table and report endpoints take ``?format=`` — ``json``
(cells) or ``text`` (the exact text-report block).  ``/report`` renders
through the reporter registry, so its bytes equal ``repro report`` on
the equivalently merged snapshot (invariant 11).

Connections are HTTP/1.1 keep-alive.  No response may wait on Nagle's
algorithm plus the client's delayed ACK: ``_Handler`` writes headers
and body separately, so the handler sets ``TCP_NODELAY``
(``disable_nagle_algorithm``) on every accepted socket — without it,
each GET after the first on a connection shows a ~40 ms floor.

No third-party runtime dependency is introduced: everything is
:mod:`http.server`, :mod:`json`, and :mod:`urllib.parse`.
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..exceptions import WarehouseError
from ..reporting.reporters import get_reporter
from .store import StudyWarehouse

__all__ = [
    "DEFAULT_LIMIT",
    "MAX_LIMIT",
    "WarehouseServer",
    "start_server",
]

#: Items per page when ``?limit=`` is absent.
DEFAULT_LIMIT = 50

#: Upper bound on ``?limit=`` (the service is read-mostly, but an
#: unbounded page is still an easy accidental self-DoS).
MAX_LIMIT = 500

#: (path template, one-line description) — served on ``/``.
_ENDPOINTS = (
    ("/datasets", "per-dataset pipeline counters (paginated)"),
    ("/datasets/{name}", "one dataset's counters"),
    ("/datasets/{name}/tables/{1..6}", "table cells scoped to a dataset"),
    ("/tables/{1..6}", "table cells (?format=text for the report block)"),
    ("/streaks", "per-dataset streak histograms (paginated)"),
    ("/caveats", "coverage-caveat counters"),
    ("/search?q=", "full-text search over indexed query texts"),
    ("/report", "full report (?format= any registered reporter)"),
)


class _BadRequest(Exception):
    """Maps to a 400 response with the message as the error body."""


def _positive_param(query: Dict[str, List[str]], name: str, default: int) -> int:
    values = query.get(name)
    if not values:
        return default
    try:
        number = int(values[-1])
    except ValueError:
        raise _BadRequest(f"{name} must be an integer, got {values[-1]!r}") from None
    if number < 0:
        raise _BadRequest(f"{name} must be >= 0, got {number}")
    return number


def _page_params(query: Dict[str, List[str]]) -> Tuple[int, int]:
    limit = _positive_param(query, "limit", DEFAULT_LIMIT)
    offset = _positive_param(query, "offset", 0)
    if not 1 <= limit <= MAX_LIMIT:
        raise _BadRequest(f"limit must be within 1..{MAX_LIMIT}, got {limit}")
    return limit, offset


def _page(total: int, limit: int, offset: int, items: List[Any]) -> Dict[str, Any]:
    """The JSON envelope every list endpoint shares."""
    return {"total": total, "limit": limit, "offset": offset, "items": items}


class _Handler(BaseHTTPRequestHandler):
    """One GET request against the server's warehouse."""

    server: "WarehouseServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: without it keep-alive responses stall on the client's
    # delayed ACK (see the module docstring).
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        """Route request logging through the server (quiet by default)."""
        if self.server.verbose:  # pragma: no cover - CLI-only switch
            super().log_message(format, *args)

    def _respond(self, status: int, payload: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _json(self, data: Any, status: int = HTTPStatus.OK) -> None:
        payload = (json.dumps(data, indent=2) + "\n").encode("utf-8")
        self._respond(status, payload, "application/json; charset=utf-8")

    def _text(self, text: str) -> None:
        if not text.endswith("\n"):
            text += "\n"
        self._respond(
            HTTPStatus.OK, text.encode("utf-8"), "text/plain; charset=utf-8"
        )

    def _error(self, status: int, message: str) -> None:
        self._json({"error": message}, status=status)

    # -- dispatch -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Dispatch one GET request (every route is read-only)."""
        parsed = urlparse(self.path)
        segments = [part for part in parsed.path.split("/") if part]
        query = parse_qs(parsed.query)
        try:
            with self.server.lock:
                self._route(segments, query)
        except _BadRequest as error:
            self._error(HTTPStatus.BAD_REQUEST, str(error))
        except WarehouseError as error:
            # Empty warehouse / missing table data are "not found";
            # anything else over a valid route is a server-side problem.
            self._error(HTTPStatus.NOT_FOUND, str(error))
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def _route(self, segments: List[str], query: Dict[str, List[str]]) -> None:
        warehouse = self.server.warehouse
        if not segments:
            stats = warehouse.stats()
            self._json(
                {
                    "service": "repro study warehouse",
                    "endpoints": [
                        {"path": path, "description": description}
                        for path, description in _ENDPOINTS
                    ],
                    "warehouse": stats,
                }
            )
        elif segments == ["caveats"]:
            caveats = warehouse.caveats()
            self._json(
                {**caveats, "clean": not any(caveats.values())}
            )
        elif segments == ["streaks"]:
            limit, offset = _page_params(query)
            total, items = warehouse.streak_histograms(limit=limit, offset=offset)
            self._json(_page(total, limit, offset, items))
        elif segments == ["search"]:
            terms = query.get("q", [])
            if not terms or not terms[-1].strip():
                raise _BadRequest("missing search term: use /search?q=...")
            limit, offset = _page_params(query)
            try:
                total, items = warehouse.search(
                    terms[-1], limit=limit, offset=offset
                )
            except WarehouseError as error:
                raise _BadRequest(str(error)) from None
            self._json(_page(total, limit, offset, items))
        elif segments == ["report"]:
            formats = query.get("format", ["text"])
            try:
                get_reporter(formats[-1])
            except ValueError as error:
                raise _BadRequest(str(error)) from None
            rendered = warehouse.render(formats[-1])
            if formats[-1] == "json":
                self._respond(
                    HTTPStatus.OK,
                    rendered.encode("utf-8"),
                    "application/json; charset=utf-8",
                )
            else:
                self._text(rendered)
        elif segments[0] == "tables" and len(segments) == 2:
            self._table(segments[1], dataset=None, query=query)
        elif segments[0] == "datasets":
            self._datasets(segments[1:], query)
        else:
            self._error(HTTPStatus.NOT_FOUND, f"no such endpoint /{'/'.join(segments)}")

    def _datasets(self, rest: List[str], query: Dict[str, List[str]]) -> None:
        warehouse = self.server.warehouse
        if not rest:
            limit, offset = _page_params(query)
            total, items = warehouse.datasets(limit=limit, offset=offset)
            self._json(_page(total, limit, offset, items))
            return
        row = warehouse.dataset(rest[0])
        if row is None:
            self._error(HTTPStatus.NOT_FOUND, f"no such dataset {rest[0]!r}")
            return
        if len(rest) == 1:
            self._json(row)
        elif len(rest) == 3 and rest[1] == "tables":
            self._table(rest[2], dataset=rest[0], query=query)
        else:
            self._error(
                HTTPStatus.NOT_FOUND, f"no such endpoint under /datasets/{rest[0]}"
            )

    def _table(
        self, raw: str, *, dataset: Optional[str], query: Dict[str, List[str]]
    ) -> None:
        warehouse = self.server.warehouse
        try:
            table = int(raw)
        except ValueError:
            raise _BadRequest(f"table must be 1..6, got {raw!r}") from None
        formats = query.get("format", ["json"])
        if formats[-1] == "text":
            # The text form is corpus-wide by definition: the block is a
            # byte-exact slice of the full `repro report` document.
            self._text(warehouse.table_text(table))
            return
        if formats[-1] != "json":
            raise _BadRequest(
                f"table format must be 'json' or 'text', got {formats[-1]!r}"
            )
        limit, offset = _page_params(query)
        total, items = warehouse.table_cells(
            table, dataset=dataset, limit=limit, offset=offset
        )
        self._json(_page(total, limit, offset, items))


class WarehouseServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one read-only warehouse handle.

    Request handlers serialize warehouse access on :attr:`lock` (one
    SQLite handle, many request threads).  Use as a context manager, or
    call :meth:`close` — which also closes the warehouse handle."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        warehouse: StudyWarehouse,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.warehouse = warehouse
        self.verbose = verbose
        self.lock = threading.Lock()

    @property
    def url(self) -> str:
        """The service's root URL, with the actually-bound port."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/"

    def close(self) -> None:
        """Shut the socket and the warehouse handle down (idempotent)."""
        self.server_close()
        self.warehouse.close()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def start_server(
    path: Union[str, Path], *, host: str = "127.0.0.1", port: int = 0, verbose: bool = False
) -> WarehouseServer:
    """Open *path* read-only and bind a :class:`WarehouseServer` on
    *host*:*port* (0 picks a free port; see :attr:`WarehouseServer.url`).

    The caller drives the serve loop — ``serve_forever()`` for the CLI,
    a background thread plus :meth:`~WarehouseServer.close` in tests.
    Raises :class:`~repro.exceptions.WarehouseError` for an unusable
    warehouse file and ``OSError`` for an unbindable address."""
    warehouse = StudyWarehouse.open(path, readonly=True)
    try:
        return WarehouseServer((host, port), warehouse, verbose=verbose)
    except OSError:
        warehouse.close()
        raise
