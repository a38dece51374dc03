"""Tests for the warehouse HTTP service (``repro serve``).

Each test drives a live ``WarehouseServer`` on an ephemeral port.  Most
use stdlib ``urllib``, which opens a fresh connection per request — the
same stack a CI smoke job uses.  ``TestKeepAlive`` reuses one
``http.client`` connection instead, the way a long-lived client does.
The headline contract: ``GET /report`` returns byte-for-byte what
``repro report`` prints for the equivalently merged snapshot.
"""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.passes import PASS_NAMES
from repro.api import analyze_corpora
from repro.exceptions import WarehouseError
from repro.reporting import render_report
from repro.warehouse import StudyWarehouse
from repro.warehouse.service import DEFAULT_LIMIT, MAX_LIMIT, start_server

QUERY_POOL = [
    "SELECT ?x WHERE { ?x <urn:p> ?y }",
    "SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y . ?y <urn:q> ?z }",
    "ASK { ?a <urn:q> ?b . ?b <urn:r> ?a }",
    "ASK { ?s <urn:p>+ ?o }",
    "SELECT * WHERE { ?s ?p ?o . FILTER(?o > 3) }",
    "SELECT ?s WHERE { ?s <urn:p> ?o . OPTIONAL { ?s <urn:q> ?t } }",
    "CONSTRUCT { ?s <urn:p> ?o } WHERE { ?s <urn:p> ?o }",
    "not a query at all {",
]


@pytest.fixture(scope="module")
def merged_study():
    study = analyze_corpora(
        {"alpha": QUERY_POOL + QUERY_POOL[:3]},
        metrics=PASS_NAMES + ("streaks",),
    ).study
    other = analyze_corpora(
        {"beta": QUERY_POOL[:5]}, metrics=PASS_NAMES + ("streaks",)
    ).study
    return study.merge(other)


@pytest.fixture(scope="module")
def server(tmp_path_factory, merged_study):
    path = tmp_path_factory.mktemp("service") / "study.warehouse"
    with StudyWarehouse.open(path) as warehouse:
        warehouse.ingest(merged_study, source="merged.json")
    handle = start_server(path)
    thread = threading.Thread(target=handle.serve_forever, daemon=True)
    thread.start()
    yield handle
    handle.shutdown()
    handle.close()
    thread.join(timeout=5)


def fetch(server, path):
    """GET *path*; returns (status, parsed-or-raw body, content type)."""
    try:
        with urllib.request.urlopen(server.url.rstrip("/") + path) as response:
            status = response.status
            content_type = response.headers["Content-Type"]
            raw = response.read()
    except urllib.error.HTTPError as error:
        status = error.code
        content_type = error.headers["Content-Type"]
        raw = error.read()
    if content_type.startswith("application/json"):
        return status, json.loads(raw), content_type
    return status, raw.decode("utf-8"), content_type


class TestEndpoints:
    def test_index_lists_endpoints(self, server):
        status, body, _ = fetch(server, "/")
        assert status == 200
        paths = {entry["path"] for entry in body["endpoints"]}
        assert "/datasets" in paths
        assert body["warehouse"]["datasets"] == 2

    def test_report_bytes_equal_direct_report(self, server, merged_study):
        status, body, content_type = fetch(server, "/report")
        assert status == 200
        assert content_type.startswith("text/plain")
        expected = render_report(merged_study, "text")
        if not expected.endswith("\n"):
            expected += "\n"
        assert body == expected

    def test_report_other_formats(self, server, merged_study):
        status, body, _ = fetch(server, "/report?format=json")
        assert status == 200
        assert body == json.loads(render_report(merged_study, "json"))
        status, body, _ = fetch(server, "/report?format=markdown")
        assert status == 200

    def test_datasets_listing_and_lookup(self, server):
        status, page, _ = fetch(server, "/datasets")
        assert status == 200
        assert page["total"] == 2
        assert page["limit"] == DEFAULT_LIMIT
        assert [row["name"] for row in page["items"]] == ["alpha", "beta"]
        status, row, _ = fetch(server, "/datasets/alpha")
        assert status == 200
        assert row["name"] == "alpha"

    def test_pagination(self, server):
        status, page, _ = fetch(server, "/datasets?limit=1&offset=1")
        assert status == 200
        assert page["total"] == 2
        assert page["offset"] == 1
        assert [row["name"] for row in page["items"]] == ["beta"]

    def test_table_cells_and_text(self, server, merged_study):
        status, page, _ = fetch(server, "/tables/1")
        assert status == 200
        assert {cell["section"] for cell in page["items"]} == {"table1"}
        status, block, content_type = fetch(server, "/tables/1?format=text")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert block.rstrip("\n") in render_report(merged_study, "text")

    def test_dataset_scoped_table(self, server):
        status, page, _ = fetch(server, "/datasets/alpha/tables/1")
        assert status == 200
        assert page["total"] > 0
        assert {cell["row"] for cell in page["items"]} == {"alpha"}

    def test_streaks_and_caveats(self, server):
        status, page, _ = fetch(server, "/streaks")
        assert status == 200
        assert page["total"] == 2
        assert page["items"][0]["streak_count"] > 0
        status, caveats, _ = fetch(server, "/caveats")
        assert status == 200
        assert caveats["clean"] is True

    def test_search(self, server):
        status, page, _ = fetch(server, "/search?q=urn")
        assert status == 200
        assert page["total"] > 0
        assert all("urn" in row["text"] for row in page["items"])


class TestKeepAlive:
    PATHS = [
        "/tables/1",
        "/datasets",
        "/report",
        "/search?q=SELECT",
        "/streaks",
        "/caveats",
    ]

    def test_reused_connection_has_no_delayed_ack_floor(self, server):
        """Headers and body leave in two writes; with Nagle on, the body
        waits for the client's delayed ACK (~40 ms) on every response
        after the first on a connection."""
        connection = http.client.HTTPConnection(*server.server_address, timeout=10)
        latencies = []
        try:
            for index in range(30):
                path = self.PATHS[index % len(self.PATHS)]
                started = time.perf_counter()
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == 200, path
                assert not response.will_close, path
        finally:
            connection.close()
        assert statistics.median(latencies[2:]) < 0.020


class TestErrors:
    @pytest.mark.parametrize(
        "path, status, needle",
        [
            ("/nope", 404, "no such endpoint"),
            ("/datasets/missing", 404, "no such dataset"),
            ("/tables/9", 404, "tables 1-6"),
            ("/tables/zero", 400, "table must be"),
            ("/tables/1?format=csv", 400, "'json' or 'text'"),
            ("/search", 400, "missing search term"),
            ("/report?format=bogus", 400, "unknown report format"),
            ("/datasets?limit=0", 400, f"1..{MAX_LIMIT}"),
            (f"/datasets?limit={MAX_LIMIT + 1}", 400, f"1..{MAX_LIMIT}"),
            ("/datasets?offset=-1", 400, "offset must be"),
            ("/datasets?limit=abc", 400, "must be an integer"),
        ],
    )
    def test_error_responses_are_json(self, server, path, status, needle):
        got_status, body, content_type = fetch(server, path)
        assert got_status == status
        assert content_type.startswith("application/json")
        assert needle in body["error"]

    def test_start_server_rejects_missing_warehouse(self, tmp_path):
        with pytest.raises(WarehouseError, match="no such warehouse"):
            start_server(tmp_path / "nope.db")

    def test_concurrent_requests(self, server):
        """Many threads against the one shared handle: every response
        arrives whole (the handler lock serializes SQLite access)."""
        results = []

        def hit():
            results.append(fetch(server, "/datasets")[0])

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == [200] * 8
