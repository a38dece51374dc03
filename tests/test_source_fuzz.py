"""Source fuzz: damaged plain, gzip and directory inputs.

A log source is cut short or has one byte flipped at a drawn offset,
then goes through every entry point that reads sources: `repro
analyze` serial, at two workers, `--metrics streaks` at two workers,
and one `repro watch` cycle.  The two-worker runs use five-entry
chunks, so the pool and the chunk seams take part.  Each must either
give the serial report of whatever the damaged source still holds, or
exit 2 with one line on stderr, no traceback, and no snapshot or watch
state written.  About 100 examples take 7 s on one CPU.
"""

import gzip
import multiprocessing
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.logs import encode_access_log_line

#: Refinement runs (streaks), repeats (Valid > Unique), an invalid
#: query and non-ASCII text, so a flipped byte can break UTF-8.
QUERIES = [
    "SELECT ?x WHERE { ?x <urn:p> ?y }",
    "SELECT ?x WHERE { ?x <urn:p> ?y . ?y <urn:q> ?z }",
    "SELECT ?x WHERE { ?x <urn:p> ?y . ?y <urn:q> ?z } LIMIT 5",
    "ASK { ?a <urn:r> \"café\" }",
    "SELECT * WHERE { { ?s <urn:a> ?o } UNION { ?s <urn:b> ?o } }",
    "BROKEN {",
    "SELECT ?x WHERE { ?x <urn:p> ?y }",
    "SELECT DISTINCT ?x WHERE { ?x <urn:p>+ ?y FILTER(?y > 3) }",
]


def _access_log(queries) -> bytes:
    return "".join(encode_access_log_line(q) + "\n" for q in queries).encode("utf-8")


def _plain_lines(queries) -> bytes:
    return "".join(q + "\n" for q in queries).encode("utf-8")


#: Each source kind: the files it is made of, as (relative path, bytes).
SOURCES = {
    "plain": [("day.log", _access_log(QUERIES * 3))],
    "gzip": [("day.log.gz", gzip.compress(_access_log(QUERIES * 3), mtime=0))],
    "directory": [
        ("day/a.rq", _plain_lines(QUERIES)),
        ("day/b.log.gz", gzip.compress(_access_log(QUERIES[::-1] * 2), mtime=0)),
    ],
}


def _damage(data: bytes, how: str, where: float, mask: int) -> bytes:
    offset = min(int(where * len(data)), len(data) - 1)
    if how == "cut":
        return data[:offset]
    flipped = bytearray(data)
    flipped[offset] ^= mask
    return bytes(flipped)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert multiprocessing.active_children() == []
    return code, captured.out, captured.err


def _assert_clean_exit_2(code, err, written):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert "Traceback" not in err
    assert not written.exists()


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(sorted(SOURCES)),
    victim=st.integers(0, 1),
    how=st.sampled_from(["cut", "flip"]),
    where=st.floats(0.0, 1.0),
    mask=st.integers(1, 255),
)
def test_damaged_source_reports_or_exits_2(capsys, kind, victim, how, where, mask):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        files = SOURCES[kind]
        damaged = victim % len(files)
        for index, (name, data) in enumerate(files):
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if index == damaged:
                data = _damage(data, how, where, mask)
            path.write_bytes(data)
        source = str(root / files[0][0].split("/")[0])
        snapshot = root / "study.json"

        code, serial, err = _run(
            capsys, ["analyze", source, "--save-study", str(snapshot)]
        )
        if code != 0:
            _assert_clean_exit_2(code, err, snapshot)
        streaks_code, streaks, _ = _run(
            capsys, ["analyze", "--metrics", "streaks", source]
        )
        assert streaks_code == code

        for argv, expected in (
            (["analyze", "--workers", "2", "--chunk-size", "5"], serial),
            (
                ["analyze", "--metrics", "streaks", "--workers", "2",
                 "--chunk-size", "5"],
                streaks,
            ),
        ):
            other = root / "other.json"
            again = _run(capsys, [*argv, source, "--save-study", str(other)])
            if code == 0:
                assert again[:2] == (0, expected)
            else:
                _assert_clean_exit_2(again[0], again[2], other)

        state = root / "state"
        watch_code, _, watch_err = _run(
            capsys, ["watch", source, "--state", str(state)]
        )
        if code == 0:
            assert watch_code == 0
            report = _run(capsys, ["report", str(state / "study.json")])
            assert report[:2] == (0, serial)
        else:
            _assert_clean_exit_2(watch_code, watch_err, state)
