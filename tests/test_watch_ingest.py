"""Watch ingest does only a cycle's new work (the semi-naïve rule).

* parsing: a steady cycle parses each distinct text its dataset has
  not counted exactly once, invalid texts included; a text the dataset
  already counted adds to Total and Valid unparsed; an invalid text is
  parsed again in every cycle it recurs; a text counted only by another
  dataset is parsed and is Unique here;
* streaks: a dataset's new entries extend the session's live streak
  scan, so after every cycle (1-, 2- and 24-entry batches, interleaved
  datasets, a resume between cycles) the session's accumulator is the
  serial scan of the stream so far (``tests/oracles.py``), and no
  steady cycle calls ``StreakAccumulator.merge``.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.logs.pipeline as pipeline
from repro.analysis.incremental import WatchSession
from repro.analysis.streaks import StreakAccumulator
from repro.workload import generate_day_log

from oracles import streak_state_reference

WINDOW = 6
METRICS = ("shallow", "streaks")

VALID = [f"SELECT ?s WHERE {{ ?s <urn:p{i}> ?o }}" for i in range(4)]
INVALID = ["SELECT WHERE {", "ASK { ?s ?p }"]


def write_lines(path: Path, texts) -> None:
    with path.open("a", encoding="utf-8") as handle:
        for text in texts:
            handle.write(text.replace("\n", "\\n") + "\n")


@pytest.fixture
def parsed(monkeypatch):
    """The texts ``parse_query`` is called on, in call order."""
    calls = []
    parse_query = pipeline.parse_query

    def counted(text, *args, **kwargs):
        calls.append(text)
        return parse_query(text, *args, **kwargs)

    monkeypatch.setattr(pipeline, "parse_query", counted)
    return calls


def stats(session, name):
    return session.study.datasets[name]


def test_steady_cycle_parses_each_unseen_text_once(tmp_path, parsed):
    log = tmp_path / "day.log"
    write_lines(log, [VALID[0], VALID[1], INVALID[0], VALID[0]])
    session = WatchSession([str(log)], tmp_path / "state", metrics=METRICS)
    session.cycle()
    assert Counter(parsed) == Counter([VALID[0], VALID[1], INVALID[0]])
    before = stats(session, "day")
    total, valid, unique = before.total, before.valid, before.unique
    parsed.clear()
    write_lines(log, [
        VALID[1], VALID[2], INVALID[0], VALID[2], INVALID[1],
        VALID[0], INVALID[0], INVALID[1],
    ])
    session.cycle()
    # One parse per distinct text the dataset had not counted: the new
    # valid text and both invalid ones (an invalid text is never
    # counted, so it is parsed again this cycle).
    assert Counter(parsed) == Counter([VALID[2], INVALID[0], INVALID[1]])
    after = stats(session, "day")
    assert after.total == total + 8
    assert after.valid == valid + 4  # VALID[1], VALID[2] twice, VALID[0]
    assert after.unique == unique + 1  # VALID[2]


def test_a_cycle_of_counted_texts_parses_nothing(tmp_path, parsed):
    log = tmp_path / "day.log"
    write_lines(log, VALID)
    session = WatchSession([str(log)], tmp_path / "state", metrics=METRICS)
    session.cycle()
    parsed.clear()
    write_lines(log, VALID[::-1] * 3)
    session.cycle()
    assert parsed == []
    assert stats(session, "day").valid == 4 + 12


def test_a_text_counted_by_another_dataset_is_parsed(tmp_path, parsed):
    first, second = tmp_path / "a.log", tmp_path / "b.log"
    write_lines(first, [VALID[0], VALID[1]])
    write_lines(second, [VALID[1]])
    session = WatchSession(
        [str(first), str(second)], tmp_path / "state", metrics=METRICS
    )
    session.cycle()
    parsed.clear()
    write_lines(second, [VALID[0], VALID[0]])
    session.cycle()
    assert parsed == [VALID[0]]
    assert stats(session, "b").unique == 2
    assert stats(session, "b").valid == 3
    assert stats(session, "a").unique == 2


def scans(session):
    return {
        name: study.datasets[name].streaks
        for name, study in session._studies.items()
    }


def assert_scans_are_serial(session, streams):
    for name, scan in scans(session).items():
        assert scan.to_dict() == streak_state_reference(
            streams[name], window=WINDOW
        ), name


STREAM = generate_day_log(n_queries=120, seed=5)


@pytest.mark.parametrize("batch", [1, 2, 24])
def test_live_scan_is_the_serial_scan_after_every_cycle(tmp_path, batch):
    log = tmp_path / "day.log"
    session = WatchSession(
        [str(log)], tmp_path / "state", metrics=METRICS, streak_window=WINDOW
    )
    for start in range(0, 72, batch):
        write_lines(log, STREAM[start:start + batch])
        session.cycle()
        assert_scans_are_serial(session, {"day": STREAM[:start + batch]})


@settings(max_examples=12, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from([1, 2, 24]),
            st.booleans(),
        ),
        min_size=2,
        max_size=7,
    )
)
def test_interleaved_growth_and_resumes_keep_the_serial_scan(tmp_path_factory, steps):
    directory = tmp_path_factory.mktemp("interleaved")
    sources = {"a": STREAM, "b": generate_day_log(n_queries=120, seed=6)}
    paths = [directory / "a.log", directory / "b.log"]
    for path in paths:
        path.touch()
    options = dict(metrics=METRICS, streak_window=WINDOW)
    session = WatchSession([str(p) for p in paths], directory / "state", **options)
    fed = {"a": 0, "b": 0}
    for name, batch, resume in steps:
        if resume:  # a new session resumes from the checkpoint
            session = WatchSession(
                [str(p) for p in paths], directory / "state", **options
            )
        write_lines(directory / f"{name}.log", sources[name][fed[name]:fed[name] + batch])
        fed[name] += batch
        session.cycle()
        assert_scans_are_serial(
            session, {key: sources[key][:count] for key, count in fed.items()}
        )


def test_no_steady_cycle_stitches_streaks(tmp_path, monkeypatch):
    log = tmp_path / "day.log"
    write_lines(log, STREAM[:60])
    session = WatchSession(
        [str(log)], tmp_path / "state", metrics=METRICS, streak_window=WINDOW
    )
    session.cycle()

    def refuse(self, other):
        raise AssertionError("a steady cycle stitched a streak accumulator")

    monkeypatch.setattr(StreakAccumulator, "merge", refuse)
    for start in range(60, 120, 12):
        write_lines(log, STREAM[start:start + 12])
        session.cycle()
        session.cycle()  # idle
    assert_scans_are_serial(session, {"day": STREAM})
