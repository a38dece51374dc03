"""Incremental watch mode: crash/kill/fuzz hardening (ISSUE 10).

The contract under test — invariant 12 of ``docs/ARCHITECTURE.md``:
for ANY split of a log into watch cycles, the checkpointed study is
byte-identical to a one-shot ``repro analyze`` of the full log.  The
layers here:

* property tests: arbitrary partitions ≡ one-shot (snapshot bytes AND
  rendered report), with fresh sessions per cycle so every cycle
  exercises the resume path, and streak chains spanning three or more
  checkpoint boundaries;
* kill tests: a subprocess appending and checkpointing is SIGKILLed at
  randomized points; the cursor/study checkpoint pair is never torn,
  and resume always converges to the one-shot bytes;
* tail-safety: unterminated lines and blocks are held back until
  ``drain``; gzip sources grow by appended members, and an unfinished
  member is retried; truncation and prefix rewrites fail loudly
  instead of double-counting;
* warehouse: the part a session stores renders exactly the
  checkpoint after every cycle, tied rows included, and a failed or
  missed write heals on the next cycle;
* codec: the lean chain records round-trip, and legacy full-position
  chains (snapshot schema 2) decode to the identical accumulator;
* memory: open-chain state stays O(window) per chain on a 50k-entry
  single-streak stream (the unbounded-growth regression);
* warm session: the held warehouse handle renders like a fresh one
  and sees other writers' ingests; steady cycles decode the stored
  study zero times and stitch once per change (zero when idle);
* checkpoint fragments: after every cycle, resumes included, the
  checkpoint holds the bytes of the whole-document encoding
  (``tests/oracles.py``), and a cycle encodes only the datasets it
  grew;
* the ``diff`` reporter's format is golden-pinned.
"""

import gzip
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.incremental import _consumable_length, WatchSession
from repro.analysis.snapshot import load_study, streaks_from_dict
from repro.analysis.streaks import StreakAccumulator
from repro.api import analyze_corpora
from repro.cli import main
from repro.exceptions import WatchStateError
from repro.reporting import render_diff, render_report

from loggen import unique_query_pool
from oracles import checkpoint_text_reference
from test_golden_reports import check_golden

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

METRICS = ("shallow", "operators", "streaks")
WINDOW = 5

# A pool mixing parseable queries (several template families, so
# streaks form), an invalid entry (Valid < Total) and duplicates
# (Unique < Valid) — the shape real endpoint logs have.
POOL = unique_query_pool(24)
STREAM = [POOL[i % len(POOL)] for i in range(40)] + POOL[:8]


def write_lines(path: Path, texts, mode: str = "a") -> None:
    with path.open(mode, encoding="utf-8") as handle:
        for text in texts:
            handle.write(text.replace("\n", "\\n") + "\n")


def one_shot(texts, **kwargs):
    """The one-shot reference study for an in-memory stream."""
    result = analyze_corpora(
        {"day": list(texts)},
        metrics=METRICS,
        streak_window=WINDOW,
        **kwargs,
    )
    return result.study


def study_bytes(study) -> str:
    return json.dumps(study.to_dict(), sort_keys=True)


def assert_warehouse_is_checkpoint(warehouse_path: Path, state: Path) -> None:
    """The warehouse renders the checkpointed study, in every format."""
    from repro.warehouse import StudyWarehouse

    checkpoint = load_study(state / "study.json")
    with StudyWarehouse.open(warehouse_path, readonly=True) as warehouse:
        for fmt in ("text", "json", "jsonl", "csv", "markdown"):
            assert warehouse.render(fmt) == render_report(checkpoint, fmt), fmt


def run_watch_cycles(path: Path, state: Path, cuts, texts=STREAM):
    """Append *texts* slice by slice, one fresh WatchSession per cycle."""
    bounds = [0] + list(cuts) + [len(texts)]
    outcomes = []
    for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        write_lines(path, texts[start:stop])
        session = WatchSession(
            [str(path)], state, metrics=METRICS, streak_window=WINDOW
        )
        outcomes.append(session.cycle(drain=index == len(bounds) - 2))
    return outcomes


class TestInvariant12:
    """Checkpointed study ≡ one-shot study, bytes and rendering."""

    def test_three_cycles_match_one_shot(self, tmp_path):
        source = tmp_path / "day.rq"
        state = tmp_path / "state"
        run_watch_cycles(source, state, cuts=[13, 31])
        checkpointed = load_study(state / "study.json")
        reference = one_shot(STREAM)
        assert study_bytes(checkpointed) == study_bytes(reference)
        assert render_report(checkpointed, "text") == render_report(
            reference, "text"
        )

    def test_empty_and_degenerate_cycles(self, tmp_path):
        """Cycles that ingest nothing are identity; the first cycle of
        an empty file still registers the dataset like one-shot does."""
        source = tmp_path / "day.rq"
        source.write_text("", encoding="utf-8")
        state = tmp_path / "state"
        session = WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=WINDOW
        )
        first = session.cycle()
        assert first.total_new == 0 and not first.changed
        assert list(session.study.datasets) == ["day"]
        idle = session.cycle()
        assert not idle.changed and idle.diff == ""
        write_lines(source, STREAM)
        session.cycle(drain=True)
        assert study_bytes(session.study) == study_bytes(one_shot(STREAM))

    def test_per_entry_cycles_match_one_shot(self, tmp_path):
        """The finest split: one watch cycle per appended entry."""
        texts = STREAM[:12]
        source = tmp_path / "day.rq"
        state = tmp_path / "state"
        run_watch_cycles(source, state, cuts=range(1, len(texts)), texts=texts)
        assert study_bytes(load_study(state / "study.json")) == study_bytes(
            one_shot(texts)
        )

    def test_multi_dataset_interleaved_growth(self, tmp_path):
        """Datasets growing in alternating cycles still report with the
        one-shot counter order (dataset-major, not cycle-major), and
        the warehouse renders the checkpoint after every cycle."""
        alpha, beta = tmp_path / "alpha.rq", tmp_path / "beta.rq"
        state = tmp_path / "state"
        slices = [
            (POOL[:6], []),
            ([], POOL[6:14]),
            (POOL[14:20], POOL[2:6]),
        ]
        warehouse = tmp_path / "w.db"
        for index, (for_alpha, for_beta) in enumerate(slices):
            write_lines(alpha, for_alpha)
            write_lines(beta, for_beta)
            with WatchSession(
                [str(alpha), str(beta)],
                state,
                metrics=METRICS,
                streak_window=WINDOW,
                warehouse_path=warehouse,
            ) as session:
                session.cycle(drain=index == len(slices) - 1)
            assert_warehouse_is_checkpoint(warehouse, state)
        reference = analyze_corpora(
            {
                "alpha": POOL[:6] + POOL[14:20],
                "beta": POOL[6:14] + POOL[2:6],
            },
            metrics=METRICS,
            streak_window=WINDOW,
        ).study
        assert study_bytes(load_study(state / "study.json")) == study_bytes(
            reference
        )

    def test_default_metrics_full_pipeline(self, tmp_path):
        """One (slower) case without a metrics selection: every
        per-query pass of the default pipeline folds incrementally."""
        texts = STREAM[:15]
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, texts[:7])
        WatchSession([str(source)], state).cycle()
        write_lines(source, texts[7:])
        WatchSession([str(source)], state).cycle(drain=True)
        reference = analyze_corpora({"day": texts}).study
        assert study_bytes(load_study(state / "study.json")) == study_bytes(
            reference
        )

    def test_directory_source_grows_by_files(self, tmp_path):
        """A directory dataset: existing files grow and new files
        appear (in sorted-name order, the one-shot order)."""
        logs = tmp_path / "logs"
        logs.mkdir()
        state = tmp_path / "state"
        write_lines(logs / "a.rq", POOL[:5])
        WatchSession([str(logs)], state, metrics=METRICS,
                     streak_window=WINDOW).cycle()
        write_lines(logs / "a.rq", POOL[5:9])
        write_lines(logs / "b.rq", POOL[9:12])
        WatchSession([str(logs)], state, metrics=METRICS,
                     streak_window=WINDOW).cycle(drain=True)
        reference = analyze_corpora(
            {"logs": POOL[:12]}, metrics=METRICS, streak_window=WINDOW
        ).study
        assert study_bytes(load_study(state / "study.json")) == study_bytes(
            reference
        )

    def test_gzip_source_appended_members(self, tmp_path):
        """Gzip cursors count decompressed bytes, so a log growing by
        appended gzip members (the standard rotate-free pattern)
        resumes exactly."""
        source = tmp_path / "day.rq.gz"
        state = tmp_path / "state"
        for index, chunk in enumerate((POOL[:7], POOL[7:16])):
            with gzip.open(source, "ab") as handle:
                payload = "".join(
                    text.replace("\n", "\\n") + "\n" for text in chunk
                )
                handle.write(payload.encode("utf-8"))
            WatchSession(
                [str(source)], state, metrics=METRICS, streak_window=WINDOW
            ).cycle(drain=index == 1)
        reference = analyze_corpora(
            {"day": POOL[:16]}, metrics=METRICS, streak_window=WINDOW
        ).study
        assert study_bytes(load_study(state / "study.json")) == study_bytes(
            reference
        )


class TestTailBoundaries:
    def test_unterminated_line_held_back(self, tmp_path):
        source = tmp_path / "day.rq"
        state = tmp_path / "state"
        write_lines(source, POOL[:3])
        with source.open("a", encoding="utf-8") as handle:
            handle.write("SELECT ?half WHERE { ?x")  # writer mid-flush
        session = WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=WINDOW
        )
        outcome = session.cycle()
        assert outcome.new_entries["day"] == 3  # the torn tail waits
        with source.open("a", encoding="utf-8") as handle:
            handle.write(" <urn:p> ?y }\n")
        outcome = session.cycle(drain=True)
        assert outcome.new_entries["day"] == 1  # ...and arrives whole
        reference = one_shot(POOL[:3] + ["SELECT ?half WHERE { ?x <urn:p> ?y }"])
        assert study_bytes(session.study) == study_bytes(reference)

    def half_gzip_member(self, tmp_path):
        """A gzip log whose one member holds STREAM but is written only
        up to half its bytes; returns (path, the other half)."""
        payload = "".join(text.replace("\n", "\\n") + "\n" for text in STREAM)
        member = gzip.compress(payload.encode("utf-8"), mtime=0)
        source = tmp_path / "day.rq.gz"
        source.write_bytes(member[: len(member) // 2])
        return source, member[len(member) // 2:]

    def test_half_gzip_member_is_retried(self, tmp_path):
        """A gzip member its writer has not finished reads like an
        unterminated line: a cycle consumes the complete entries
        decompressed so far, and a later one the rest."""
        import zlib

        source, rest = self.half_gzip_member(tmp_path)
        decompressed = zlib.decompressobj(wbits=31).decompress(
            source.read_bytes()
        )
        session = WatchSession(
            [str(source)], tmp_path / "state", metrics=METRICS,
            streak_window=WINDOW,
        )
        first = session.cycle()
        assert 0 < first.total_new == decompressed.count(b"\n") < len(STREAM)
        assert session.cycle().total_new == 0
        with source.open("ab") as handle:
            handle.write(rest)
        assert first.total_new + session.cycle().total_new == len(STREAM)
        assert study_bytes(session.study) == study_bytes(one_shot(STREAM))

    def test_drain_on_half_gzip_member_exits_2(self, tmp_path, capsys):
        source, _ = self.half_gzip_member(tmp_path)
        state = tmp_path / "state"
        argv = ["watch", str(source), "--state", str(state), "--metrics", "shallow"]
        assert main([*argv, "--no-drain"]) == 0
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(source) in err and "Compressed file ended" in err

    @pytest.mark.parametrize("damage", ["deflate", "crc"])
    def test_damaged_gzip_fails_without_drain(self, tmp_path, damage):
        """Only an incomplete member is retried: corrupt deflate data or
        a bad CRC fails the cycle at once."""
        from repro.logs.sources import IncompleteGzip

        source, rest = self.half_gzip_member(tmp_path)
        data = bytearray(source.read_bytes() + rest)
        if damage == "deflate":
            for index in range(20, 60):
                data[index] ^= 0xFF
        else:
            data[-8] ^= 0xFF  # the trailer's CRC-32
        source.write_bytes(bytes(data))
        session = WatchSession(
            [str(source)], tmp_path / "state", metrics=METRICS,
            streak_window=WINDOW,
        )
        with pytest.raises(gzip.BadGzipFile) as error:
            session.cycle()
        assert not isinstance(error.value, IncompleteGzip)
        assert not (tmp_path / "state").exists()

    def test_blocks_held_back_until_blank_line(self, tmp_path):
        blocks = [
            "SELECT ?x\nWHERE { ?x <urn:a> ?y }",
            "ASK {\n ?s <urn:b> ?o\n}",
            "SELECT ?z\nWHERE { ?z <urn:c> ?w }",
        ]
        source = tmp_path / "day.rq"
        source.write_text(
            blocks[0] + "\n\n" + blocks[1] + "\n\n" + blocks[2] + "\n",
            encoding="utf-8",
        )
        state = tmp_path / "state"
        session = WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=WINDOW
        )
        # No trailing blank line: the last block may still be growing.
        assert session.cycle().new_entries["day"] == 2
        with source.open("a", encoding="utf-8") as handle:
            handle.write("LIMIT 3\n")
        outcome = session.cycle(drain=True)
        assert outcome.new_entries["day"] == 1
        reference = one_shot(blocks[:2] + [blocks[2] + "\nLIMIT 3"])
        assert study_bytes(session.study) == study_bytes(reference)

    @pytest.mark.parametrize(
        "data, format, expected",
        [
            (b"a\nb\nc", "lines", 4),
            (b"a\nb\n", "lines", 4),
            (b"", "lines", 0),
            (b"no newline", "lines", 0),
            (b"q1\n\nq2 partial", "blocks", 4),
            (b"q1\nq1b\n", "blocks", 0),
            (b"q1\n \t\nq2\n", "blocks", 6),
        ],
    )
    def test_consumable_length(self, data, format, expected):
        assert _consumable_length(data, format, drain=False) == expected
        assert _consumable_length(data, format, drain=True) == len(data)


class TestSourceSafety:
    def make_session(self, tmp_path):
        source = tmp_path / "day.rq"
        state = tmp_path / "state"
        write_lines(source, POOL[:6])
        session = WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=WINDOW
        )
        session.cycle()
        return source, state

    def test_truncated_source_fails_loudly(self, tmp_path):
        source, state = self.make_session(tmp_path)
        source.write_text("fresh\n", encoding="utf-8")
        with pytest.raises(WatchStateError, match="shrank below"):
            WatchSession(
                [str(source)], state, metrics=METRICS, streak_window=WINDOW
            ).cycle()

    def test_rewritten_prefix_fails_loudly(self, tmp_path):
        source, state = self.make_session(tmp_path)
        data = source.read_bytes()
        source.write_bytes(b"X" + data[1:] + b"more\n")
        with pytest.raises(WatchStateError, match="rewritten behind"):
            WatchSession(
                [str(source)], state, metrics=METRICS, streak_window=WINDOW
            ).cycle()

    def test_deleted_source_fails_loudly(self, tmp_path):
        source, state = self.make_session(tmp_path)
        source.unlink()
        with pytest.raises(WatchStateError, match="unreadable"):
            WatchSession(
                [str(source)], state, metrics=METRICS, streak_window=WINDOW
            ).cycle()

    def test_corrupt_checkpoint_fails_loudly(self, tmp_path):
        source, state = self.make_session(tmp_path)
        (state / "checkpoint.json").write_text("{torn", encoding="utf-8")
        with pytest.raises(WatchStateError, match="unreadable checkpoint"):
            WatchSession(
                [str(source)], state, metrics=METRICS, streak_window=WINDOW
            )

    def test_config_change_fails_loudly(self, tmp_path):
        source, state = self.make_session(tmp_path)
        with pytest.raises(WatchStateError, match="cannot mix"):
            WatchSession(
                [str(source)], state, metrics=METRICS, streak_window=WINDOW + 1
            )

    def test_input_change_fails_loudly(self, tmp_path):
        source, state = self.make_session(tmp_path)
        other = tmp_path / "other.rq"
        write_lines(other, POOL[:2])
        with pytest.raises(WatchStateError, match="watches inputs"):
            WatchSession(
                [str(other)], state, metrics=METRICS, streak_window=WINDOW
            )

    def test_duplicate_dataset_names_rejected(self, tmp_path):
        write_lines(tmp_path / "day.rq", POOL[:2])
        write_lines(tmp_path / "day.log", POOL[:2])
        with pytest.raises(ValueError, match="duplicate dataset"):
            WatchSession(
                [str(tmp_path / "day.rq"), str(tmp_path / "day.log")],
                tmp_path / "state",
            )

    def test_unknown_metric_rejected_up_front(self, tmp_path):
        with pytest.raises(ValueError, match="unknown metrics"):
            WatchSession(
                [str(tmp_path / "day.rq")],
                tmp_path / "state",
                metrics=("streeks",),
            )

    def test_malformed_cursor_rejected(self, tmp_path):
        source, state = self.make_session(tmp_path)
        checkpoint = state / "checkpoint.json"
        data = json.loads(checkpoint.read_text(encoding="utf-8"))
        data["cursors"][0]["offset"] = -3
        checkpoint.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(WatchStateError, match="malformed cursor"):
            WatchSession(
                [str(source)], state, metrics=METRICS, streak_window=WINDOW
            )


# ---------------------------------------------------------------------------
# Kill tests: SIGKILL a checkpointing watcher at randomized points.
# ---------------------------------------------------------------------------

_DRIVER = """
import sys
sys.path.insert(0, {src!r})
from pathlib import Path
from repro.api import WatchSession

log, state = Path({log!r}), {state!r}
lines = Path({pool!r}).read_text(encoding="utf-8").splitlines()
data = log.read_bytes() if log.exists() else b""
data = data[: data.rfind(b"\\n") + 1]  # drop a torn tail from a prior kill
log.write_bytes(data)
appended = data.count(b"\\n")
for line in lines[appended:]:
    with log.open("a", encoding="utf-8") as handle:
        handle.write(line + "\\n")
    WatchSession(
        [str(log)], state, metrics=("shallow", "operators", "streaks"),
        streak_window=5,
    ).cycle()
print("DRIVER-DONE", flush=True)
"""


class TestKillResume:
    """The crash-resume contract: a SIGKILL anywhere — including inside
    a checkpoint write — never tears the cursor/study pair, and
    resuming converges to the one-shot bytes."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sigkill_mid_run_converges(self, tmp_path, seed):
        texts = STREAM[:20]
        pool_file = tmp_path / "pool.txt"
        pool_file.write_text(
            "".join(t.replace("\n", "\\n") + "\n" for t in texts),
            encoding="utf-8",
        )
        log, state = tmp_path / "day.rq", tmp_path / "state"
        script = _DRIVER.format(
            src=SRC_DIR, log=str(log), state=str(state), pool=str(pool_file)
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        time.sleep(random.Random(seed).uniform(0.2, 1.5))
        process.kill()
        process.wait()

        # Never torn: whatever instant the kill hit, the checkpoint
        # must be a loadable cursor+study pair (or not exist at all).
        if (state / "checkpoint.json").exists():
            resumed = WatchSession(
                [str(log)], state, metrics=METRICS, streak_window=WINDOW
            )
            assert resumed.generation >= 1

        # Converge: drop any torn trailing line the kill left behind
        # (the watch cursor never consumed past the last newline, so
        # truncating the tail is safe), append what is missing, drain.
        data = log.read_bytes() if log.exists() else b""
        data = data[: data.rfind(b"\n") + 1]
        log.write_bytes(data)
        write_lines(log, texts[data.count(b"\n"):])
        WatchSession(
            [str(log)], state, metrics=METRICS, streak_window=WINDOW
        ).cycle(drain=True)
        assert study_bytes(load_study(state / "study.json")) == study_bytes(
            one_shot(texts)
        )

    def test_kill_inside_checkpoint_write_keeps_previous(
        self, tmp_path, monkeypatch
    ):
        """Deterministic torn-write probe: die exactly at the replace
        step of the checkpoint write; the previous checkpoint must
        survive intact and re-ingesting converges."""
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, POOL[:4])
        session = WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=WINDOW
        )
        session.cycle()
        before = (state / "checkpoint.json").read_bytes()

        from repro import ioutils

        real_replace = ioutils.os.replace

        def exploding_replace(src, dst):
            raise OSError("simulated crash at replace")

        write_lines(source, POOL[4:9])
        monkeypatch.setattr(ioutils.os, "replace", exploding_replace)
        crashing = WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=WINDOW
        )
        with pytest.raises(OSError, match="simulated crash"):
            crashing.cycle()
        monkeypatch.setattr(ioutils.os, "replace", real_replace)
        assert (state / "checkpoint.json").read_bytes() == before

        WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=WINDOW
        ).cycle(drain=True)
        assert study_bytes(load_study(state / "study.json")) == study_bytes(
            one_shot(POOL[:9])
        )


# ---------------------------------------------------------------------------
# Property tests: arbitrary partitions ≡ one-shot.
# ---------------------------------------------------------------------------

texts_strategy = st.lists(
    st.sampled_from(POOL), min_size=1, max_size=24
)


@settings(max_examples=12, deadline=None)
@given(texts=texts_strategy, data=st.data())
def test_arbitrary_partition_equals_one_shot(tmp_path_factory, texts, data):
    cuts = sorted(
        data.draw(
            st.lists(st.integers(0, len(texts)), min_size=0, max_size=4)
        )
    )
    tmp_path = tmp_path_factory.mktemp("watch-prop")
    source, state = tmp_path / "day.rq", tmp_path / "state"
    run_watch_cycles(source, state, cuts, texts=texts)
    checkpointed = load_study(state / "study.json")
    reference = one_shot(texts)
    assert study_bytes(checkpointed) == study_bytes(reference)
    assert render_report(checkpointed, "text") == render_report(
        reference, "text"
    )


@settings(max_examples=8, deadline=None)
@given(n_cycles=st.integers(4, 7))
def test_streak_spans_three_checkpoint_boundaries(tmp_path_factory, n_cycles):
    """One long refinement streak sliced across >= 3 checkpoints: the
    open-chain resume token must carry it through every stitch."""
    family = 'SELECT ?x WHERE {{ ?x <urn:name> "Alice{}" }}'
    texts = [family.format(i) for i in range(2 * n_cycles)]
    tmp_path = tmp_path_factory.mktemp("watch-streak")
    source, state = tmp_path / "day.rq", tmp_path / "state"
    run_watch_cycles(
        source, state, cuts=range(2, len(texts), 2), texts=texts
    )
    final = load_study(state / "study.json")
    accumulator = final.datasets["day"].streaks
    reference = one_shot(texts).datasets["day"].streaks
    assert accumulator == reference
    assert accumulator.longest == len(texts)  # one unbroken streak
    assert accumulator.streak_count == 1


# ---------------------------------------------------------------------------
# Lean chain codec: round-trip, and legacy (schema-2) equivalence.
# ---------------------------------------------------------------------------

chain_streams = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2)).map(
        lambda fv: POOL[(fv[0] * 5 + fv[1]) % len(POOL)]
    ),
    min_size=0,
    max_size=30,
)


@settings(max_examples=25, deadline=None)
@given(stream=chain_streams, window=st.sampled_from([1, 3, 5, 64]))
def test_lean_chain_codec_round_trip(stream, window):
    accumulator = StreakAccumulator(window=window)
    for text in stream:
        accumulator.push(text)
    data = json.loads(json.dumps(accumulator.to_dict()))
    reloaded = streaks_from_dict(data, "roundtrip")
    assert reloaded == accumulator
    assert json.dumps(reloaded.to_dict()) == json.dumps(accumulator.to_dict())


@settings(max_examples=25, deadline=None)
@given(stream=chain_streams)
def test_legacy_positions_decode_to_lean_chains(stream):
    """Schema-2 chains carried every member position; with a window
    wider than the stream the head region covers all members, so the
    legacy encoding can be reconstructed exactly — and must decode to
    the identical accumulator the lean codec produces."""
    accumulator = StreakAccumulator(window=64)
    for text in stream:
        accumulator.push(text)
    lean = accumulator.to_dict()
    legacy = json.loads(json.dumps(lean))
    for chain, record in zip(accumulator.chains, legacy["chains"]):
        assert len(chain.head_positions) == chain.length  # window covers all
        record.clear()
        record["positions"] = list(chain.head_positions)
        record["tail"] = chain.tail
    assert streaks_from_dict(legacy, "legacy") == streaks_from_dict(
        json.loads(json.dumps(lean)), "lean"
    )


def test_legacy_positions_beyond_window_truncate_to_head():
    """A legacy chain whose members extend past the window keeps only
    head-region positions after conversion (the merge never needs the
    rest) while span and length survive."""
    legacy = {
        "window": 3,
        "threshold": 0.25,
        "length": 12,
        "head": ["a", "b", "c"],
        "closed": [],
        "chains": [{"positions": [1, 2, 5, 9], "tail": "q"}],
    }
    accumulator = streaks_from_dict(legacy, "legacy")
    chain = accumulator.chains[0]
    assert (chain.start, chain.length, chain.end) == (1, 4, 9)
    assert chain.head_positions == [1, 2]
    assert chain.tail == "q"


# ---------------------------------------------------------------------------
# Memory regression: open-chain state is O(window), not O(stream).
# ---------------------------------------------------------------------------


def test_single_streak_state_is_window_bounded():
    """50k near-identical queries form one enormous streak; the open
    chain must retain O(window) state (the pre-lean representation
    kept every member position — 50k ints — which is exactly the
    unbounded growth this pins down)."""
    window = 30
    accumulator = StreakAccumulator(window=window)
    text = 'SELECT ?x WHERE { ?x <urn:name> "Alice" }'
    for _ in range(50_000):
        accumulator.push(text)
    assert accumulator.longest == 50_000
    assert len(accumulator.chains) == 1
    chain = accumulator.chains[0]
    assert len(chain.head_positions) <= window
    total_state = sum(
        len(c.head_positions) + 2 for c in accumulator.chains
    )
    assert total_state <= window * window
    # The resume token (what every watch checkpoint serializes) stays
    # small no matter how long the streak runs.
    assert len(json.dumps(accumulator.to_dict())) < 4096


# ---------------------------------------------------------------------------
# Diff reporter: golden-pinned format.
# ---------------------------------------------------------------------------


class TestDiffReporter:
    def test_diff_golden(self, update_goldens):
        old = one_shot(POOL[:6])
        new = one_shot(POOL[:6] + POOL[6:10])
        check_golden("diff_report.txt", render_diff(old, new), update_goldens)

    def test_equal_studies_diff_empty(self):
        assert render_diff(one_shot(POOL[:6]), one_shot(POOL[:6])) == ""

    def test_none_baseline_lists_everything_as_new(self):
        study = one_shot(POOL[:4])
        diff = render_diff(None, study)
        assert diff.count("+ ") > 20
        assert "->" not in diff

    def test_removed_cells_are_listed(self):
        wide = analyze_corpora(
            {"day": POOL[:4], "extra": POOL[4:8]},
            metrics=METRICS,
            streak_window=WINDOW,
        ).study
        diff = render_diff(wide, one_shot(POOL[:4]))
        assert "  - extra / total = 4" in diff

    def test_registered_format_renders(self):
        study = one_shot(POOL[:4])
        assert render_report(study, "diff") == render_diff(None, study)


# ---------------------------------------------------------------------------
# Schema migration: snapshot schema n-1 checkpoints keep working.
# ---------------------------------------------------------------------------


class TestSchemaMigration:
    def test_schema2_checkpoint_resumes_byte_identically(self, tmp_path):
        """A checkpoint whose embedded studies carry snapshot schema 2
        (full member-position chains) loads into a live session and
        continues to the same bytes as a fresh watch."""
        texts = STREAM[:16]
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, texts[:8])
        WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=64
        ).cycle()

        checkpoint = state / "checkpoint.json"
        data = json.loads(checkpoint.read_text(encoding="utf-8"))
        for document in data["studies"].values():
            assert document["schema"] == 3
            document["schema"] = 2
            for stats in document["datasets"].values():
                streaks = stats.get("streaks")
                if not streaks:
                    continue
                for record in streaks["chains"]:
                    # window 64 > slice size: head == all members, so
                    # the legacy encoding is exactly reconstructible.
                    positions = record["head_positions"]
                    assert len(positions) == record["length"]
                    tail = record["tail"]
                    record.clear()
                    record.update(positions=positions, tail=tail)
        checkpoint.write_text(json.dumps(data), encoding="utf-8")

        write_lines(source, texts[8:])
        WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=64
        ).cycle(drain=True)
        reference = analyze_corpora(
            {"day": texts}, metrics=METRICS, streak_window=64
        ).study
        assert study_bytes(load_study(state / "study.json")) == study_bytes(
            reference
        )

    def test_future_checkpoint_schema_rejected(self, tmp_path):
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, POOL[:3])
        WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=WINDOW
        ).cycle()
        checkpoint = state / "checkpoint.json"
        data = json.loads(checkpoint.read_text(encoding="utf-8"))
        data["schema"] = 99
        checkpoint.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(WatchStateError, match="schema 99"):
            WatchSession(
                [str(source)], state, metrics=METRICS, streak_window=WINDOW
            )


# ---------------------------------------------------------------------------
# Warehouse integration and the CLI verb.
# ---------------------------------------------------------------------------


class TestWarehouseIntegration:
    def test_cycle_deltas_track_the_checkpoint(self, tmp_path):
        from repro.warehouse import StudyWarehouse

        source, state = tmp_path / "day.rq", tmp_path / "state"
        warehouse_path = tmp_path / "w.db"
        for index, stop in enumerate((9, 20, len(STREAM))):
            start = [0, 9, 20][index]
            write_lines(source, STREAM[start:stop])
            WatchSession(
                [str(source)],
                state,
                metrics=METRICS,
                streak_window=WINDOW,
                warehouse_path=warehouse_path,
            ).cycle(drain=stop == len(STREAM))
        checkpointed = load_study(state / "study.json")
        with StudyWarehouse.open(warehouse_path, readonly=True) as warehouse:
            assert warehouse.render("text") == render_report(
                checkpointed, "text"
            )
            log = warehouse.ingest_log()
        assert [entry["source"].split("@")[-1] for entry in log] == [
            "1", "2", "3",
        ]

    def test_tied_rows_keep_the_checkpoint_order(self, tmp_path):
        """Table 5 ties rank in the checkpoint's dataset order, not in
        the order the cycles brought them: b's path arrives a cycle
        before a's and still ranks after it."""
        a, b = tmp_path / "a.rq", tmp_path / "b.rq"
        state, warehouse = tmp_path / "state", tmp_path / "w.db"
        cycles = [
            (
                ["SELECT * WHERE { ?s <urn:x> ?o }"],
                ["SELECT * WHERE { ?s (<urn:p>|<urn:q>)* ?o }"],
            ),
            (["SELECT * WHERE { ?s <urn:p>/<urn:q> ?o }"], []),
        ]
        for for_a, for_b in cycles:
            write_lines(a, for_a)
            write_lines(b, for_b)
            with WatchSession(
                [str(a), str(b)], state, metrics=("paths",),
                warehouse_path=warehouse,
            ) as session:
                session.cycle()
        assert_warehouse_is_checkpoint(warehouse, state)

    @pytest.mark.parametrize("grow_after", [True, False], ids=["grow", "idle"])
    def test_failed_write_heals_on_the_next_cycle(
        self, tmp_path, monkeypatch, grow_after
    ):
        import sqlite3

        from repro.exceptions import WarehouseError
        from repro.warehouse import StudyWarehouse

        rebuild = StudyWarehouse._rebuild_derived
        failures = []

        def rebuild_or_fail(handle, study):
            if failures:
                failures.pop()
                raise sqlite3.OperationalError("disk I/O error")
            return rebuild(handle, study)

        monkeypatch.setattr(StudyWarehouse, "_rebuild_derived", rebuild_or_fail)
        source, state = tmp_path / "day.rq", tmp_path / "state"
        warehouse = tmp_path / "w.db"
        slices = [STREAM[:16], STREAM[16:32], STREAM[32:] if grow_after else []]
        with WatchSession(
            [str(source)], state, metrics=METRICS, streak_window=WINDOW,
            warehouse_path=warehouse,
        ) as session:
            for index, texts in enumerate(slices):
                write_lines(source, texts)
                if index == 1:
                    failures.append(True)
                    with pytest.raises(WarehouseError, match="disk I/O error"):
                        session.cycle()
                else:
                    session.cycle()
        assert_warehouse_is_checkpoint(warehouse, state)

    def test_idle_cycle_stores_what_another_session_checkpointed(self, tmp_path):
        """A session run without the warehouse (or killed before its
        write) leaves it behind; the next session's first cycle, idle
        or not, catches it up."""
        source, state = tmp_path / "day.rq", tmp_path / "state"
        warehouse = tmp_path / "w.db"

        def session(**kwargs):
            return WatchSession(
                [str(source)], state, metrics=METRICS, streak_window=WINDOW,
                **kwargs,
            )

        write_lines(source, STREAM[:20])
        with session(warehouse_path=warehouse) as first:
            first.cycle()
        write_lines(source, STREAM[20:])
        session().cycle()
        with session(warehouse_path=warehouse) as third:
            assert not third.cycle().changed
            assert not third.cycle().changed
            log = third._warehouse.ingest_log()
        assert len(log) == 2
        assert log[-1]["queries"] == load_study(state / "study.json").query_count
        assert_warehouse_is_checkpoint(warehouse, state)


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is counted; returns the tally."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestWarmSession:
    """One session holds one warehouse handle and stitches once per
    change of its studies; neither may change a byte."""

    CUTS = (9, 14, 20, 27, 33, 40)

    def session(self, tmp_path):
        return WatchSession(
            [str(tmp_path / "day.rq")],
            tmp_path / "state",
            metrics=METRICS,
            streak_window=WINDOW,
            warehouse_path=tmp_path / "w.db",
        )

    def grow(self, tmp_path, start, stop):
        write_lines(tmp_path / "day.rq", STREAM[start:stop])

    def test_held_handle_renders_like_fresh_handle(self, tmp_path):
        from repro.warehouse import StudyWarehouse

        bounds = (0,) + self.CUTS + (len(STREAM),)
        with self.session(tmp_path) as session:
            for start, stop in zip(bounds, bounds[1:]):
                self.grow(tmp_path, start, stop)
                session.cycle(drain=stop == len(STREAM))
                held = session._warehouse
                with StudyWarehouse.open(
                    tmp_path / "w.db", readonly=True
                ) as fresh:
                    assert held.render("text") == fresh.render("text")
                    assert held.render("json") == fresh.render("json")
                    assert held.generation == fresh.generation
        assert session._warehouse is None
        assert study_bytes(session.study) == study_bytes(one_shot(STREAM))

    def test_ingest_by_second_handle_is_picked_up(self, tmp_path):
        from repro.warehouse import StudyWarehouse

        other = analyze_corpora(
            {"other": POOL[:6]}, metrics=METRICS, streak_window=WINDOW
        ).study
        with self.session(tmp_path) as session:
            self.grow(tmp_path, 0, 20)
            session.cycle()
            with StudyWarehouse.open(tmp_path / "w.db") as second:
                second.ingest(other, source="other.json")
            self.grow(tmp_path, 20, len(STREAM))
            session.cycle(drain=True)
            held = session._warehouse
            assert held.generation == 3
            assert list(held.study().datasets) == ["day", "other"]
            with StudyWarehouse.open(tmp_path / "w.db", readonly=True) as fresh:
                assert held.render("text") == fresh.render("text")

    def test_steady_cycles_decode_nothing_and_stitch_once(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis import incremental
        from repro.warehouse import store

        decodes = counting(monkeypatch, store, "_decode_study")
        stitches = counting(monkeypatch, incremental, "_stitch")
        with self.session(tmp_path) as session:
            self.grow(tmp_path, 0, self.CUTS[0])
            session.cycle()
            decodes.clear()
            for start, stop in zip(self.CUTS, self.CUTS[1:]):
                stitches.clear()
                self.grow(tmp_path, start, stop)
                assert session.cycle().changed
                assert len(stitches) == 1
                stitches.clear()
                assert not session.cycle().changed
                assert stitches == []
            assert decodes == []

    def test_close_is_idempotent_and_cycle_reopens(self, tmp_path):
        session = self.session(tmp_path)
        session.close()  # nothing held yet
        self.grow(tmp_path, 0, 10)
        session.cycle()
        first = session._warehouse
        assert first is not None
        session.close()
        session.close()
        assert session._warehouse is None
        self.grow(tmp_path, 10, len(STREAM))
        session.cycle(drain=True)
        assert session._warehouse is not None
        assert session._warehouse is not first
        assert session._warehouse.generation == 2
        session.close()

    def test_warehouse_error_drops_the_handle(self, tmp_path):
        import sqlite3

        from repro.exceptions import WarehouseError

        with self.session(tmp_path) as session:
            self.grow(tmp_path, 0, 10)
            session.cycle()
            assert session._warehouse is not None
            # Another writer leaves a newer generation the held handle
            # cannot decode.
            connection = sqlite3.connect(tmp_path / "w.db")
            with connection:
                connection.execute("UPDATE parts SET body = '{'")
                connection.execute(
                    "UPDATE meta SET value = '9' WHERE key = 'generation'"
                )
            connection.close()
            self.grow(tmp_path, 10, 20)
            with pytest.raises(WarehouseError, match="unreadable"):
                session.cycle()
            assert session._warehouse is None


# ---------------------------------------------------------------------------
# Checkpoint fragments: the assembled checkpoint is the whole-document
# encoding, and only grown datasets are encoded again.
# ---------------------------------------------------------------------------

FRAGMENT_DATASETS = ("a", "b", "c")


def fragment_session(tmp_path):
    return WatchSession(
        [str(tmp_path / f"{name}.rq") for name in FRAGMENT_DATASETS],
        tmp_path / "state",
        metrics=METRICS,
        streak_window=WINDOW,
    )


@settings(max_examples=15, deadline=None)
@given(
    growth=st.lists(
        st.lists(st.integers(0, 4), min_size=3, max_size=3),
        min_size=2, max_size=6,
    ),
    data=st.data(),
)
def test_checkpoint_bytes_equal_whole_document_encoding(
    tmp_path_factory, growth, data
):
    """After every cycle, resumes included, ``checkpoint.json`` holds
    exactly the one-call encoding of the session's state."""
    resume_at = data.draw(st.integers(1, len(growth) - 1))
    tmp_path = tmp_path_factory.mktemp("fragments")
    for name in FRAGMENT_DATASETS:
        (tmp_path / f"{name}.rq").touch()
    session = fragment_session(tmp_path)
    drawn = 0
    for number, counts in enumerate(growth):
        if number == resume_at:
            session = fragment_session(tmp_path)
        for name, count in zip(FRAGMENT_DATASETS, counts):
            write_lines(tmp_path / f"{name}.rq", STREAM[drawn:drawn + count])
            drawn += count
        session.cycle()
        assert (tmp_path / "state" / "checkpoint.json").read_text(
            encoding="utf-8"
        ) == checkpoint_text_reference(session)


def test_checkpoint_encodes_only_grown_datasets(tmp_path, monkeypatch):
    """An idle cycle encodes no dataset study for the checkpoint; a
    cycle that grows k datasets encodes exactly k."""
    from repro.analysis import incremental

    encodes = counting(monkeypatch, incremental, "study_to_dict")
    for name in FRAGMENT_DATASETS:
        write_lines(tmp_path / f"{name}.rq", STREAM[:3])
    session = fragment_session(tmp_path)
    session.cycle()
    assert len(encodes) == len(FRAGMENT_DATASETS)
    for grown in ((), ("b",), ("a", "c"), FRAGMENT_DATASETS, ()):
        encodes.clear()
        for name in grown:
            write_lines(tmp_path / f"{name}.rq", STREAM[3:5])
        assert session.cycle().changed == bool(grown)
        assert len(encodes) == len(grown)
        assert sorted(
            name for (study,) in encodes for name in study.datasets
        ) == sorted(grown)
    # A resumed session starts without fragments and encodes them all.
    encodes.clear()
    resumed = fragment_session(tmp_path)
    resumed.cycle()
    assert len(encodes) == len(FRAGMENT_DATASETS)
    assert (tmp_path / "state" / "checkpoint.json").read_text(
        encoding="utf-8"
    ) == checkpoint_text_reference(resumed)


class TestWatchCli:
    def test_watch_then_idle_then_resume(self, tmp_path, capsys):
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, STREAM[:10])
        base = [
            "watch", str(source), "--state", str(state),
            "--interval", "0", "--metrics", ",".join(METRICS),
            "--streak-window", str(WINDOW),
        ]
        assert main(base + ["--no-drain"]) == 0
        first = capsys.readouterr().out
        assert "cycle 1: 10 new entries" in first
        assert "table1:" in first  # the diff report
        # Nothing new: the cycle is identity and prints no diff.
        assert main(base + ["--no-drain"]) == 0
        idle = capsys.readouterr().out
        assert "cycle 2: 0 new entries" in idle
        assert "table1:" not in idle
        write_lines(source, STREAM[10:])
        assert main(base + ["--cycles", "2"]) == 0
        capsys.readouterr()
        assert study_bytes(load_study(state / "study.json")) == study_bytes(
            one_shot(STREAM)
        )

    def test_watch_closes_the_session(self, tmp_path, capsys, monkeypatch):
        """The verb releases the warehouse handle on success and on a
        failed cycle alike."""
        closed = counting(monkeypatch, WatchSession, "close")
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, STREAM[:5])
        base = [
            "watch", str(source), "--state", str(state), "--interval", "0",
            "--warehouse", str(tmp_path / "w.db"),
        ]
        assert main(base + ["--no-drain"]) == 0
        assert len(closed) == 1
        source.write_text("tiny\n", encoding="utf-8")
        assert main(base) == 2
        assert len(closed) == 2
        capsys.readouterr()

    def test_watch_rejects_config_change(self, tmp_path, capsys):
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, STREAM[:5])
        base = ["watch", str(source), "--state", str(state), "--interval", "0"]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--metrics", "shallow"]) == 2
        assert "cannot mix" in capsys.readouterr().err

    def test_watch_rejects_empty_metrics(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["watch", str(tmp_path / "x.rq"), "--state",
                 str(tmp_path / "s"), "--metrics", " , "]
            )
        assert excinfo.value.code == 2
        assert "selects no passes" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("threshold", ["7", "nan"])
    def test_watch_rejects_out_of_range_threshold(
        self, tmp_path, capsys, threshold
    ):
        """The range check `analyze` applies: exit 2 before any state
        is written, not a checkpoint the next cycle refuses to load."""
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, STREAM[:5])
        assert main(
            ["watch", str(source), "--state", str(state), "--interval", "0",
             "--metrics", "streaks", "--streak-threshold", threshold]
        ) == 2
        assert "streak_threshold must be within [0, 1]" in capsys.readouterr().err
        assert not state.exists()

    @pytest.mark.parametrize("interval", ["-1", "nan", "inf", "1e10"])
    def test_watch_rejects_bad_interval(self, tmp_path, capsys, interval):
        """An interval ``time.sleep`` cannot take exits 2 at parse time,
        before any cycle runs or any state is written."""
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, STREAM[:5])
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", str(source), "--state", str(state),
                  "--cycles", "2", "--interval", interval])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--interval" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not state.exists()

    def test_watch_reports_truncation(self, tmp_path, capsys):
        source, state = tmp_path / "day.rq", tmp_path / "state"
        write_lines(source, STREAM[:5])
        base = [
            "watch", str(source), "--state", str(state), "--interval", "0",
        ]
        assert main(base + ["--no-drain"]) == 0
        capsys.readouterr()
        source.write_text("tiny\n", encoding="utf-8")
        assert main(base) == 2
        assert "shrank below" in capsys.readouterr().err
