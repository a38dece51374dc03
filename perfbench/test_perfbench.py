"""Self-tests of the benchmark runner (``python -m pytest perfbench``).

They check the runner's promises, not the system's speed: declared
metrics are well-formed and match BENCHMARK.json, the tail rule keeps
ten samples beyond, span accounting adds up, host-speed corrections
(CPU turns, the gauge task) behave, a wrong reference shows up as
failed operations, and the runner refuses to run without sources.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402
import bench_workloads  # noqa: E402
from bench_gauge import gauge_task  # noqa: E402
from bench_stats import (  # noqa: E402
    END_TO_END, IMPORT_GROUPS, PASSES, PER_LAYER, balanced_median, normalize, tail,
)
from bench_system import ALL_CPUS, _attribute, gauge_seconds, on_cpu, placements  # noqa: E402
from bench_trace import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Metric names and units the benchmark format accepts.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_declared_metrics_are_well_formed():
    declared = {name: spec[0] for name, spec in {**END_TO_END, **PER_LAYER}.items()}
    assert len(declared) == len(END_TO_END) + len(PER_LAYER)
    assert all(NAME_RE.match(name) for name in declared)
    assert all(UNIT_RE.match(unit) for unit in declared.values())
    assert all(0 < bound <= 0.25 for _, _, bound in END_TO_END.values())
    assert END_TO_END["setup_s"][:2] == ("s", "lower")
    assert max(bound for _, _, bound in END_TO_END.values()) == END_TO_END["setup_s"][2]


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound) in END_TO_END.items()
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in PER_LAYER.items()
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench_workloads.WORKLOADS)


def test_layer_names_follow_the_program():
    from repro.analysis import PASS_NAMES

    assert PASSES == PASS_NAMES
    subpackages = {
        path.name for path in (HERE.parent / "src" / "repro").iterdir()
        if (path / "__init__.py").is_file()
    }
    assert subpackages | {"core"} == set(IMPORT_GROUPS)


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(10))) is None
    found = tail([float(x) for x in range(1, 101)])
    assert (found.value, found.label, found.samples) == (90.0, "p90", 100)
    generator = random.Random(7)
    for n in range(11, 400, 13):
        values = [generator.random() for _ in range(n)]
        found = tail(values)
        assert sum(v > found.value for v in values) == 10  # at least ten, and the highest such
        assert found.samples == n
        assert float(found.label[1:]) <= 100 * (n - 10) / n


def test_balanced_median_ignores_how_samples_split_over_cpus():
    fast, slow = [1.0, 1.1, 0.9], [2.0, 2.2, 1.8]
    even = [(0, v) for v in fast] + [(1, v) for v in slow]
    lopsided = [(0, v) for v in fast * 3] + [(1, v) for v in slow]
    assert balanced_median(even) == pytest.approx(1.5)
    assert balanced_median(lopsided) == pytest.approx(1.5)
    assert balanced_median([(None, v) for v in fast]) == pytest.approx(1.0)


def test_normalize_scales_by_the_gauge():
    assert normalize(1.0, 0.1) == pytest.approx(1.0)
    assert normalize(1.0, 0.2) == pytest.approx(0.5)  # a host twice as slow
    assert normalize(0.5, 0.04, nominal=0.02) == pytest.approx(0.25)


def test_gauge_task_is_fixed_work():
    assert gauge_task(40) == gauge_task(40) > 0
    assert gauge_seconds() > 0  # the process form runs and exits 0
    assert gauge_seconds(placements()) > 0


def test_cpu_turns_restore_the_runner():
    cpus = placements()
    assert cpus == ([None] if len(ALL_CPUS) == 1 else sorted(ALL_CPUS))
    with on_cpu(cpus[-1]):
        if cpus[-1] is not None:
            assert os.sched_getaffinity(0) == {cpus[-1]}
    assert os.sched_getaffinity(0) == ALL_CPUS


def test_self_times_and_coverage():
    tracer = Tracer("t")
    with tracer.span("trace") as root:
        with tracer.span("a.x") as child:
            with tracer.span("b.y"):
                pass
    # Replace clock readings with known ones: root 0-10, a.x 1-9, b.y 2-5.
    root.update(start=0.0, end=10.0)
    child.update(start=1.0, end=9.0)
    tracer.spans[2].update(start=2.0, end=5.0)
    assert tracer.self_times() == {0: 2.0, 1: 5.0, 2: 3.0}
    assert tracer.coverage(root) == pytest.approx(0.8)
    assert tracer.layer_self_times() == {"trace": 2.0, "a": 5.0, "b": 3.0}
    assert [span["parent"] for span in tracer.export()["spans"]] == [None, 0, 1]


def test_import_attribution_adds_up():
    # -X importtime rows, post-order: (self us, cumulative us, depth, name).
    rows = [
        (100, 100, 0, "site"),
        (30, 30, 3, "re"),
        (50, 80, 2, "repro.sparql.parser"),
        (20, 100, 1, "repro.sparql"),
        (40, 40, 2, "json"),
        (10, 50, 1, "repro.api"),
        (5, 155, 0, "repro.cli"),
    ]
    total, groups = _attribute(rows)
    assert total == pytest.approx(155e-6)
    assert groups == pytest.approx({"sparql": 100e-6, "core": 55e-6})


@pytest.fixture
def tiny_inputs(tmp_path):
    from repro.logs import encode_access_log_line
    from repro.workload import generate_corpus

    corpus = tmp_path / "seed" / "corpus"
    corpus.mkdir(parents=True)
    generated = generate_corpus(scale=2e-6, seed=3, datasets=["BioP13", "SWDF13"])
    for name, queries in generated.items():
        (corpus / f"{name}.log").write_text(
            "".join(encode_access_log_line(query) + "\n" for query in queries)
        )
    return bench_inputs.Inputs(3, tmp_path / "seed")


def test_operation_count_depends_on_seconds_alone():
    assert bench_workloads.operation_count("paper-tables", 20, 11) == 16
    assert bench_workloads.operation_count("paper-tables", 1, 11) == 11
    assert bench_workloads.operation_count("watch-serve", 20, 2) == 2
    assert set(bench_workloads.NOMINAL_OPERATION_S) == set(bench_workloads.WORKLOADS)


def test_wrong_reference_counts_as_failed_operations(tiny_inputs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_workloads, "SETUP_REPEATS", 1)
    reference = tiny_inputs.paper_tables_reference()
    good = bench_workloads.analyze_workload([tiny_inputs], 1, tmp_path, [], [reference])
    assert (good.attempted, good.failed) == (2, 0)
    bad = bench_workloads.analyze_workload([tiny_inputs], 1, tmp_path, [], [reference + "x"])
    assert (bad.attempted, bad.failed) == (2, 1)
    assert bad.failed / bad.attempted > 0


def test_wrong_watch_reference_counts_as_a_failed_check(tiny_inputs, tmp_path):
    initial, batches = bench_inputs.watch_plan(tiny_inputs)
    reference = tiny_inputs.watch_reference()
    good = bench_workloads.Outcome()
    bench_workloads.watch_round(good, tmp_path / "good", initial, batches, reference)
    assert good.failed == 0 and good.attempted > len(batches)
    assert len(good.setup_s) == bench_workloads.SERVE_STARTS
    bad = bench_workloads.Outcome()
    bench_workloads.watch_round(bad, tmp_path / "bad", initial, batches, reference + " ")
    assert bad.failed == 1
    assert bad.notes == ["watch checkpoint study differs from one-shot analysis"]


def test_watch_plan_regrows_the_logs(tiny_inputs):
    initial, batches = bench_inputs.watch_plan(tiny_inputs)
    grown = dict(initial)
    for batch in batches:
        assert 0 < len(batch) <= bench_inputs.ENTRIES_PER_CYCLE
        for name, line in batch:
            grown[name] += line
    assert grown == {path.name: path.read_text() for path in tiny_inputs.files}


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "paper-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
