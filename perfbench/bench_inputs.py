"""Per-seed inputs and reference outputs, made once and kept on disk.

A seed's corpus comes from ``repro.workload.generate_corpus`` at
:data:`SCALE` and is written as one access-log file per dataset, the
layout ``repro corpus`` writes.  Reference outputs are computed
in-process from those files, outside every timed region, and cached
next to them, so a seed pays for them once per checkout.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space of the benchmark inside the checkout (git-ignored).
DATA = ROOT / ".perfbench"

#: Corpus scale: about 3,600 entries over 13 datasets, ~31% unique.
SCALE = 2e-5

#: Corpora per run seed.  Timings differ from corpus to corpus (one
#: corpus in ten takes a third longer), so a run spreads its operations
#: over several corpora and one outlying corpus moves its median less.
CORPORA_PER_SEED = 3

#: Entries appended to the watched logs per ``watch`` cycle.
ENTRIES_PER_CYCLE = 24

#: Share of each log present before the first watch cycle: the cycles
#: then run against a warehouse holding most of the corpus.
INITIAL_SHARE = 2 / 3

#: Metrics the watch-serve workload runs: Tables 1-6 (streaks included,
#: so ``/streaks``, ``/tables/6`` and ``/search`` have data to serve).
WATCH_METRICS = ("shallow", "paths", "operators", "fragments", "structure", "streaks")


def ensure_newline(text: str) -> str:
    """*text* with exactly the trailing newline the CLI and service add."""
    return text if text.endswith("\n") else text + "\n"


@dataclass
class Inputs:
    """One seed's input files and cached reference outputs."""

    seed: int
    directory: Path

    @property
    def files(self) -> List[Path]:
        """The dataset log files, in the order every workload passes them."""
        return sorted((self.directory / "corpus").glob("*.log"))

    def entries(self) -> Dict[str, List[str]]:
        """Dataset name -> raw query texts, read back through ``repro.logs``."""
        from repro.logs import dataset_name, read_entries

        return {dataset_name(path): read_entries(path) for path in self.files}

    def _cached(self, name: str, compute) -> str:
        path = self.directory / name
        if not path.exists():
            _atomic_write(path, compute())
        return path.read_text(encoding="utf-8")

    def paper_tables_reference(self) -> str:
        """``render_report`` of an in-process ``study_corpus`` run."""
        return self._cached("ref-paper-tables.txt", self._paper_tables)

    def streaks_reference(self) -> str:
        """The serial (``workers=1``) streaks report."""
        return self._cached("ref-streaks.txt", self._streaks)

    def watch_reference(self) -> str:
        """Snapshot JSON of a one-shot analysis of the fully grown logs."""
        return self._cached("ref-watch-study.json", self._watch)

    def properties(self) -> Dict[str, float]:
        """Input properties the layers depend on (Total, Valid, Unique...)."""
        self.paper_tables_reference()
        return json.loads((self.directory / "properties.json").read_text())

    def _paper_tables(self) -> str:
        from repro.analysis.study import study_corpus
        from repro.logs import ParseCache, process_entries
        from repro.reporting import render_report

        cache = ParseCache()
        logs = {
            name: process_entries(texts, cache=cache).to_query_log(name)
            for name, texts in self.entries().items()
        }
        total = sum(log.total for log in logs.values())
        unique = sum(log.unique for log in logs.values())
        properties = {
            "total": total,
            "valid": sum(log.valid for log in logs.values()),
            "unique": unique,
            "unique_share": unique / total,
            "bytes": sum(path.stat().st_size for path in self.files),
            "entries_per_cycle": ENTRIES_PER_CYCLE,
        }
        _atomic_write(self.directory / "properties.json", json.dumps(properties) + "\n")
        return ensure_newline(render_report(study_corpus(logs)))

    def _streaks(self) -> str:
        from repro.api import analyze

        return ensure_newline(analyze(*self.files, metrics=("streaks",), workers=1).render())

    def _watch(self) -> str:
        from repro.analysis.snapshot import study_to_dict
        from repro.api import analyze_corpora

        study = analyze_corpora(self.entries(), metrics=WATCH_METRICS).study
        return json.dumps(study_to_dict(study))


def _atomic_write(path: Path, text: str) -> None:
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    temporary.write_text(text, encoding="utf-8")
    os.replace(temporary, path)


def corpora(seed: int) -> List[Inputs]:
    """The corpora of run seed *seed*: corpus seeds ``10 * seed + k``."""
    return [prepare(10 * seed + k) for k in range(CORPORA_PER_SEED)]


def prepare(seed: int) -> Inputs:
    """The corpus of corpus seed *seed*, generated and written on first use."""
    from repro.logs import encode_access_log_line
    from repro.workload import generate_corpus

    directory = DATA / f"seed-{seed}"
    if not (directory / "corpus").is_dir():
        staging = DATA / f"seed-{seed}.{os.getpid()}.tmp"
        shutil.rmtree(staging, ignore_errors=True)
        (staging / "corpus").mkdir(parents=True)
        for name, queries in generate_corpus(scale=SCALE, seed=seed).items():
            lines = "".join(encode_access_log_line(query) + "\n" for query in queries)
            (staging / "corpus" / f"{name.replace('/', '_')}.log").write_text(lines)
        try:
            os.replace(staging, directory)
        except OSError:  # another run of the same seed got there first
            shutil.rmtree(staging, ignore_errors=True)
    return Inputs(seed, directory)


def watch_plan(inputs: Inputs) -> Tuple[Dict[str, str], List[List[Tuple[str, str]]]]:
    """How the watched logs grow: each file's initial content, then
    batches of :data:`ENTRIES_PER_CYCLE` lines taken round-robin over
    the files, each line in its file's order.  Appending every batch
    reproduces the corpus files byte for byte."""
    initial: Dict[str, str] = {}
    queues: Dict[str, List[str]] = {}
    for path in inputs.files:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cut = int(len(lines) * INITIAL_SHARE)
        initial[path.name] = "".join(lines[:cut])
        queues[path.name] = lines[cut:][::-1]
    order: List[Tuple[str, str]] = []
    while any(queues.values()):
        for name, queue in queues.items():
            if queue:
                order.append((name, queue.pop()))
    batches = [
        order[start:start + ENTRIES_PER_CYCLE]
        for start in range(0, len(order), ENTRIES_PER_CYCLE)
    ]
    return initial, batches
