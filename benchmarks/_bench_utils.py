"""Shared constants and helpers for the benchmark harness."""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Scale factor applied to Table 1's per-dataset counts.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "2e-5"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


def banner(title: str) -> None:
    print()
    print("#" * 72)
    print(f"# {title}")
    print("#" * 72)


def record_ablation(row: dict) -> None:
    """Add *row* to the ablation table ``BENCH_ablation.json``, keyed by
    its ``name`` (``REPRO_BENCH_ABLATION_JSON`` overrides the path)."""
    out_path = Path(os.environ.get("REPRO_BENCH_ABLATION_JSON", "BENCH_ablation.json"))
    payload = {}
    if out_path.exists():
        payload = json.loads(out_path.read_text(encoding="utf-8"))
    payload[row["name"]] = row
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
