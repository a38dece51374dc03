"""Turning samples into named metrics, human lines and the result line."""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from bench_inputs import Inputs
from bench_stats import END_TO_END, PER_LAYER, Tail, balanced_median, median, tail
from bench_workloads import Outcome


def say(name: str, value: float, unit: str, note: str = "") -> None:
    """One human-readable metric line."""
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())


def tail_note(found: Optional[Tail]) -> str:
    """How a tail value was taken: percentile label and sample count."""
    return f"({found.label} of {found.samples} samples)" if found else ""


def cpu_note(samples, scale: float = 1.0) -> str:
    """Each placement's median and sample count, e.g. ``cpu0 612 (14), cpu1 1190 (14)``."""
    by_cpu: Dict[object, List[float]] = {}
    for cpu, value in samples:
        by_cpu.setdefault(cpu, []).append(value)
    return ", ".join(
        f"{'unpinned' if cpu is None else f'cpu{cpu}'} {median(values) * scale:.4g} ({len(values)})"
        for cpu, values in sorted(by_cpu.items(), key=lambda item: str(item[0]))
    )


def metric(name: str, value: float) -> Dict[str, object]:
    """A metric entry of the result line, with its declared unit."""
    unit = (END_TO_END[name] if name in END_TO_END else PER_LAYER[name])[0]
    return {"value": value, "unit": unit}


def print_inputs(inputs: Inputs) -> None:
    """The input properties the layers depend on, for one corpus."""
    props = inputs.properties()
    print(f"corpus seed {inputs.seed}: total {props['total']}, valid {props['valid']}, "
          f"unique {props['unique']} ({props['unique_share']:.1%}), {props['bytes']} bytes, "
          f"{props['entries_per_cycle']} entries per watch cycle")


def normalized(samples) -> List[tuple]:
    """``(cpu, normalized seconds)`` of timing samples."""
    return [(cpu, value) for cpu, _, value in samples]


def measured(samples) -> List[tuple]:
    """``(cpu, seconds as measured)`` of timing samples."""
    return [(cpu, value) for cpu, value, _ in samples]


def end_to_end(workload: str, seed: int, corpora: List[Inputs],
               outcome: Outcome) -> Dict[str, Dict[str, object]]:
    """Summarize a timed run: print every metric, return the declared ones.

    Reported timings are normalized (see ``bench_gauge``): medians per
    operation, each by its paired gauge; tails as measured, scaled by the
    run's median gauge, since the extreme of per-operation ratios would
    pick out the gauge's own noise.  The lines also give timings as
    measured, with each CPU's median, and the gauge's median."""
    for inputs in corpora:
        print_inputs(inputs)
    watch = workload == "watch-serve"
    scale = outcome.gauge_nominal_s / balanced_median(outcome.gauge_s)
    latencies = [value for _, value in measured(outcome.latency_s)]
    latency = tail(latencies)
    if latency is None:
        raise RuntimeError(f"{len(latencies)} latency samples: too few for a tail")
    latency_scale = 1.0 if watch else scale  # GET latency is not normalized
    operations = outcome.cycle_s if watch else outcome.latency_s
    rates = [(cpu, entries / seconds)
             for (cpu, _, seconds), entries in zip(operations, outcome.entries)]
    values = {
        "setup_s": balanced_median(normalized(outcome.setup_s)),
        "latency_p50_ms": balanced_median(normalized(outcome.latency_s)) * 1e3,
        "latency_tail_ms": latency.value * latency_scale * 1e3,
        "entries_per_s": balanced_median(rates),
        "peak_rss_mb": median(outcome.peak_rss_mb),
    }
    print(f"{workload} (seed {seed}):")
    say("setup_s", values["setup_s"], "s",
        f"(measured: {cpu_note(measured(outcome.setup_s))})")
    if watch:
        cycle = tail([value for _, value in measured(outcome.cycle_s)])
        say("cycle_p50_ms", balanced_median(normalized(outcome.cycle_s)) * 1e3, "ms",
            f"(measured: {cpu_note(measured(outcome.cycle_s), 1e3)})")
        say("cycle_tail_ms", cycle.value * scale * 1e3, "ms",
            f"{tail_note(cycle)}, measured {cycle.value * 1e3:.4g}")
        say("request_p50_ms", values["latency_p50_ms"], "ms", "= latency_p50_ms (as measured)")
        say("request_tail_ms", values["latency_tail_ms"], "ms",
            f"= latency_tail_ms {tail_note(latency)}")
        say("requests_per_s", len(latencies) / sum(latencies), "1/s",
            "(one closed-loop client)")
        say("entries_per_s", values["entries_per_s"], "1/s",
            "(median over cycles of appended entries / cycle time)")
        say("peak_rss_mb", values["peak_rss_mb"], "MB", "(repro serve)")
    else:
        say("wall_s", values["latency_p50_ms"] / 1e3, "s",
            f"= latency_p50_ms / 1000 (measured: {cpu_note(measured(outcome.latency_s))})")
        say("latency_tail_ms", values["latency_tail_ms"], "ms",
            f"{tail_note(latency)}, measured {latency.value * 1e3:.4g}")
        say("entries_per_s", values["entries_per_s"], "1/s",
            "(median over runs of Table 1 Total / wall)")
        say("peak_rss_mb", values["peak_rss_mb"], "MB", "(repro analyze)")
    say("gauge_s", balanced_median(outcome.gauge_s), "s",
        f"(paired gauge task: {cpu_note(outcome.gauge_s)})")
    say("error_rate", outcome.failed / outcome.attempted, "ratio",
        f"({outcome.failed} of {outcome.attempted} operations)")
    for note in outcome.notes:
        print(f"  failure: {note}")
    for finding in sorted(set(outcome.findings)):
        print(f"  finding: {finding}: {outcome.findings.count(finding)} time(s)")
    return {name: metric(name, value) for name, value in values.items()}


def print_result(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, Dict[str, object]]) -> None:
    """The result line: the last line of standard output."""
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def layer_lines(values: Dict[str, float], layer_self: Dict[str, float], wall: float,
                extra: List[str]) -> None:
    """Print every per-layer metric, then each layer's self time."""
    for name, value in values.items():
        say(name, value, PER_LAYER[name][0])
    print("  self time by layer (share of traced wall):")
    for layer, seconds in sorted(layer_self.items(), key=lambda item: -item[1]):
        print(f"    {layer:<14} {seconds:10.4f} s  {seconds / wall:6.1%}")
    for line in extra:
        print(f"  {line}")
