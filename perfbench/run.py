"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-82 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs an
untraced phase and then a traced one and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every answer passed the correctness gate and the cache guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    """Put the checkout's sources first on the path; fail without them."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def stop_children() -> None:
    """Stop and reap every process the run started, on every path out.

    Shard workers and gate processes are joined by the code that starts
    them; this catches a set-up or phase that raised half-way.  The
    resource tracker and fork server, which spawn-style multiprocessing
    starts on demand, would otherwise outlive the run until they noticed
    its exit; their private ``_stop`` closes their pipe and waits for them.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def result_line(result, trace: bool) -> str:
    from perfbench.workloads import END_TO_END_UNITS, PER_LAYER_UNITS

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": float(result.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def report_lines(name: str, result, trace: bool) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    from perfbench.workloads import END_TO_END_UNITS, LAYER_DETAIL_UNITS, PER_LAYER_UNITS

    s = result.summary
    lines = [
        f"workload {name}: {s['attempted']} attempted, {s['samples']} latency samples, "
        f"error_rate {s['error_rate']:.6f} (failed+rejected+degraded {s['failed']})",
        f"  over the whole phase: throughput {s['throughput_qps_whole']:.6g} 1/s, "
        f"p50 latency {s['latency_p50_ms_whole']:.6g} ms, p99 latency {s['latency_p99_ms_whole']:.6g} ms",
    ]
    if s["enroll_s"] is not None:
        lines.append(f"  enroll_s {s['enroll_s']:.6f} s (median of the phase's enrollments)")
    units = {**PER_LAYER_UNITS, **LAYER_DETAIL_UNITS} if trace else END_TO_END_UNITS
    for metric, unit in units.items():
        value = result.metrics.get(metric)
        shown = "idle" if value is None else f"{float(value):.6g} {unit}"
        lines.append(f"  {metric} {shown}")
    lines.extend(f"  PROBLEM {problem}" for problem in result.problems)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    finally:
        stop_children()
    for line in report_lines(args.workload, result, bool(args.trace)):
        print(line)
    print(result_line(result, bool(args.trace)), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
