"""Seeded end-to-end benchmark of the recognition serving path.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/NOTES.md`` describes
the workloads, the metrics and the first per-layer breakdown.
"""
