"""The repository's benchmark: four workloads, end to end and per layer.

Run ``python3 perfbench/run.py --workload <name> --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` explains
the workloads, the metrics and the first baseline.
"""
