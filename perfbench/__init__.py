"""Benchmark of the levybridge library: workloads, tracer and entry point.

Run one workload from the repository root with

    python3 perfbench/run.py --workload quote --seed 1 --seconds 25 --trace 0

``BENCHMARK.json`` at the repository root names the workloads and metrics.
"""
