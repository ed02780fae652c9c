"""Seeded, layered benchmark for powerstruct.

Run one workload with

    python3 perfbench/run.py --workload lambda-uv --seed 1 --seconds 25 --trace 0

from the root of a checkout.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a separate traced run.  perfbench/run.py
describes the workloads and the metrics; baseline.json holds the figures of
the commit that introduced the benchmark.
"""
