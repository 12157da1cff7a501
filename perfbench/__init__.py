"""The repository benchmark: workloads, tracing and comparison tools.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout; ``python3 perfbench/compare.py``
compares two sets of saved runs. See ``BENCHMARK.json`` for the workloads
and metrics, and ``perfbench/baseline.json`` for the environment stamp the
bounds were set on, the layer-to-metric prediction map and baseline facts.
"""
