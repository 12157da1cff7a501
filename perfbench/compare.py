"""Compare two sets of benchmark runs: the parent commit and a change.

Save the stdout of each untraced run (``perfbench/run.py ... --trace 0``)
as one file per run, the parent's runs in one directory and the change's
in another, then::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

One row per workload and end-to-end metric gives both sides' median and
quartiles and one verdict:

``improved``
    the change won at least 9 of 10 pairs (ties count for neither side) and
    its median beats the parent's by more than the parent's interquartile
    range;
``unresolved``
    the two sides' runs did not alternate (see below), or either side's
    spread (IQR / median) is wider than the metric's bound, unless every
    change run beats every parent run;
``no-worse``
    the change's median is within the bound of the parent's;
``worse``
    otherwise.

Runs are paired in the order they started (``started_at`` in each run's
meta line): the i-th parent run with the i-th change run. The sides must
alternate, each pair's two runs starting before either run of the next
pair, so a drift of the machine over time moves both sides alike; a
workload whose runs did not alternate gets no verdict but ``unresolved``.

An ``error_rate`` row per workload compares failed / attempted. Runs whose
machine stamp differs from ``perfbench/baseline.json``'s (CPUs, Python,
NumPy, numba) are flagged and left out: a 1-CPU run is never compared as a
2-CPU result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import BASELINE, stamp_mismatches  # noqa: E402
from perfbench.stats import quartiles, relative_spread  # noqa: E402

IMPROVED_SHARE = 0.9


def read_runs(directory: str) -> List[dict]:
    """Every run file in *directory*: its meta line and final result line."""
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
        meta = next(
            (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("perfbench-meta ")),
            None,
        )
        if meta is None or not lines[-1].startswith("{"):
            print(f"skipping {path}: not a benchmark run", file=sys.stderr)
            continue
        runs.append({"path": path, **meta, "result": json.loads(lines[-1])})
    return runs


def verdict(parent: List[float], change: List[float], pairs, better: str, bound: float) -> str:
    """The comparison rule described in the module docstring; *pairs* is
    ``None`` when the runs did not alternate."""
    if pairs is None:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (c_median - p_median)
    if pairs and wins >= IMPROVED_SHARE * len(pairs) and gain > p_q3 - p_q1:
        return "improved"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(relative_spread(parent), relative_spread(change)) > bound and not every_run_better:
        return "unresolved"
    if -gain <= bound * abs(p_median) or every_run_better:
        return "no-worse"
    return "worse"


def alternating_pairs(parent_runs: List[dict], change_runs: List[dict]) -> Optional[List[tuple]]:
    """``(parent run, change run)`` pairs in start order, or ``None`` unless
    both sides ran equally often and each pair's runs both started before
    either run of the next pair."""
    if len(parent_runs) != len(change_runs):
        return None
    if any("started_at" not in run for run in parent_runs + change_runs):
        return None
    by_start = lambda runs: sorted(runs, key=lambda run: run["started_at"])  # noqa: E731
    pairs = list(zip(by_start(parent_runs), by_start(change_runs)))
    for this, after in zip(pairs, pairs[1:]):
        if max(run["started_at"] for run in this) >= min(run["started_at"] for run in after):
            return None
    return pairs


def _values(pairs: Optional[List[tuple]], metric: str) -> Optional[List[tuple]]:
    if pairs is None:
        return None
    value = lambda run: run["result"]["metrics"][metric]["value"]  # noqa: E731
    return [(value(parent), value(change)) for parent, change in pairs]


def _fmt(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change runs.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    with open(BASELINE, encoding="utf-8") as handle:
        reference = json.load(handle)["stamp"]

    sides = {}
    for side in ("parent", "change"):
        kept = []
        for run in read_runs(getattr(args, side)):
            mismatched = stamp_mismatches(run["stamp"], reference)
            if mismatched:
                print(f"flagged, not compared: {run['path']} (stamp differs on {mismatched})")
            elif run["trace"] == 0:
                kept.append(run)
        sides[side] = kept

    print(f"{'workload':<14} {'metric':<22} {'parent median [Q1, Q3]':<34} "
          f"{'change median [Q1, Q3]':<34} verdict")
    workloads = sorted({run["workload"] for run in sides["parent"] + sides["change"]})
    for workload in workloads:
        parent = [run for run in sides["parent"] if run["workload"] == workload]
        change = [run for run in sides["change"] if run["workload"] == workload]
        if not parent or not change:
            print(f"{workload:<14} (runs on one side only: {len(parent)} parent, {len(change)} change)")
            continue
        pairs = alternating_pairs(parent, change)
        if pairs is None:
            print(f"{workload:<14} (parent and change runs did not alternate: no verdict)")
        for metric in metrics:
            name = metric["name"]
            p_values = [run["result"]["metrics"][name]["value"] for run in parent]
            c_values = [run["result"]["metrics"][name]["value"] for run in change]
            row = verdict(
                p_values,
                c_values,
                _values(pairs, name),
                metric["better"],
                metric["bound"],
            )
            print(f"{workload:<14} {name:<22} {_fmt(p_values):<34} {_fmt(c_values):<34} {row}")
        rates = []
        for runs in (parent, change):
            attempted = sum(run["result"]["attempted"] for run in runs)
            rates.append(sum(run["result"]["failed"] for run in runs) / attempted)
        row = "worse" if rates[1] > rates[0] else "no-worse"
        print(f"{workload:<14} {'error_rate':<22} {rates[0]:<34.6g} {rates[1]:<34.6g} {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
