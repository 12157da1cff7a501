"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload compute-cold --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run reports the
per-layer metrics (self time per layer, unattributed remainder, tracing
overhead and the layer counters). The last stdout line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The line before it, ``perfbench-meta {...}``, records the workload, seed,
trace flag, start time and the machine stamp the compare command pairs,
groups and flags runs by. Exits 1 when any output is wrong and 2 when the directory is not a
checkout of the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")

#: A run that has not finished by then is abandoned, leaving time to stop
#: its servers (runs must end within 180 s).
WATCHDOG_S = 140

#: The end-to-end metrics, with their units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("exact_anchors_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: Stamp fields that must match the baseline's for runs to be compared.
COMPARED_STAMP_KEYS = ("cpus", "python", "numpy", "numba")


def _src_digest() -> str:
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for directory, dirs, names in sorted(os.walk(source)):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit():
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def machine_stamp() -> dict:
    """The machine and environment a result was measured on."""
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def stamp_mismatches(stamp: dict, reference: dict) -> list:
    """The compared stamp fields on which *stamp* differs from *reference*."""
    return [key for key in COMPARED_STAMP_KEYS if stamp.get(key) != reference.get(key)]


def _on_watchdog(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def _on_sigterm(signum, frame):
    raise SystemExit(f"terminated by signal {signum}")


def _children() -> list:
    """Pids of this process's children, from the parent field of ``/proc/*/stat``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process has ended
        if int(fields[1]) == os.getpid():
            pids.append(int(entry))
    return pids


def stop_children() -> list:
    """Kill and reap any child process still running; return their pids.

    Every process the workloads start is stopped where it is started; this
    is the last line of defence, so that no process outlives a run.
    """
    left = _children()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return left


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started_at = time.time()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: {ROOT} is not a checkout of the repository (no src/repro)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import RUNNERS, TAIL_PERCENTILE

    if args.workload not in RUNNERS:
        parser.error(f"--workload must be one of {sorted(RUNNERS)}")

    signal.signal(signal.SIGALRM, _on_watchdog)
    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.alarm(WATCHDOG_S)
    scratch = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        result = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), Path(work))
    finally:
        signal.alarm(0)
        left = stop_children()
        if left:
            print(f"warning: killed child processes left running: {left}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it

    stamp = machine_stamp()
    with open(BASELINE, encoding="utf-8") as handle:
        mismatched = stamp_mismatches(stamp, json.load(handle)["stamp"])
    if mismatched:
        print(
            f"warning: stamp differs from the baseline's on {mismatched}; "
            "compare will flag this run instead of comparing it",
            file=sys.stderr,
        )
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "started_at": started_at,
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "stamp": stamp,
    }
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name], "unit": unit} for name, unit in names
                },
            }
        ),
        flush=True,
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
