"""Per-layer metrics: from ``/v1/metrics`` diffs, client outcomes and spans.

The names are the ``per_layer`` entries of ``BENCHMARK.json``. A traced run
reports all of them on every workload; a layer a workload does not exercise
reads 0 there.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from perfbench import promtext
from perfbench.instrument import LAYERS
from perfbench.stats import percentile
from perfbench.tracing import ROOT_LAYER, join_orphans, layer_breakdown, roots_of

RUNGS = ("e1k", "e4k", "e16k", "hub")
TIERS = ("engine", "memory", "disk", "computed")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = (
    [
        ("client.transport_residual_ms.p50", "ms"),
        ("client.transport_residual_ms.p99", "ms"),
        ("client.retries", "count"),
        ("server.parse_s", "s"),
        ("server.queue_s", "s"),
        ("server.execute_s", "s"),
        ("server.stream_s", "s"),
        ("serve.units", "count"),
        ("serve.dedup_ratio", "ratio"),
        ("serve.engines_built", "count"),
    ]
    + [(f"serve.tier_share.{tier}", "ratio") for tier in TIERS]
    + [
        ("executors.queue_wait_s", "s"),
        ("executors.turnaround_s", "s"),
        ("store.gets", "count"),
        ("store.hit_ratio", "ratio"),
        ("store.puts", "count"),
        ("store.bytes_written", "bytes"),
        ("lsm.get_s", "s"),
        ("lsm.put_s", "s"),
        ("engine.load_s", "s"),
        ("engine.count_s", "s"),
        ("engine.profile_s", "s"),
        ("engine.evolve_s", "s"),
        ("projection.build_s", "s"),
        ("projection.hyperwedges", "count"),
    ]
    + [(f"kernels.exact_s.{rung}", "s") for rung in RUNGS]
    + [
        ("kernels.anchors", "count"),
        ("kernels.instances", "count"),
        ("kernels.wedge_sampling_s", "s"),
        ("kernels.edge_sampling_s", "s"),
        ("kernels.lazy_s", "s"),
        ("randomization.null_model_s", "s"),
        ("randomization.null_graphs", "count"),
        ("delta.apply_s", "s"),
        ("delta.affected_anchors", "count"),
    ]
    + [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    + [
        ("trace.unattributed_share", "ratio"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
    ]
)


def from_service(
    diff: promtext.Samples, outcomes: List[Any], retries: int, bytes_written: int
) -> Dict[str, float]:
    """The client-, server- and store-side layers of one untraced serve phase."""
    residuals = [
        (outcome.latency_s - outcome.server_s) * 1000.0
        for outcome in outcomes
        if outcome.error is None and outcome.server_s is not None
    ]
    requests = promtext.total(diff, "repro_serve_requests_total")
    gets = promtext.by_label(diff, "repro_store_gets_total", "outcome")
    all_gets = sum(gets.values())
    tier_shares = promtext.shares(
        promtext.by_label(diff, "repro_serve_cache_tier_total", "tier"), TIERS
    )
    metrics = {
        "client.transport_residual_ms.p50": percentile(residuals, 50) if residuals else 0.0,
        "client.transport_residual_ms.p99": percentile(residuals, 99) if residuals else 0.0,
        "client.retries": float(retries),
        "serve.units": requests,
        "serve.dedup_ratio": (
            promtext.total(diff, "repro_serve_deduplicated_total") / requests
            if requests
            else 0.0
        ),
        "serve.engines_built": promtext.total(diff, "repro_serve_engines_built_total"),
        "executors.queue_wait_s": promtext.histogram_mean(
            diff, "repro_executor_queue_wait_seconds"
        ),
        "executors.turnaround_s": promtext.histogram_mean(
            diff, "repro_executor_unit_turnaround_seconds"
        ),
        "store.gets": all_gets,
        "store.hit_ratio": (
            (gets.get("memory_hit", 0.0) + gets.get("disk_hit", 0.0)) / all_gets
            if all_gets
            else 0.0
        ),
        "store.puts": promtext.total(diff, "repro_store_puts_total"),
        "store.bytes_written": float(bytes_written),
        "lsm.get_s": promtext.histogram_mean(diff, "repro_lsm_get_seconds"),
        "lsm.put_s": promtext.histogram_mean(diff, "repro_lsm_put_seconds"),
        "delta.affected_anchors": float(
            sum(
                snapshot.get("delta", {}).get("affected_anchors", 0)
                for outcome in outcomes
                if outcome.request.route == "evolve" and outcome.error is None
                for snapshot in outcome.results
            )
        ),
    }
    for stage in ("parse", "queue", "execute", "stream"):
        metrics[f"server.{stage}_s"] = promtext.histogram_mean(
            diff, "repro_server_stage_seconds", stage=stage
        )
    for tier in TIERS:
        metrics[f"serve.tier_share.{tier}"] = tier_shares[tier]
    return metrics


def from_spans(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self-time shares and per-call layer timings of one traced phase.

    ``<layer>.self_share`` and ``trace.unattributed_share`` divide by the
    total duration of the benchmark's root spans (one per request or job).
    Timings named ``*_s`` are seconds per call, except the kernel timings,
    which are seconds per root request or job that ran that kernel.
    """
    join_orphans(spans)
    roots = roots_of(spans)
    breakdown = layer_breakdown(spans)
    wall = breakdown.get("wall", 0.0)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, float] = defaultdict(float)
    # Kernel time per (kernel, root span name) and the roots that ran it:
    # compute-cold's roots are its jobs ("job.exact-e1k", "job.lazy", ...).
    kernel_seconds: Dict[tuple, float] = defaultdict(float)
    kernel_roots: Dict[tuple, set] = defaultdict(set)
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        seconds[name] += duration
        calls[name] += 1
        for key, value in span["attrs"].items():
            attrs[f"{name}.{key}"] += value
        if span["layer"] == "kernels":
            root = roots[span["id"]]
            for key in ((name, root["name"]), (name, None)):
                kernel_seconds[key] += duration
                kernel_roots[key].add(root["id"])

    def per_call(name: str) -> float:
        return seconds[name] / calls[name] if calls[name] else 0.0

    def per_root(name: str, root_name=None) -> float:
        key = (name, root_name)
        return kernel_seconds[key] / len(kernel_roots[key]) if kernel_roots[key] else 0.0

    loads = calls["engine.load"]
    metrics = {
        "engine.load_s": (
            (seconds["engine.load"] + seconds["engine.fingerprint"]) / loads if loads else 0.0
        ),
        "engine.count_s": per_call("engine.count"),
        "engine.profile_s": per_call("engine.profile"),
        "engine.evolve_s": (
            seconds["engine.evolve"]
            / len({roots[s["id"]]["id"] for s in spans if s["name"] == "engine.evolve"})
            if calls["engine.evolve"]
            else 0.0
        ),
        "projection.build_s": per_call("projection.build"),
        "projection.hyperwedges": attrs["projection.build.hyperwedges"],
        "kernels.anchors": attrs["kernels.exact.anchors"],
        "kernels.instances": attrs["kernels.exact.instances"],
        "kernels.wedge_sampling_s": per_root("kernels.wedge_sampling"),
        "kernels.edge_sampling_s": per_root("kernels.edge_sampling"),
        "kernels.lazy_s": per_root("kernels.exact", "job.lazy"),
        "randomization.null_model_s": per_call("randomization.null_model"),
        "randomization.null_graphs": attrs["randomization.null_model.graphs"],
        "delta.apply_s": per_call("delta.apply"),
        "trace.unattributed_share": breakdown.get(ROOT_LAYER, 0.0) / wall if wall else 0.0,
        "trace.spans": float(len(spans)),
    }
    for rung in RUNGS:
        metrics[f"kernels.exact_s.{rung}"] = per_root("kernels.exact", f"job.exact-{rung}")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = breakdown.get(layer, 0.0) / wall if wall else 0.0
    return metrics
