"""Self-tests of the benchmark harness (no timed runs).

Run with ``python3 -m pytest perfbench/tests`` from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import inputs, promtext  # noqa: E402
from perfbench.checks import count_wrong  # noqa: E402
from perfbench.compare import alternating_pairs, verdict  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.run import END_TO_END, _children  # noqa: E402
from perfbench.service import ServerProcess  # noqa: E402
from perfbench.stats import percentile, quartiles, samples_beyond, tail_percentile  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Tracer,
    join_orphans,
    layer_breakdown,
    self_times,
)
from perfbench.workloads import RUNNERS, TAIL_PERCENTILE  # noqa: E402


# ------------------------------------------------------------ percentiles
def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 25) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert quartiles(values) == (2.0, 3.0, 4.0)


@pytest.mark.parametrize("n, q", [(24, 55), (140, 90), (800, 98), (101, 90)])
def test_samples_beyond_counts_samples_above_the_percentile(n, q):
    values = [float(v) for v in range(n)]
    assert sum(v > percentile(values, q) for v in values) == samples_beyond(n, q)


@pytest.mark.parametrize(
    "n, expected", [(9, 0), (11, 9), (24, 60), (100, 90), (900, 98), (1000, 99)]
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    q = tail_percentile(n)
    assert q == expected
    if q:
        assert samples_beyond(n, q) >= 10
        assert q == 99 or samples_beyond(n, q + 1) < 10


@pytest.mark.parametrize(
    "workload, samples", [("compute-cold", 24), ("serve-warm", 520), ("serve-cold", 105)]
)
def test_fixed_tail_percentiles_hold_at_expected_sample_counts(workload, samples):
    assert samples_beyond(samples, TAIL_PERCENTILE[workload]) >= 10


# --------------------------------------------------------------- spans
def _span(id_, layer, start, end, parent=None, request_id=None, thread=1, process="p"):
    return {
        "id": id_,
        "name": f"{layer}.op",
        "layer": layer,
        "start": start,
        "end": end,
        "parent": parent,
        "request_id": request_id,
        "thread": thread,
        "process": process,
        "attrs": {},
    }


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        _span("r", "bench", 0.0, 10.0),
        _span("a", "engine", 1.0, 5.0, parent="r"),
        _span("b", "kernels", 2.0, 3.0, parent="a"),
        _span("c", "kernels", 2.5, 4.0, parent="a"),  # overlaps b
        _span("d", "store", 9.0, 12.0, parent="r"),  # runs past its parent
    ]
    own = self_times(spans)
    assert own["r"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["a"] == pytest.approx(4.0 - 2.0)
    assert own["b"] == pytest.approx(1.0)
    breakdown = layer_breakdown(spans)
    assert breakdown["wall"] == pytest.approx(10.0)
    assert breakdown["kernels"] == pytest.approx(2.5)


def test_cross_thread_and_cross_process_orphans_join_by_request_id():
    spans = [
        _span("bench", "bench", 0.0, 10.0, request_id="q", process="client"),
        _span("client", "client", 0.5, 9.5, "bench", "q", process="client"),
        _span("handler", "server", 1.0, 9.0, request_id="q", thread=7, process="server"),
        _span("dispatch", "executors", 2.0, 4.0, "handler", "q", thread=7, process="server"),
        _span("dispatch2", "executors", 5.0, 8.0, "handler", "q", thread=7, process="server"),
        # Worker threads: one inside the second dispatch span, one that
        # started while the dispatcher was between items.
        _span("w1", "engine", 5.5, 7.5, request_id="q", thread=8, process="server"),
        _span("w2", "engine", 4.2, 4.8, request_id="q", thread=9, process="server"),
        _span("other", "engine", 5.0, 6.0, request_id="z", thread=8, process="server"),
    ]
    assert join_orphans(spans) == 3
    parents = {span["id"]: span["parent"] for span in spans}
    assert parents["handler"] == "client"
    assert parents["w1"] == "dispatch2"
    assert parents["w2"] == "dispatch"
    assert parents["other"] is None
    own = self_times(spans)
    assert own["client"] == pytest.approx(9.0 - 8.0)
    assert own["dispatch2"] == pytest.approx(3.0 - 2.0)


class _Base:
    def items(self, count):
        for index in range(count):
            yield index

    def value(self):
        return 42


class _Child(_Base):
    pass


def test_tracer_patches_inherited_methods_and_spans_each_generator_step():
    tracer = Tracer("t", request_id=lambda: "rid")
    tracer.patch(_Child, "items", "serve.items", generator=True)
    tracer.patch(_Child, "value", "engine.value")
    child = _Child()
    with tracer.span("root", "bench"):
        assert list(child.items(3)) == [0, 1, 2]
        assert child.value() == 42
    tracer.unpatch()
    assert "items" not in vars(_Child) and "value" not in vars(_Child)
    names = [span["name"] for span in tracer.spans]
    # One span for the call, one per item, one for the exhausting next().
    assert names.count("serve.items") == 5
    assert names.count("engine.value") == 1
    root = next(span for span in tracer.spans if span["name"] == "root")
    assert all(span["parent"] == root["id"] for span in tracer.spans if span is not root)
    assert {span["request_id"] for span in tracer.spans} == {"rid"}


def test_tracer_keeps_threads_apart():
    tracer = Tracer("t")
    tracer.patch(_Child, "value", "engine.value")
    try:
        with tracer.span("root", "bench"):
            worker = threading.Thread(target=_Child().value)
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.unpatch()
    value = next(span for span in tracer.spans if span["name"] == "engine.value")
    assert value["parent"] is None


# ------------------------------------------------------ prometheus text
SCRAPE = """\
# HELP repro_serve_requests_total Request slots.
# TYPE repro_serve_requests_total counter
repro_serve_requests_total 4
repro_store_gets_total{outcome="memory_hit"} 3
repro_store_gets_total{outcome="miss"} 2
repro_lsm_get_seconds_bucket{shard="0a",le="0.001"} 1
repro_lsm_get_seconds_sum{shard="0a"} 0.5
repro_lsm_get_seconds_count{shard="0a"} 2
repro_lsm_get_seconds_sum{shard="1b"} 1.5
repro_lsm_get_seconds_count{shard="1b"} 2
weird_label_total{path="a \\"quoted\\" \\\\ path",route="/v1/batch"} 1e3
"""


def test_prometheus_text_parses_labels_escapes_and_histograms():
    samples = promtext.parse(SCRAPE)
    assert promtext.total(samples, "repro_serve_requests_total") == 4
    assert promtext.by_label(samples, "repro_store_gets_total", "outcome") == {
        "memory_hit": 3.0,
        "miss": 2.0,
    }
    assert promtext.histogram_mean(samples, "repro_lsm_get_seconds") == pytest.approx(0.5)
    assert promtext.histogram_mean(samples, "repro_lsm_get_seconds", shard="1b") == 0.75
    assert promtext.total(samples, "weird_label_total", path='a "quoted" \\ path') == 1000.0


def test_prometheus_diff_counts_new_samples_from_zero():
    before = promtext.parse("a_total 1\nb_total{x=\"1\"} 2\n")
    after = promtext.parse("a_total 4\nb_total{x=\"1\"} 2\nc_total 5\n")
    diff = promtext.diff(before, after)
    assert promtext.total(diff, "a_total") == 3
    assert promtext.total(diff, "b_total") == 0
    assert promtext.total(diff, "c_total") == 5
    assert promtext.shares({"x": 1.0, "y": 3.0}) == {"x": 0.25, "y": 0.75}


@pytest.mark.parametrize("line", ["no_value", 'm{x="1" 2', 'm{x=1} 2', 'm{x="1",junk} 2'])
def test_prometheus_rejects_malformed_lines(line):
    with pytest.raises(ValueError):
        promtext.parse(line + "\n")


# ------------------------------------------------------ seed determinism
def _fingerprints(seed, directory):
    from repro.api.registry import DEFAULT_REGISTRY

    cold = inputs.ColdInputs(seed, directory)
    paths = [cold.dataset(str(index), index) for index in range(3)] + [cold.chain("0", 0)]
    prints = [DEFAULT_REGISTRY.load(path).fingerprint() for path in paths]
    prints.append(inputs.reference_graph(seed).fingerprint())
    prints.append(inputs.corpus_like("email-enron-like", 0.5, inputs.sub_seed(seed, "t"), "t").fingerprint())
    return prints


def test_same_seed_same_datasets_other_seed_other_datasets(tmp_path):
    first = _fingerprints(3, tmp_path / "a")
    again = _fingerprints(3, tmp_path / "b")
    other = _fingerprints(4, tmp_path / "c")
    assert first == again
    assert all(x != y for x, y in zip(first, other))
    assert len(set(first)) == len(first)


@pytest.fixture(autouse=True)
def _dirs(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()


# ----------------------------------------------------------- compare
def _run(started_at, value):
    return {"started_at": started_at, "result": {"metrics": {"m": {"value": value}}}}


def test_compare_pairs_runs_in_start_order_only_when_the_sides_alternate():
    parent = [_run(0.0, 1.0), _run(3.0, 1.0)]
    change = [_run(2.0, 0.5), _run(1.0, 0.6)]
    pairs = alternating_pairs(parent, change)
    assert [(p["started_at"], c["started_at"]) for p, c in pairs] == [(0.0, 1.0), (3.0, 2.0)]
    assert alternating_pairs([_run(0.0, 1.0), _run(1.0, 1.0)], [_run(2.0, 1.0), _run(3.0, 1.0)]) is None
    assert alternating_pairs(parent, change[:1]) is None
    assert alternating_pairs([{"result": {}}], [_run(1.0, 1.0)]) is None


def test_compare_verdicts():
    parent = [1.0 + 0.01 * i for i in range(10)]
    faster = [0.5 + 0.01 * i for i in range(10)]
    pairs = list(zip(parent, faster))
    assert verdict(parent, faster, pairs, "lower", 0.25) == "improved"
    assert verdict(parent, faster, None, "lower", 0.25) == "unresolved"
    assert verdict(parent, parent, list(zip(parent, parent)), "lower", 0.25) == "no-worse"
    slower = [2.0 + 0.01 * i for i in range(10)]
    assert verdict(parent, slower, list(zip(parent, slower)), "lower", 0.25) == "worse"
    noisy = [1.0, 3.0] * 5
    assert verdict(parent, noisy, list(zip(parent, noisy)), "lower", 0.25) == "unresolved"


# -------------------------------------------------- BENCHMARK.json sync
def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(RUNNERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_baseline_predictions_name_every_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "baseline.json"), encoding="utf-8") as handle:
        baseline = json.load(handle)
    predicted = {name for entry in baseline["predictions"] for name in entry["metrics"]}
    measured = {
        name
        for name, _ in PER_LAYER
        if not name.endswith(".self_share") and not name.startswith("trace.")
    }
    assert predicted == measured
    workloads = set(RUNNERS)
    for entry in baseline["predictions"]:
        assert set(entry["moves"]) <= workloads and set(entry["flat"]) <= workloads


# ---------------------------------------------------- process hygiene
def test_answer_checks_leave_no_process_behind():
    before = set(_children())
    assert count_wrong([]) == (0, [])
    assert set(_children()) <= before


def test_server_exits_when_the_benchmark_dies(tmp_path):
    server = ServerProcess(str(tmp_path / "store"), str(tmp_path / "server.log"))
    try:
        # The kernel closes the benchmark's end of the pipe when it dies.
        server.proc.stdin.close()
        assert server.proc.wait(timeout=30) != 0
    finally:
        server.stop()
