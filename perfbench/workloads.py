"""The benchmark's three workloads.

``compute-cold``
    Library callers: one in-process caller runs a fixed pass of MoCHy jobs,
    each on a fresh ``MotifEngine(store=None)``, for whole passes until the
    run time is used. Projection, kernels and randomization do the work.
``serve-warm``
    Two keep-alive HTTP clients ask questions a warmed store already
    answered, Zipf-distributed over a working set larger than the engine
    pool (8) and the memory tier (128 items). Transport, server, serve and
    store do the work; the kernels do none.
``serve-cold``
    The same server and clients, but every request names a dataset never
    seen before, so the store takes writes and the kernels and the delta
    engine do the work. Some batches hold several units, one a duplicate.

Each workload is a closed loop. Set-up runs several times and
reports the median; outputs are checked after the timed window.
"""

from __future__ import annotations

import gc
import itertools
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List

import numpy as np

from repro.api import MotifEngine
from repro.api.config import CountSpec, ProfileSpec

from perfbench import checks, inputs, layers, promtext
from perfbench.inputs import sub_seed
from perfbench.instrument import install
from perfbench.service import CLIENTS, Request, RssSampler, ServerProcess, closed_loop
from perfbench.stats import percentile, samples_beyond, TAIL_MIN_BEYOND
from perfbench.tracing import ROOT_LAYER, Tracer

#: Set-ups per run; setup_s is their median. A serve set-up starts a
#: server (serve-warm's also warms a store through one first, several
#: seconds), so those run fewer, to keep a run well inside its time limit.
SETUP_REPEATS = 7
COLD_SETUP_REPEATS = 5
WARM_SETUP_REPEATS = 3

#: The tail percentile reported as ``latency_tail_ms``, fixed per workload:
#: the highest percentile that leaves at least ten samples beyond it at the
#: sample counts these workloads produce in a 15-second run on the
#: reference machine (24 jobs, about 680 and 140 requests), lowered a few
#: points so a run about 25% slower still leaves ten.
TAIL_PERCENTILE = {"compute-cold": 55, "serve-warm": 98, "serve-cold": 90}

#: compute-cold runs at least this many passes, so integer-seeded sampled
#: counts can be checked to repeat exactly and the tail percentile has ten
#: samples beyond it however slow the machine.
MIN_PASSES = 3

#: serve-warm's traffic. No trace of this service's traffic exists to fit
#: a mix to, so these are stated assumptions:
#:
#: - every static dataset is asked both questions the workload names, a
#:   count and a profile, so the two are equally many keys;
#: - key popularity follows Zipf's law in its plain form, exponent 1;
#: - one request in ten is a warm evolve chain, the third request kind,
#:   named as an addition to the count and profile traffic.
#:
#: 140 datasets give 280 keys, more than the memory tier's 128 items.
WARM_DATASETS = 140
WARM_CHAINS = 4
WARM_EVOLVE_SHARE = 0.1
ZIPF_EXPONENT = 1.0

#: serve-cold's request mix, cycled by each client (the second client half
#: a cycle ahead). The workload names three kinds of question about a new
#: dataset, exact counts, seeded profiles and evolve chains, with no
#: weights, so each kind takes an equal third; half the count requests are
#: the multi-unit batches the workload asks for (three units over two
#: datasets, one unit a duplicate). A fixed cycle rather than random draws
#: keeps the work per run the same from run to run.
COLD_CYCLE = ("count", "profile", "evolve", "multi", "profile", "evolve")

#: A serve workload's timed window is cut into this many equal slices;
#: throughput, the median latency and the peak RSS are medians of their
#: per-slice values (compute-cold uses its passes as the slices), so a
#: short disturbance of the machine moves one slice, not the result.
SLICES = 4

COUNT_SPEC = {"type": "count"}
PROFILE_SPEC = {"type": "profile", "num_random": 2, "seed": 7}
EVOLVE_SPEC = {"type": "evolve"}


@dataclass
class RunResult:
    """What one run reports: metric values by name and the outcome tallies."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    notes: List[str] = field(default_factory=list)


def _median_setup(
    setup: Callable[[int], Any],
    release: Callable[[Any], None],
    repeats: int = SETUP_REPEATS,
) -> tuple:
    """Run *setup* *repeats* times; keep the last result.

    Each earlier result is passed to *release* and dropped, and garbage is
    collected, before the next set-up starts, so every repeat starts from
    the same state. Returns the last result and the median set-up time.
    """
    times = []
    result = None
    for index in range(repeats):
        if result is not None:
            release(result)
            result = None
        gc.collect()
        started = time.perf_counter()
        result = setup(index)
        times.append(time.perf_counter() - started)
    return result, statistics.median(times)


def _tail_ms(workload: str, latencies: List[float], notes: List[str]) -> float:
    """The workload's fixed tail percentile of *latencies*, in ms."""
    q = TAIL_PERCENTILE[workload]
    if samples_beyond(len(latencies), q) < TAIL_MIN_BEYOND:
        notes.append(
            f"only {len(latencies)} latency samples: p{q} has fewer than "
            f"{TAIL_MIN_BEYOND} beyond it"
        )
    return percentile(latencies, q) * 1000.0


def _reference_ok(seed: int, notes: List[str]) -> bool:
    if checks.reference_matches(seed):
        return True
    notes.append("exact counts differ from fastcore.reference on the reference graph")
    return False


# --------------------------------------------------------------- compute-cold
def _compute_jobs(seed: int) -> List[tuple]:
    """``(job name, input graph, spec)`` for one compute-cold pass."""
    return [
        ("exact-e1k", "e1k", CountSpec()),
        ("exact-e4k", "e4k", CountSpec()),
        ("exact-e16k", "e16k", CountSpec()),
        ("exact-hub", "hub", CountSpec()),
        (
            "wedge-sampling",
            "e16k",
            CountSpec(algorithm="mochy-a+", sampling_ratio=0.1, seed=sub_seed(seed, "wedge")),
        ),
        (
            "edge-sampling",
            "e16k",
            CountSpec(algorithm="mochy-a", sampling_ratio=0.1, seed=sub_seed(seed, "edge")),
        ),
        ("lazy", "e1k", CountSpec(projection="lazy", budget=100)),
        ("profile", "coauth", ProfileSpec(num_random=3, seed=sub_seed(seed, "profile"))),
    ]


def _run_job(graph, spec) -> list:
    engine = MotifEngine(graph, store=None)
    if isinstance(spec, ProfileSpec):
        return engine.profile(spec).to_dict()["values"]
    return engine.count(spec).counts.to_array().tolist()


def _compute_phase(graphs, jobs, seconds: float, tracer=None) -> List[Dict]:
    """Whole passes over *jobs* until *seconds* have passed: per-pass records.

    With a *tracer*, every second pass is traced, so the traced and the
    untraced passes run on the machine in the same state.
    """
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            install(tracer)
        pass_started = time.perf_counter()
        records = []
        try:
            for name, key, spec in jobs:
                job_started = time.perf_counter()
                if traced:
                    with tracer.span(f"job.{name}", ROOT_LAYER):
                        answer = _run_job(graphs[key], spec)
                else:
                    answer = _run_job(graphs[key], spec)
                records.append((name, key, time.perf_counter() - job_started, answer))
        finally:
            if traced:
                tracer.unpatch()
        passes.append(
            {"records": records, "window": (pass_started, time.perf_counter()), "traced": traced}
        )
    return passes


def _seconds(done: Dict) -> float:
    start, end = done["window"]
    return end - start


def _compute_wrong(records) -> int:
    """Answers that differ from the first pass's, plus lazy != full exact."""
    first: Dict[str, list] = {}
    wrong = 0
    for name, _, _, answer in records:
        first.setdefault(name, answer)
        wrong += answer != first[name]
    wrong += first["lazy"] != first["exact-e1k"]
    return wrong


def compute_cold(seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    graphs, setup_s = _median_setup(lambda _: inputs.compute_inputs(seed), lambda _: None)
    notes: List[str] = []
    reference_ok = _reference_ok(seed, notes)
    jobs = _compute_jobs(seed)
    tracer = Tracer("client") if trace else None
    with RssSampler(os.getpid()) as rss:
        passes = _compute_phase(graphs, jobs, seconds, tracer)
    records = [record for done in passes for record in done["records"]]
    if not trace:

        def anchors_per_s(done) -> float:
            exact = [r for r in done["records"] if r[0].startswith("exact-")]
            return sum(graphs[r[1]].num_hyperedges for r in exact) / sum(r[2] for r in exact)

        metrics = {
            "setup_s": setup_s,
            "throughput_rps": statistics.median(
                len(done["records"]) / _seconds(done) for done in passes
            ),
            "latency_p50_ms": statistics.median(
                percentile([r[2] for r in done["records"]], 50) for done in passes
            )
            * 1000.0,
            "latency_tail_ms": _tail_ms("compute-cold", [r[2] for r in records], notes),
            "exact_anchors_per_s": statistics.median(anchors_per_s(done) for done in passes),
            "peak_rss_mb": rss.peak_mb([done["window"] for done in passes]),
        }
    else:
        untraced = [done for done in passes if not done["traced"]]
        traced = [done for done in passes if done["traced"]]
        metrics = {name: 0.0 for name, _ in layers.PER_LAYER}
        metrics.update(layers.from_spans(tracer.spans))
        metrics["trace.overhead_pct"] = _overhead_pct(
            sum(len(done["records"]) for done in untraced),
            sum(_seconds(done) for done in untraced),
            sum(len(done["records"]) for done in traced),
            sum(_seconds(done) for done in traced),
        )
    wrong = _compute_wrong(records)
    return RunResult(
        metrics=metrics,
        attempted=len(records),
        failed=wrong,
        correct=reference_ok and wrong == 0,
        notes=notes,
    )


def _overhead_pct(untraced: int, untraced_s: float, traced: int, traced_s: float) -> float:
    """How much longer a traced request or job takes than an untraced one,
    from the completion rates of an untraced and a traced phase."""
    return ((untraced / untraced_s) / (traced / traced_s) - 1.0) * 100.0


def _release_server(ready: tuple) -> None:
    """Kill the server of an earlier set-up: it has served nothing, so
    there is nothing to drain, and a drain takes over a second."""
    ready[0].stop(drain=False)


# ---------------------------------------------------------------- serve-warm
def _warm_sources(seed: int, keys: List[tuple], chains: List[str]) -> List[Iterator[Request]]:
    ranks = np.arange(1, len(keys) + 1, dtype=float)
    cdf = np.cumsum(ranks**-ZIPF_EXPONENT)
    cdf /= cdf[-1]

    def source(client: int) -> Iterator[Request]:
        rng = np.random.default_rng(sub_seed(seed, "warm-client", client))
        while True:
            if rng.random() < WARM_EVOLVE_SHARE:
                chain = chains[int(rng.integers(len(chains)))]
                yield Request("evolve", [{"source": chain, "spec": EVOLVE_SPEC}])
            else:
                path, spec = keys[int(np.searchsorted(cdf, rng.random(), side="right"))]
                yield Request("batch", [{"source": path, "spec": spec}])

    return [source(client) for client in range(CLIENTS)]


def _warm_keys(seed: int, static: List[str]) -> List[tuple]:
    """serve-warm's ``(dataset, spec)`` keys, most popular first."""
    keys = [(path, spec) for path in static for spec in (COUNT_SPEC, PROFILE_SPEC)]
    popularity = np.random.default_rng(sub_seed(seed, "popularity")).permutation(len(keys))
    return [keys[index] for index in popularity]


def serve_warm(seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    data = work / "data"
    data.mkdir()

    def setup(index: int) -> tuple:
        static, chains = inputs.warm_working_set(seed, data, WARM_DATASETS, WARM_CHAINS)
        keys = _warm_keys(seed, static)
        store = str(work / f"store-{index}")
        with ServerProcess(store, str(work / f"warm-{index}.log")) as warmer:
            with warmer.client() as client:
                units = [{"source": path, "spec": spec} for path, spec in keys]
                for start in range(0, len(units), 64):
                    client.batch(units[start : start + 64])
                for chain in chains:
                    client.evolve(chain, EVOLVE_SPEC)
        return ServerProcess(store, str(work / f"server-{index}.log")), keys, chains

    (server, keys, chains), setup_s = _median_setup(
        setup, _release_server, WARM_SETUP_REPEATS
    )
    sources = _warm_sources(seed, keys, chains)
    return _serve(
        "serve-warm",
        seed,
        seconds,
        trace,
        work,
        server,
        setup_s,
        sources,
        traced_store=server.store,
    )


# ---------------------------------------------------------------- serve-cold
def _cold_sources(cold: inputs.ColdInputs) -> List[Iterator[Request]]:
    def source(client: int) -> Iterator[Request]:
        offset = client * len(COLD_CYCLE) // CLIENTS
        # Each kind of request walks through the bases on its own, so every
        # kind sees every base.
        turns = {kind: 0 for kind in COLD_CYCLE}
        for number in itertools.count():
            kind = COLD_CYCLE[(number + offset) % len(COLD_CYCLE)]
            base = turns[kind] * CLIENTS + client
            turns[kind] += 1
            name = f"{client}-{number}"
            if kind == "evolve":
                yield Request("evolve", [{"source": cold.chain(name, base), "spec": EVOLVE_SPEC}])
                continue
            path = cold.dataset(name, base)
            if kind == "multi":
                paths = [path, cold.dataset(f"{name}-pair", base + 1), path]
            else:
                paths = [path]
            spec = PROFILE_SPEC if kind == "profile" else COUNT_SPEC
            yield Request("batch", [{"source": p, "spec": spec} for p in paths])

    return [source(client) for client in range(CLIENTS)]


def serve_cold(seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    data = work / "data"
    data.mkdir()

    def setup(index: int) -> tuple:
        cold = inputs.ColdInputs(seed, data)
        server = ServerProcess(str(work / f"store-{index}"), str(work / f"server-{index}.log"))
        return server, cold

    (server, cold), setup_s = _median_setup(setup, _release_server, COLD_SETUP_REPEATS)
    sources = _cold_sources(cold)
    return _serve(
        "serve-cold",
        seed,
        seconds,
        trace,
        work,
        server,
        setup_s,
        sources,
        traced_store=str(work / "store-traced"),
    )


# ------------------------------------------------------------ serve, shared
def _store_bytes(store: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(store)
        for name in names
    )


def _serve_phase(server: ServerProcess, sources, seconds: float, tracer=None) -> Dict:
    before, bytes_before = server.metrics(), _store_bytes(server.store)
    with RssSampler(server.proc.pid) as rss:
        phase = closed_loop(server.port, sources, seconds, tracer)
    phase["rss"] = rss
    phase["diff"] = promtext.diff(before, server.metrics())
    phase["bytes_written"] = _store_bytes(server.store) - bytes_before
    return phase


def _reconciles(phase: Dict, notes: List[str]) -> bool:
    """The server's counters agree with what the clients sent and received."""
    diff = phase["diff"]
    sent = sum(
        len(outcome.request.units)
        for outcome in phase["outcomes"]
        if outcome.request.route == "batch"
    )
    served = promtext.total(diff, "repro_serve_requests_total")
    unique = (
        served
        - promtext.total(diff, "repro_serve_deduplicated_total")
        - promtext.total(diff, "repro_serve_unit_failures_total")
    )
    tiers = promtext.by_label(diff, "repro_serve_cache_tier_total", "tier")
    share_sum = sum(promtext.shares(tiers, layers.TIERS).values())
    ok = served == sent and sum(tiers.values()) == unique
    ok = ok and (abs(share_sum - 1.0) < 1e-9 if sent else share_sum == 0.0)
    if not ok:
        notes.append(
            f"reconciliation failed: sent {sent} units, server counted {served}, "
            f"{unique} unique, tiers {tiers}"
        )
    return ok


def _serve(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    server: ServerProcess,
    setup_s: float,
    sources: List[Iterator[Request]],
    traced_store: str,
) -> RunResult:
    notes: List[str] = []
    with server:
        untraced = _serve_phase(server, sources, seconds / 2 if trace else seconds)
    phases = [untraced]
    if trace:
        spans_path = str(work / "server-spans.json")
        tracer = Tracer("client")
        with ServerProcess(traced_store, str(work / "traced.log"), spans_path) as traced_server:
            traced = _serve_phase(traced_server, sources, seconds / 2, tracer)
        phases.append(traced)
    reconciled = all([_reconciles(phase, notes) for phase in phases])
    outcomes = [outcome for phase in phases for outcome in phase["outcomes"]]
    errors = sum(outcome.error is not None for outcome in outcomes)
    for outcome in outcomes:
        if outcome.error is not None and len(notes) < 5:
            notes.append(f"request {outcome.request_id} failed: {outcome.error}")
    wrong, examples = checks.count_wrong(outcomes)
    if wrong:
        notes.append(f"{wrong} wrong answers, e.g. requests {examples}")
    reference_ok = _reference_ok(seed, notes)
    traced_ok = True
    if trace:
        metrics = {name: 0.0 for name, _ in layers.PER_LAYER}
        metrics.update(
            layers.from_service(
                untraced["diff"],
                untraced["outcomes"],
                untraced["retries"],
                untraced["bytes_written"],
            )
        )
        server_spans = Tracer.load(spans_path)
        if not server_spans:
            # Without the server's spans every server-side layer would read
            # zero and the client would take the whole wall clock.
            notes.append("the traced server wrote no spans (killed before its drain?)")
            traced_ok = False
        metrics.update(layers.from_spans(tracer.spans + server_spans))
        metrics["trace.overhead_pct"] = _overhead_pct(
            len(untraced["outcomes"]),
            untraced["elapsed_s"],
            len(traced["outcomes"]),
            traced["elapsed_s"],
        )
    else:
        done = [outcome for outcome in untraced["outcomes"] if outcome.error is None]
        windows = _slices(untraced["started"], untraced["elapsed_s"])

        def sliced(value) -> float:
            groups = [[o for o in done if start <= o.finished < end] for start, end in windows]
            return statistics.median(value(group) for group in groups if group)

        width = untraced["elapsed_s"] / SLICES
        metrics = {
            "setup_s": setup_s,
            "throughput_rps": sliced(lambda group: len(group) / width),
            "latency_p50_ms": sliced(
                lambda group: percentile([o.latency_s for o in group], 50) * 1000.0
            ),
            "latency_tail_ms": _tail_ms(workload, [o.latency_s for o in done], notes),
            "exact_anchors_per_s": _answered_anchors(done) / untraced["elapsed_s"],
            "peak_rss_mb": untraced["rss"].peak_mb(windows),
        }
    return RunResult(
        metrics=metrics,
        attempted=len(outcomes),
        failed=errors + wrong,
        correct=reference_ok and reconciled and traced_ok and wrong == 0,
        notes=notes,
    )


def _slices(started: float, elapsed: float) -> List[tuple]:
    """The timed window cut into :data:`SLICES` equal ``(start, end)`` slices;
    the last one runs on to take in the requests in flight at the deadline."""
    width = elapsed / SLICES
    edges = [started + width * index for index in range(SLICES)] + [float("inf")]
    return list(zip(edges, edges[1:]))


def _answered_anchors(outcomes) -> int:
    """Hyperedges of the datasets behind every answered unit.

    Every unit answers at least one exact count of its dataset: a count, a
    profile's real counts, an evolve chain's last snapshot.
    """
    sizes: Dict[str, int] = {}
    total = 0
    for outcome in outcomes:
        for unit in outcome.request.units:
            if unit["source"] not in sizes:
                sizes[unit["source"]] = _num_lines(unit["source"])
            total += sizes[unit["source"]]
    return total


def _num_lines(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


RUNNERS = {"compute-cold": compute_cold, "serve-warm": serve_warm, "serve-cold": serve_cold}
