"""Output checks: every answer the benchmark times is also checked.

Served and computed results are compared with an in-process
``MotifEngine(store=None)`` run of the same dataset and spec, after the
timed window. Payload fields that legitimately differ between a cold
computation and a cached answer (timings and provenance) are ignored;
everything else must be bit-identical.
"""

from __future__ import annotations

import json
import multiprocessing
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterator, List, Tuple

from repro.api import MotifEngine, spec_from_dict
from repro.api.config import CountSpec, ProfileSpec
from repro.fastcore.reference import count_exact_reference, project_reference

from perfbench import inputs

#: Result keys that record how an answer was produced, not what it is.
VOLATILE_KEYS = frozenset({"seconds", "projection_cached", "from_cache", "cache_tier"})

EVOLVE_KEY = "evolve"

#: Processes computing the expected answers; one per CPU of the reference
#: machine.
CHECK_WORKERS = 2


def comparable(payload: Dict[str, Any]) -> Dict[str, Any]:
    """*payload* without timing and provenance fields."""
    return {
        key: value
        for key, value in payload.items()
        if key not in VOLATILE_KEYS and not key.endswith("_seconds")
    }


def reference_matches(seed: int) -> bool:
    """The block kernels agree with the per-triple reference counter."""
    graph = inputs.reference_graph(seed)
    fast = MotifEngine(graph, store=None).count(CountSpec()).counts.to_array()
    slow = count_exact_reference(graph, project_reference(graph)).to_array()
    return fast.tolist() == slow.tolist()


def expected_answers(source: str, keys: List[str]) -> Dict[str, Any]:
    """In-process answers for one dataset, by key.

    A key is a spec's sorted JSON (its count or profile payload, compared
    without volatile fields) or ``"evolve"`` (the counts of the temporal
    dataset's whole final graph, counted from scratch).
    """
    engine = MotifEngine.load(source, store=None)
    answers: Dict[str, Any] = {}
    for key in keys:
        if key == EVOLVE_KEY:
            final = MotifEngine(engine.hypergraph, store=None)
            answers[key] = final.count(CountSpec()).to_dict()["counts"]
            continue
        spec = spec_from_dict(json.loads(key))
        result = engine.profile(spec) if isinstance(spec, ProfileSpec) else engine.count(spec)
        answers[key] = comparable(result.to_dict())
    return answers


def _answers(outcome) -> Iterator[Tuple[str, str, Any]]:
    """``(dataset, key, served answer)`` for each part of a served outcome."""
    if outcome.request.route == "evolve":
        yield outcome.request.units[0]["source"], EVOLVE_KEY, outcome.results[-1]["counts"]
        return
    for unit, result in zip(outcome.request.units, outcome.results):
        yield unit["source"], json.dumps(unit["spec"], sort_keys=True), comparable(result)


def count_wrong(outcomes: List[Any]) -> Tuple[int, List[str]]:
    """How many successful outcomes carry a wrong answer, with examples.

    Every distinct ``(dataset, spec)`` is computed in-process once, on
    :data:`CHECK_WORKERS` forked worker processes (after the timed window,
    so they compete with nothing measured; forked, not spawned, because a
    spawned pool leaves a resource-tracker process running after the
    benchmark). A batch unit must equal that computation; an evolve
    chain's last snapshot must equal a from-scratch count of the chain's
    final graph.
    """
    served = [outcome for outcome in outcomes if outcome.error is None]
    wanted: Dict[str, set] = defaultdict(set)
    for outcome in served:
        for source, key, _ in _answers(outcome):
            wanted[source].add(key)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(CHECK_WORKERS, mp_context=context) as pool:
        futures = {
            source: pool.submit(expected_answers, source, sorted(keys))
            for source, keys in wanted.items()
        }
        expected = {source: future.result() for source, future in futures.items()}
    wrong = 0
    examples: List[str] = []
    for outcome in served:
        if any(answer != expected[source][key] for source, key, answer in _answers(outcome)):
            wrong += 1
            if len(examples) < 3:
                examples.append(outcome.request_id)
    return wrong, examples
