"""In-memory spans recorded around calls into the program's layers.

The benchmark traces the program from outside: :meth:`Tracer.patch`
replaces a function or method under the name its caller looks it up by
(``repro.counting.exact.count_exact_batched``, ``MotifEngine.count``, ...)
with a wrapper that records one span per call — name, layer, start, end,
parent span and request id. Generators get one span for the call that
creates them and one per ``next()``, so the time a consumer spends between
items is not charged to the generator's layer.

Parents come from a context variable within one thread. Work that crosses
a thread or process boundary starts with no parent; :func:`join_orphans`
attaches such spans by request id (see :data:`JOIN_PARENT_LAYER`).
Timestamps are ``time.perf_counter()``, which on Linux reads
``CLOCK_MONOTONIC`` and is therefore comparable between processes on one
host — the server's spans and the client's spans share a time axis.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

#: The benchmark's own loop: one root span per request or job. Its self
#: time is the part of the wall clock no layer accounts for.
ROOT_LAYER = "bench"

#: Layer of the span an orphan is attached to, by the orphan's layer: the
#: server's request handler joins the client call that sent the request
#: (another process); anything else that starts without a parent runs on a
#: worker thread and joins the executor that dispatched it.
JOIN_PARENT_LAYER = {"server": "client"}
DEFAULT_JOIN_LAYER = "executors"

Span = Dict[str, Any]
RequestIdSource = Callable[[tuple, dict], Optional[str]]
AttrsFn = Callable[[tuple, dict, Any], Dict[str, float]]


class Tracer:
    """Records spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(
        self, process: str, request_id: Optional[Callable[[], Optional[str]]] = None
    ) -> None:
        self.process = process
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
            f"perfbench_span_{id(self)}", default=None
        )
        self._request_id = request_id or (lambda: None)
        self._patched: List[tuple] = []

    @contextlib.contextmanager
    def span(
        self, name: str, layer: str, request_id: Optional[str] = None, **attrs: float
    ) -> Iterator[Span]:
        """Record the enclosed block as one span; yields its mutable record."""
        record: Span = {
            "id": f"{self.process}:{next(self._ids)}",
            "name": name,
            "layer": layer,
            "parent": self._current.get(),
            "request_id": request_id if request_id is not None else self._request_id(),
            "process": self.process,
            "thread": threading.get_ident(),
            "attrs": dict(attrs),
        }
        token = self._current.set(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def wrap(
        self,
        function: Callable,
        name: str,
        layer: str,
        generator: bool = False,
        attrs: Optional[AttrsFn] = None,
        request_id: Optional[RequestIdSource] = None,
    ) -> Callable:
        """*function* wrapped to record a span per call (and per item)."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            rid = None if request_id is None else request_id(args, kwargs)
            with self.span(name, layer, request_id=rid) as record:
                result = function(*args, **kwargs)
                if attrs is not None and not generator:
                    record["attrs"].update(attrs(args, kwargs, result))
            if generator:
                return self._traced_items(result, name, layer)
            return result

        return traced

    def _traced_items(self, iterator, name: str, layer: str):
        try:
            while True:
                with self.span(name, layer):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def patch(self, owner: Any, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` by its traced wrapper (see :meth:`wrap`).

        *name* is ``layer.operation``; its first part names the layer.
        """
        original = getattr(owner, attribute)
        layer = name.partition(".")[0]
        # An inherited method is shadowed on *owner*, and removed again by
        # unpatch() rather than copied down.
        own = attribute in vars(owner)
        setattr(owner, attribute, self.wrap(original, name, layer, **options))
        self._patched.append((owner, attribute, own, original))

    def unpatch(self) -> None:
        """Restore every patched attribute."""
        for owner, attribute, own, original in reversed(self._patched):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    @staticmethod
    def load(path: str) -> List[Span]:
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)


def join_orphans(spans: List[Span]) -> int:
    """Give parentless non-root spans a parent by request id; returns joins.

    An orphan joins the narrowest span of its request, on another thread or
    process, of the layer :data:`JOIN_PARENT_LAYER` names for it, that
    contains its start; failing that, the latest such span that started
    before it (a worker may start while the dispatcher is between items).
    """
    by_request: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span["request_id"] is not None:
            by_request[span["request_id"]].append(span)
    joined = 0
    for span in spans:
        if span["parent"] is not None or span["layer"] == ROOT_LAYER:
            continue
        if span["request_id"] is None or span["layer"] == "client":
            continue
        wanted = JOIN_PARENT_LAYER.get(span["layer"], DEFAULT_JOIN_LAYER)
        candidates = [
            other
            for other in by_request[span["request_id"]]
            if other["layer"] == wanted
            and (other["process"], other["thread"]) != (span["process"], span["thread"])
            and other["start"] <= span["start"]
        ]
        if not candidates:
            continue
        containing = [c for c in candidates if c["end"] >= span["start"]]
        parent = max(containing or candidates, key=lambda c: c["start"])
        span["parent"] = parent["id"]
        joined += 1
    return joined


def _covered(start: float, end: float, intervals: List[tuple]) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[str, List[tuple]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(span["start"], span["end"], children[span["id"]])
        for span in spans
    }


def roots_of(spans: List[Span]) -> Dict[str, Span]:
    """The root span above each span (itself when it has no parent)."""
    by_id = {span["id"]: span for span in spans}
    roots: Dict[str, Span] = {}

    def root(span: Span) -> Span:
        chain = []
        while span["id"] not in roots and span["parent"] in by_id:
            chain.append(span)
            span = by_id[span["parent"]]
        top = roots.get(span["id"], span)
        for member in chain + [span]:
            roots[member["id"]] = top
        return top

    for span in spans:
        root(span)
    return roots


def layer_breakdown(spans: List[Span]) -> Dict[str, float]:
    """Self time per layer plus ``wall`` (total root-span time).

    ``wall`` sums the benchmark's root spans, so with two clients it is
    about twice the elapsed time. Spans that run in parallel under one root
    (two workers serving one batch) can make the layers add up to more than
    ``wall``.
    """
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["layer"]] += own[span["id"]]
        if span["layer"] == ROOT_LAYER and span["parent"] is None:
            totals["wall"] += span["end"] - span["start"]
    return dict(totals)
