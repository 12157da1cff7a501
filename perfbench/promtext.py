"""Parse and diff the Prometheus text exposition served at ``/v1/metrics``.

Only the sample lines matter here: ``name{label="v",...} value``. Comments
(``# HELP``/``# TYPE``) are skipped. A parsed scrape maps
``(name, ((label, value), ...))`` to the sample value; :func:`diff` subtracts
two scrapes taken around a run, and the query helpers sum or select samples
by name and labels.
"""

from __future__ import annotations

import re
from typing import Dict, Mapping, Optional, Tuple

SampleKey = Tuple[str, Tuple[Tuple[str, str], ...]]
Samples = Dict[SampleKey, float]

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+\S+)?$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


def parse(text: str) -> Samples:
    """All samples of one scrape; raises ``ValueError`` on a malformed line."""
    samples: Samples = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {number}: not a sample: {raw!r}")
        name, label_text, value = match.groups()
        labels = []
        if label_text:
            labels = [
                (label.group(1), _unescape(label.group(2)))
                for label in _LABEL.finditer(label_text)
            ]
            if _LABEL.sub("", label_text).replace(",", "").strip():
                raise ValueError(f"line {number}: malformed labels: {raw!r}")
        samples[(name, tuple(sorted(labels)))] = float(value)
    return samples


def diff(before: Samples, after: Samples) -> Samples:
    """``after - before`` per sample; a sample absent before counts as 0."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(samples: Samples, name: str, **labels: str) -> float:
    """Sum of the samples of *name* whose labels include *labels*."""
    wanted = set(labels.items())
    return sum(
        value
        for (sample_name, sample_labels), value in samples.items()
        if sample_name == name and wanted <= set(sample_labels)
    )


def by_label(samples: Samples, name: str, label: str) -> Dict[str, float]:
    """Samples of *name* summed per value of *label*."""
    grouped: Dict[str, float] = {}
    for (sample_name, sample_labels), value in samples.items():
        if sample_name != name:
            continue
        key = dict(sample_labels).get(label)
        if key is not None:
            grouped[key] = grouped.get(key, 0.0) + value
    return grouped


def histogram_mean(samples: Samples, name: str, **labels: str) -> float:
    """Mean observation of histogram *name* (``_sum / _count``; 0 if empty)."""
    count = total(samples, f"{name}_count", **labels)
    return total(samples, f"{name}_sum", **labels) / count if count else 0.0


def shares(counts: Mapping[str, float], keys: Optional[Tuple[str, ...]] = None) -> Dict[str, float]:
    """Each count as a share of their sum (all 0 when the sum is 0)."""
    keys = tuple(counts) if keys is None else keys
    whole = sum(counts.get(key, 0.0) for key in keys)
    return {key: (counts.get(key, 0.0) / whole if whole else 0.0) for key in keys}
