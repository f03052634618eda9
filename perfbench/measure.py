"""Summary statistics the benchmark reports: percentiles, F1, span self time."""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; fewer would make the tail a handful of outliers.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation (numpy's default)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ranked = sorted(samples)
    position = (len(ranked) - 1) * q / 100.0
    low, high = math.floor(position), math.ceil(position)
    if low == high or ranked[high] == math.inf:  # failed requests count as inf
        return ranked[high]
    return ranked[low] + (ranked[high] - ranked[low]) * (position - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly above the *q*-th percentile rank."""
    return n - math.ceil(n * q / 100.0)


class F1:
    """Micro-averaged F1 over many (predicted set, true set) pairs."""

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0

    def add(self, predicted: Iterable, truth: Iterable) -> None:
        predicted, truth = set(predicted), set(truth)
        self.tp += len(predicted & truth)
        self.fp += len(predicted - truth)
        self.fn += len(truth - predicted)

    @property
    def value(self) -> float:
        denominator = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denominator if denominator else 1.0


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    *spans* holds ``(span_id, parent_id, name, start, end)`` tuples. Child
    intervals may overlap (children running on several threads), so the
    covered part is the length of their union, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(sid, ())):
            child_start, child_end = max(child_start, start), min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        result[sid] = (end - start) - covered
    return result


def outermost(spans: Sequence[tuple]) -> list[tuple]:
    """Spans with no ancestor of the same name (so nested calls count once)."""
    by_id = {span[0]: span for span in spans}
    kept = []
    for span in spans:
        parent = span[1]
        while parent is not None and by_id[parent][2] != span[2]:
            parent = by_id[parent][1]
        if parent is None:
            kept.append(span)
    return kept
