"""Order statistics and span arithmetic used by the benchmark.

Nothing here imports talklora, so these functions are tested on their own
(``python3 -m pytest perfbench``).

A span is a record ``[name, tag, start, end, parent]`` as the tracer in
``spans.py`` writes it: ``parent`` is the index of the enclosing span in
the same list, or -1 for a span with no traced caller.  Spans are appended
when they start, so a list of spans is ordered by start time.
"""

from __future__ import annotations

import bisect
import math
import statistics

NAME, TAG, START, END, PARENT = range(5)

# Percentiles tail_percentile tries, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def mean_of_medians(pairs) -> float:
    """Median of the values of each key in ``(key, value)`` pairs, averaged over the keys.

    Every key weighs the same however many values it has, so a change to
    the values of any one key moves the result.
    """
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    if not groups:
        raise ValueError("mean of medians of no values")
    return sum(median(v) for v in groups.values()) / len(groups)


def quartiles(values) -> tuple:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile_rank(n: int, pct: float) -> int:
    """1-based nearest-rank position of the ``pct`` percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {pct}")
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` percentile."""
    return n - percentile_rank(n, pct)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), pct) - 1]


def tail_percentile(values) -> tuple:
    """Highest candidate percentile with at least ten samples beyond it.

    Returns ``(pct, value, beyond)``; ``pct`` is None when even the lowest
    candidate leaves fewer than ten samples beyond it.
    """
    values = list(values)
    for pct in TAIL_CANDIDATES:
        beyond = samples_beyond(len(values), pct)
        if beyond >= 10:
            return pct, percentile(values, pct), beyond
    return None, None, 0


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another inside it (the program is
    single-threaded), so the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def aggregate(spans) -> dict:
    """``{key: [calls, self seconds]}`` per span name, and per ``name.tag``.

    A tagged span counts under its plain name and under ``name.tag``.
    """
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        keys = [span[NAME]]
        if span[TAG] is not None:
            keys.append(f"{span[NAME]}.{span[TAG]}")
        for key in keys:
            entry = out.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += own
    return out


def step_intervals(spans, loop_name: str, step_name: str) -> list:
    """Training steps as ``(index of the step's first span, start, end)``.

    A step starts where a ``step_name`` span called directly from a
    ``loop_name`` span starts, and ends where the next one starts; the last
    step of a loop ends with the loop.  Each interval therefore holds one
    whole iteration of the training loop.
    """
    starts: dict = {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if span[NAME] == step_name and parent >= 0 and spans[parent][NAME] == loop_name:
            starts.setdefault(parent, []).append(i)
    out = []
    for loop, firsts in sorted(starts.items()):
        begins = [spans[i][START] for i in firsts]
        ends = begins[1:] + [spans[loop][END]]
        out.extend(zip(firsts, begins, ends))
    return out


def attributed_seconds(spans, selfs, intervals) -> float:
    """Self time of the spans that lie wholly inside the given intervals.

    Because self times partition the time of their outermost span, this is
    the share of the intervals that traced calls account for; the rest of
    an interval is time spent in untraced code.
    """
    begins = [span[START] for span in spans]
    total = 0.0
    for _, t0, t1 in intervals:
        i = bisect.bisect_left(begins, t0)
        while i < len(spans) and spans[i][START] < t1:
            if spans[i][END] <= t1:
                total += selfs[i]
            i += 1
    return total
