"""Arithmetic of the benchmark: percentiles, ratios and span self times.

Everything the benchmark reports is derived here from raw samples, so the
rules are stated (and tested) once.
"""

import math


def percentile(values, q):
    """The q-th percentile (0..100), interpolating linearly between ranks.

    This is the common "inclusive" definition: rank = q/100 * (n - 1) on the
    sorted samples, so percentile(v, 50) is the median and percentile(v, 100)
    the maximum.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50)


def ratio(part, base):
    """part / base for a count ratio; a zero base has no ratio."""
    if base <= 0:
        raise ValueError(f"ratio over an empty base ({part}/{base})")
    if part < 0 or part > base:
        raise ValueError(f"ratio part {part} outside 0..{base}")
    return part / base


def covered(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Maps span id -> its duration minus the time its children cover.

    Spans are dicts with id, parent, start_us and end_us; children may
    overlap each other (parallel work), so the union of their intervals is
    subtracted, not their sum.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_us"], s["end_us"]))
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        out[s["id"]] = (hi - lo) - covered(children.get(s["id"], []), lo, hi)
    return out


def durations(spans, name):
    """Durations (µs) of every span called `name`, in log order."""
    return [s["end_us"] - s["start_us"] for s in spans if s["name"] == name]


def fft2d_pair_cost(n):
    """Computed work of one n x n complex forward+inverse pair.

    flops: 5 N log2 N per transform (the radix-2 count), N = n^2.
    bytes: each transform makes a row pass and a column pass, each reading
    and writing both f64 planes once: 2 passes * 2 (r+w) * 16 B * N.
    Both are counts from the sizes, not measurements of the memory system.
    """
    N = n * n
    flops = 2 * 5 * N * math.log2(N)
    bytes_moved = 2 * (2 * 2 * 16 * N)
    return flops, bytes_moved
