"""Statistics and span arithmetic for the host benchmark (run.py)."""

import math

# Percentiles the benchmark may report as a tail, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def percentile(values, p):
    """Linear interpolation between closest ranks (NumPy's default)."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    pos = (len(values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def samples_beyond(p, n):
    """How many of n samples lie beyond the p-th percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-6)


def tail_percentile(n):
    """The highest percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has too few."""
    best = None
    for p in TAIL_PERCENTILES:
        if samples_beyond(p, n) >= MIN_BEYOND:
            best = p
    return best


def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Span id -> its duration minus the part of it its children
    cover (overlapping children count once)."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in kids.get(s["id"], ())
            if c["end"] > s["start"] and c["start"] < s["end"])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def coverage(span, spans):
    """Share of @p span's duration its direct children cover."""
    length = span["end"] - span["start"]
    if length <= 0:
        return 1.0
    kids = [c for c in spans if c["parent"] == span["id"]]
    return _union_length((c["start"], c["end"]) for c in kids) / length


def spans_from_chrome(doc):
    """Span dicts (name, start, end, id, parent, job; seconds) from the
    harness's Chrome trace-event JSON."""
    spans = []
    for e in doc["traceEvents"]:
        start = e["ts"] * 1e-6
        spans.append({
            "name": e["name"], "start": start,
            "end": start + e["dur"] * 1e-6, "id": e["args"]["id"],
            "parent": e["args"]["parent"], "job": e["args"]["job"],
        })
    return spans
