"""Statistics for the benchmark: percentiles, open-loop latency, metric
names and span self time. Pure functions; tests in perfbench/tests."""

import math
import re

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name):
    """A metric name: starts with a letter or digit, then at most 63
    more of letters, digits, '_', '.' and '-'."""
    return isinstance(name, str) and bool(_NAME.match(name))


def valid_unit(unit):
    return isinstance(unit, str) and bool(_UNIT.match(unit))


def rank_index(n, p):
    """Nearest-rank index of percentile p in a sorted list of n values."""
    if n <= 0:
        raise ValueError("no samples")
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floats
    return min(n - 1, max(0, math.ceil(round(p / 100.0 * n, 9)) - 1))


def percentile(sorted_values, p):
    return sorted_values[rank_index(len(sorted_values), p)]


def samples_beyond(n, p):
    """How many of n samples lie above the percentile-p sample."""
    return n - 1 - rank_index(n, p)


def tail_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it; None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summarize(values_ns, tail=None):
    """Median and tail of latency samples given in nanoseconds; a
    negative sample is a failed request and counts as infinitely slow.
    Returns a dict in milliseconds with the sample count and the tail
    percentile used (the fixed [tail] if given, else tail_percentile)."""
    vals = sorted(math.inf if v < 0 else v / 1e6 for v in values_ns)
    n = len(vals)
    p = tail if tail is not None else tail_percentile(n)
    out = {"n": n, "p50_ms": percentile(vals, 50.0), "tail_p": p}
    out["tail_ms"] = percentile(vals, p) if p is not None else vals[-1]
    out["tail_beyond"] = samples_beyond(n, p) if p is not None else 0
    return out


def open_loop(due_ns, sent_ns, acked_ns):
    """Open-loop timing: each request's latency counts from when it was
    due, not from when the generator got round to sending it, so a stall
    also charges the requests queued behind it. Returns (latencies,
    lateness) in the input unit."""
    lat = [a - d for d, a in zip(due_ns, acked_ns)]
    late = [max(0, s - d) for d, s in zip(due_ns, sent_ns)]
    return lat, late


def covered(intervals):
    """Total length of the union of half-open intervals (start, end)."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """spans: dict id -> (parent, start, end). A span's self time is its
    duration minus the part of it that its children's intervals cover
    (clipped to the span, overlaps counted once)."""
    children = {}
    for sid, (parent, _s, _e) in spans.items():
        children.setdefault(parent, []).append(sid)
    out = {}
    for sid, (_parent, s, e) in spans.items():
        kids = [
            (max(s, spans[k][1]), min(e, spans[k][2]))
            for k in children.get(sid, ())
        ]
        kids = [(a, b) for a, b in kids if b > a]
        out[sid] = (e - s) - covered(kids)
    return out

