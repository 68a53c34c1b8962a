"""Arithmetic behind the benchmark's figures.

Pure functions over plain numbers, so the self-tests in test_bench.py can
check them on hand-sized cases: percentiles and quantile estimates, the
self time of nested spans, and the per-layer table built from one traced
pipeline.
"""

import math
import statistics

from scipy.special import betainc


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between the two nearest ranks.

    This is numpy's default rule: position (len - 1) * q / 100 in the
    sorted values, interpolated.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty list")
    if not 0 <= q <= 100:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th quantile (0 < q < 1).

    A weighted mean of every order statistic, with Beta(q(n+1), (1-q)(n+1))
    weights. Epoch times come in scheduler ticks (8 ms steps here), and a
    plain sample median jumps a whole tick when the share of two tick
    values crosses one half; this estimate moves with that share instead.
    """
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("quantile of an empty list")
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(x * (edges[i + 1] - edges[i]) for i, x in enumerate(xs)))


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    spans is a list of (start, end, parent) with parent the index of the
    enclosing span or -1. The tracer is single-threaded, so children nest
    strictly inside their parent and never overlap one another.
    """
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_table(traces) -> dict:
    """Sum calls, self time, errors and counts per span name.

    traces is one list of span records per traced process; a record is
    (name, start, end, parent, error, counts) with counts a dict of
    integers (or None when the counter could not read the arguments).
    Returns {name: {"calls", "self_s", "errors", <count keys>...}}.
    """
    table = {}
    for spans in traces:
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        for (name, _, _, _, error, counts), own in zip(spans, selfs):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["self_s"] += own
            row["errors"] += int(error)
            for key, val in (counts or {}).items():
                row[key] = row.get(key, 0) + val
    return table


def entries_per_pair_epoch(entries: int, n_train: int, epochs: int, directions: int = 2) -> float:
    """Similarity entries built per training pair, per epoch, per direction.

    Labels never change during training, so anything above 1.0 is
    rebuilt work.
    """
    return entries / (n_train * n_train * epochs * directions)


# (layer, count key) pairs reported as "<layer>.<key>" sums
COUNTS = (("objective.feature_grad", "pairs"), ("objective.pairwise_nll", "pairs"),
          ("data.sim_block", "entries"), ("hamming.distances_to_all", "rows"))


def layer_values(table: dict, layers, n_train: int, epochs: int) -> dict:
    """Per-layer metrics from a layer_table: calls and self time of every
    layer (0 when it never ran), the summed counts, and two ratios."""
    values = {}
    for name in layers:
        row = table.get(name, {})
        values[f"{name}.calls"] = row.get("calls", 0)
        values[f"{name}.self_s"] = row.get("self_s", 0.0)
    for name, key in COUNTS:
        values[f"{name}.{key}"] = table.get(name, {}).get(key, 0)
    values["data.sim_block.entries_per_pair_epoch"] = entries_per_pair_epoch(
        values["data.sim_block.entries"], n_train, epochs)
    codes = table.get("training.update_codes", {})
    compared = codes.get("bits_compared", 0)
    values["training.update_codes.bits_flipped_frac"] = (
        codes.get("bits_flipped", 0) / compared if compared else 0.0)
    return values


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles use statistics.quantiles(n=4) and its default rule.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
