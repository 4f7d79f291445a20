"""The benchmark's own arithmetic: order statistics, slot accounting and
worker utilisation.  Standard library only, so it is testable without
running a campaign."""

import math
import statistics

__all__ = [
    "percentile",
    "quartile_spread",
    "slot_accounting",
    "tail_count",
    "worker_util",
]


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_count(values, q):
    """How many samples lie strictly beyond the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles ``statistics.quantiles(values, n=4)``
    gives.  None for fewer than two samples."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def slot_accounting(reports):
    """``(planned, injected)`` slots over supervision reports.

    Planned counts every dispatched slot, completed or quarantined;
    injected counts the slots whose fault was actually injected.  A slot
    fails when it was quarantined or skipped with a ``MutantError``, so
    failed slots are ``planned - injected``.
    """
    planned = injected = 0
    for report in reports:
        for outcome in report.outcomes.values():
            planned += outcome.num_slots
            injected += outcome.faults_injected
        for quarantined in report.quarantined:
            planned += quarantined.num_slots
    return planned, injected


def _cpu_seconds(usage):
    """User plus system CPU seconds of a ``resource.getrusage`` result."""
    return usage.ru_utime + usage.ru_stime


def worker_util(children_before, children_after, parent_cpu_s, workers,
                dispatch_s):
    """Share of the workers' capacity busy while shards were dispatched.

    Worker CPU is the CPU of reaped worker processes (the ``RUSAGE_CHILDREN``
    difference) plus the driver's own CPU inside the dispatch calls, where
    a serial supervisor runs shards in-process.  Capacity is ``workers``
    times the wall time inside the dispatch calls.
    """
    if dispatch_s <= 0:
        return 0.0
    busy = (_cpu_seconds(children_after) - _cpu_seconds(children_before)
            + parent_cpu_s)
    return busy / (workers * dispatch_s)
