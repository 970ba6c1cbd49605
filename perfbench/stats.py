"""Percentile reporting for the benchmark's timings.

Every timing is reported as a median plus the highest of the standard
tail percentiles that still has at least :data:`MIN_TAIL_SAMPLES`
samples beyond it, together with the sample count, so a reader can tell
a measured p99 from a p99 read off a handful of points.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np
from scipy.special import betainc

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL_SAMPLES = 10

#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    """The median; 0.0 when there are no samples."""
    return percentile(values, 50.0) if len(values) else 0.0


def hd_median(values: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median; 0.0 when there are no samples.

    A Beta-weighted mean of the order statistics.  Unlike the sample
    median it moves smoothly when samples fall on a grid: a job is seen
    done on the 0.1 s grid of the ``/events`` long-poll, so the sample
    median of ``service_enforce`` latencies jumps a whole step between
    runs whenever half the jobs sit near a grid line.
    """
    count = len(values)
    if count == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    a = b = (count + 1) / 2.0
    weights = np.diff(betainc(a, b, np.arange(count + 1) / count))
    return float(weights @ ordered)


def reportable_tail(count: int) -> Optional[float]:
    """The highest tail percentile with ``MIN_TAIL_SAMPLES`` beyond it.

    ``None`` when even the p90 has fewer than that many samples beyond.
    """
    for q in TAIL_PERCENTILES:
        if count * (1.0 - q / 100.0) >= MIN_TAIL_SAMPLES - 1e-9:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, reportable tail percentile and sample count of a timing."""
    count = len(values)
    tail = reportable_tail(count)
    return {
        "n": count,
        "p50": median(values),
        "tail_q": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }
