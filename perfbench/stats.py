"""The tail percentile used by the benchmark's reports."""

from __future__ import annotations

import math

# A percentile is reported only when at least this many samples lie beyond
# it, so that one slow op cannot decide it alone.
MIN_BEYOND = 10


def tail_percentile(xs, q):
    """Nearest-rank q-th percentile of ``xs``, or None when fewer than
    MIN_BEYOND samples lie beyond it (for q = 90 that needs 100 samples)."""
    n = len(xs)
    if n == 0:
        return None
    rank = math.ceil(q / 100 * n)
    if n - rank < MIN_BEYOND:
        return None
    return sorted(xs)[rank - 1]
