"""Per-target strip walk: the oracle for the first-visit kernel.

:func:`first_visit_row` here assigns each newly covered target on its
own, advancing one target at a time while ``x - SEG_EPS <= x1`` (up) or
``x + SEG_EPS >= x1`` (down) holds.  This is the straightforward reading
of the envelope argument in :mod:`repro.batch.kernels`.  The library
kernel finds each strip's end by bisect and fills it with one slice; it
must return the same floats (``tests/batch/test_strip_oracle.py``).

The reference reads only the public arrays of
:class:`~repro.batch.compile.CompiledTrajectory` and the kernel's two
tolerances, so it stays independent of however the library fills a
strip.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Sequence

from repro.batch.kernels import SEG_EPS, START_RTOL


def first_visit_row(compiled, xs_sorted: Sequence[float]) -> List[float]:
    """First-visit time of each sorted target, one target per step."""
    n = len(xs_sorted)
    times = [math.inf] * n
    s = compiled.start_position
    anchor = bisect_left(xs_sorted, s)
    lo_idx = anchor
    while lo_idx > 0 and abs(xs_sorted[lo_idx - 1] - s) <= START_RTOL * (
        1.0 + abs(xs_sorted[lo_idx - 1])
    ):
        lo_idx -= 1
    hi_idx = anchor
    while hi_idx < n and abs(xs_sorted[hi_idx] - s) <= START_RTOL * (
        1.0 + abs(xs_sorted[hi_idx])
    ):
        hi_idx += 1
    for i in range(lo_idx, hi_idx):
        times[i] = compiled.start_time
    next_up = hi_idx
    next_dn = lo_idx - 1
    env_lo = env_hi = s
    x0s, t0s, x1s, t1s = compiled.x0, compiled.t0, compiled.x1, compiled.t1
    for j in range(len(x0s)):
        x0 = x0s[j]
        x1 = x1s[j]
        if x1 > env_hi:
            t0 = t0s[j]
            dt = t1s[j] - t0
            dx = x1 - x0
            while next_up < n and xs_sorted[next_up] - SEG_EPS <= x1:
                frac = (xs_sorted[next_up] - x0) / dx
                if frac > 1.0:
                    frac = 1.0
                times[next_up] = t0 + frac * dt
                next_up += 1
            env_hi = x1
        elif x1 < env_lo:
            t0 = t0s[j]
            dt = t1s[j] - t0
            dx = x1 - x0
            while next_dn >= 0 and xs_sorted[next_dn] + SEG_EPS >= x1:
                frac = (xs_sorted[next_dn] - x0) / dx
                if frac > 1.0:
                    frac = 1.0
                times[next_dn] = t0 + frac * dt
                next_dn -= 1
            env_lo = x1
        if next_up >= n and next_dn < 0:
            break
    return times
