"""A fixed probe of how fast this machine's CPU runs at this moment.

The host's vCPUs change speed by up to 1.6x, each on its own, from one
second to the next, and user CPU time slows as much as wall time.  The
benchmark therefore runs :func:`probe` right before and after every op, in
the CLI process itself, and scales the op's time by the probes' speed
against ``PROBE_S``.  The probe uses the standard library only, in the
idiom of giryq's hot path (``Fraction`` arithmetic in list comprehensions,
as in a simplex pivot), so that a change to giryq can never change it.
"""
from __future__ import annotations

import time
from fractions import Fraction

# the probe's time on the reference machine: scaled times read as seconds there
PROBE_S = 0.001
SIZE = 6


def eliminate() -> list[list[Fraction]]:
    """Exact Gauss-Jordan elimination on a fixed ``SIZE`` x ``SIZE + 1`` rational matrix."""
    n = SIZE
    a = [[Fraction((7 * i + 13 * j) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(n + 1)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


def probe() -> tuple[float, float]:
    """Run the fixed work once; return its start and end on ``perf_counter``."""
    start = time.perf_counter()
    eliminate()
    return start, time.perf_counter()
