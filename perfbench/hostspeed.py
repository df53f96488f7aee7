"""Host speed, from a fixed reference task timed between measured steps.

On a shared host the speed of pure-Python code swings by up to 2x with the
neighbours' load: it flips between fast and slow many times a second, and
the share of slow time drifts over minutes. Timing this fixed task between
the measured steps of a pass, and averaging, gives the pass's host factor;
a time divided by it is the time at the nominal speed. Do not change the
task or NOMINAL_S: figures measured with different ones are not comparable.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median time of reference_task over 30 s on a shared 2-vCPU x86-64 VM,
# Python 3.11.7 (fastest 0.0077 s, slowest 0.019 s).
NOMINAL_S = 0.014


def reference_task() -> int:
    """Fixed pure-Python work of the kinds quatrefl does: exact rationals,
    tuple-keyed dicts and small-integer polynomial arithmetic."""
    table: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    for i in range(1, 2400):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    poly = [i % 13 for i in range(60)]
    for _ in range(240):
        poly = [(a * 3 + b) % 1000003 for a, b in zip(poly, poly[1:] + poly[:1])]
    return len(table) + acc.numerator % 7 + sum(poly)


def host_factor(reps: int = 5) -> float:
    """Mean time of `reps` runs of the reference task, over NOMINAL_S."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference_task()
    return (time.perf_counter() - t0) / reps / NOMINAL_S
