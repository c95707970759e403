"""The CPU speed a process gets right now, read from a fixed stdlib loop.

The box this benchmark was written on gives a process a CPU whose speed
changes by up to 2x, in stretches of two seconds to several minutes,
and process CPU time slows with it: it is the core's speed that changes,
not the share of it a process gets.  A set of runs made in a slow
stretch reads slower than one made in a fast stretch, by more than the
benchmark's bounds.

So the benchmark reports each time at a reference speed: a time measured
while the loop took ``loop_s`` seconds (the mean of a reading just
before and just after it) is multiplied by ``REF_LOOP_S / loop_s``.  The
loop is rational arithmetic from the standard library, the kind of work
jetmove does, and it calls no jetmove code, so a change to jetmove cannot
move it.  Half of it is small rationals, where the interpreter's own
work dominates, and half is rationals of about 400 bits, where
big-integer arithmetic dominates: the two kinds slow down by different
amounts, and the workloads mix them differently.  Over eight runs of
each workload, the middle half of a run's median step time spread up to
0.20 of its median unscaled (pair-mixed) and up to 0.08 scaled by this
loop; scaled by either half alone, up to 0.10.
"""

from __future__ import annotations

import time
from fractions import Fraction

# What loop_s() reads on the box this benchmark was written on (Python
# 3.11, 2 CPUs) at its usual, slower speed.  Any constant would do: the
# benchmark compares runs on one machine, and this one keeps the scaled
# times close to the wall times seen there.
REF_LOOP_S = 0.0022
_BIG = [Fraction(3 ** 250 + 11 * i, 7 ** 140 + 13 * i) for i in range(21)]


def loop_s() -> float:
    """Seconds taken by the fastest of three runs of the reference loop;
    the fastest, so that an interrupt in one run does not count."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        small = big = Fraction(0)
        for i in range(1, 120):
            small += Fraction(i, i + 7) * Fraction(3, i + 1)
        for a, b in zip(_BIG, _BIG[1:]):
            big += a * b
        best = min(best, time.perf_counter() - t)
    return best


def at_ref(seconds: float, *loops: float) -> float:
    """``seconds`` measured while the loop took the mean of ``loops``,
    scaled to the reference speed."""
    return seconds * REF_LOOP_S * len(loops) / sum(loops)
