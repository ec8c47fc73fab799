"""Reference work that tracks how fast the machine runs right now.

The benchmark shares a few hardware threads with other work, and the
speed of the same code swings by up to 2x from one second to the next.
A probe is a fixed piece of stdlib-only work (never ramsum, so a change
to ramsum cannot move it), timed between evaluations.  A time measured
between two probes is scaled by the probe's reference time over the mean
of those two probes, so it reads what it would at the reference speed.

Code slows by different amounts under the same contention: interpreter
loops and big-integer arithmetic respond differently.  So there are two
kinds, and each workload uses the one that resembles its own work.
"""

import time
from fractions import Fraction

_A, _B = 3**20000, 7**19000
_BIG_DENOMINATOR = 3**25000 + 2


def _horner_mod(coeffs, x, m):
    v = 0
    for c in coeffs:
        v = (v * x + c) % m
    return v


def _interpreter():
    """Small Fraction sums, a function-call-heavy residue scan, one big product."""
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k)
    roots = 0
    for x in range(4000):
        if _horner_mod((1, 3, -1), x, 16384) == 0:
            roots += 1
    return total, roots, _A * _B


def _big_fraction():
    """Fraction sums whose denominators have about 40000 bits."""
    total = Fraction(1, _BIG_DENOMINATOR)
    for k in range(7, 97):
        total += Fraction(1, k)
    return total


# kind -> (work, its seconds at the reference speed: close to its fastest
# on the baseline machine, see README.md)
KINDS = {
    "interpreter": (_interpreter, 0.0027),
    "big-fraction": (_big_fraction, 0.0028),
}


class Probe:
    def __init__(self, kind="interpreter"):
        self.work, self.ref_s = KINDS[kind]

    def time(self):
        """Seconds the reference work takes now."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scale(self, before, after):
        """Factor from seconds measured between two probes to reference-speed seconds."""
        return self.ref_s * 2 / (before + after)
