"""A fixed slice of pure-Python work that gauges the machine's speed.

The benchmark runs on a shared host whose speed drifts by 10-25 % over
minutes, and CPU time drifts with wall time, so no clock removes the
drift.  ``run.py`` therefore interrupts the program every 10 ms of CPU
time to time this slice, and scales every time it reports by how fast
the slices ran inside it.

The slice uses only the standard library and never ``pvkit``, so a change
to the program cannot move it.  It does the kind of work ``pvkit`` spends
its time on: arithmetic on polynomials with ``Fraction`` coefficients
(products and a Euclidean gcd), plus small tuples and dicts.
"""

from __future__ import annotations

from fractions import Fraction
from time import thread_time

# about what one slice takes on a quiet 2-core host; it only sets the
# scale of the reported times, so that they read as seconds
NOMINAL_S = 0.0005


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        if c:
            shift = len(a) - len(b)
            for k, y in enumerate(b):
                a[shift + k] -= c * y
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _gcd(a, b):
    while b:
        a, b = b, _rem(a, b)
    return a


def _poly(coeffs):
    return [Fraction(n, d) for n, d in coeffs]


_G = _poly([(3, 2), (-1, 3), (5, 4), (1, 1)])
_A = _mul(_G, _poly([(-7, 3), (2, 5), (1, 2), (-4, 1), (1, 1)]))
_B = _mul(_G, _poly([(5, 7), (-3, 2), (2, 3), (1, 1)]))


def work() -> int:
    """The slice itself; returns a checksum so that nothing is skipped."""
    g = _gcd(_A, _B)
    table = {}
    for k in range(300):
        table[(k % 17, k)] = k * k
    order = sorted(table, key=lambda t: (t[0], -t[1]))
    return len(g) + order[0][1]


def time_slice() -> float:
    """CPU time of one slice."""
    start = thread_time()
    work()
    return thread_time() - start
