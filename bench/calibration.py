"""A fixed reference kernel that measures how fast the host is right now.

On a shared host the speed of a core drifts by tens of percent over
minutes, as neighbours come and go, so the wall time of a pass moves
with the host as much as with the program.  ``Calibration`` runs a fixed
piece of work made of the kinds of work the program does, in roughly
equal parts: a scalar Python recurrence, per-call numpy overhead on
scalars, elementwise complex numpy, banded LAPACK solves, mpmath complex
arithmetic and float formatting.  Host slowdowns hit these kinds
unequally (native LAPACK least, per-call overhead most), so the mix
tracks the program better than any one of them.  A pass's time divided
by the kernel's time is the pass's length in kernel units: host drift
slower than a few commands cancels out of that ratio, while a change to
invosc moves the numerator only.  The kernel shares no code with invosc
and its inputs come from a fixed seed, never from ``--seed``.
"""

from __future__ import annotations

import math
import time

import mpmath
import numpy as np
from scipy.linalg import solve_banded


def _recurrence():
    a, b = 0.0, 1.0
    for i in range(1, 400_000):
        a, b = b, (a + b * 1.0000001) / (1.0 + 1.0 / i)
        if b > 1e10:
            a, b = a * 1e-10, b * 1e-10
    return b


def _series(x, terms):
    t, s = 1.0, 0.0
    for k in range(1, terms):
        t *= -x * x / (4.0 * k * (k + 0.5))
        s += t
        if abs(t) < 1e-17 * abs(s):
            break
    return s


def _scalar_calls():
    s = 0.0
    for i in range(6000):
        x = np.asarray(0.01 + i * 0.001, dtype=float)
        xf = np.atleast_1d(x).astype(complex).ravel()
        if not np.all(np.isfinite(xf)):
            raise ValueError("non-finite calibration input")
        s += _series(float(xf[0].real), 60) + math.sin(float(x))
    return s


def _mp_series():
    with mpmath.workdps(30):
        s = mpmath.mpc(0)
        for i in range(15):
            z = mpmath.mpc(12 + i * 0.01, 3.0)
            p = mpmath.mpc(1)
            for j in range(40):
                p *= -z * z / 4 / ((j + 1) * (j + 1.3))
                s += p * mpmath.rgamma(j + 2.3)
        return complex(s)


class Calibration:
    """``Calibration()()`` runs the kernel once and returns its wall time."""

    def __init__(self):
        rng = np.random.default_rng(20030117)
        self._z = rng.standard_normal(65536) + 1j * rng.standard_normal(65536)
        self._ab = (rng.standard_normal((3, 2048))
                    + 1j * rng.standard_normal((3, 2048)))
        self._ab[1] += 10.0                 # diagonally dominant
        self._rhs = rng.standard_normal(2048) + 0j
        self._floats = rng.standard_normal(15000)
        self.check = None                   # result of the first run

    def _work(self):
        s = 0.0
        for _ in range(16):
            s += float(np.abs(np.exp(self._z * 0.01) * self._z).sum())
        x = self._rhs
        for _ in range(300):
            x = solve_banded((1, 1), self._ab, x)
            x /= np.abs(x).max()
        text = "\n".join(f"{v:.10e},{2 * v:.10e}" for v in self._floats)
        return (_recurrence(), _scalar_calls(), s, complex(x[0]),
                _mp_series(), len(text))

    def __call__(self):
        t0 = time.perf_counter()
        result = self._work()
        elapsed = time.perf_counter() - t0
        if self.check is None:
            self.check = result
        elif result != self.check:
            raise RuntimeError("calibration kernel gave a different result")
        return elapsed
