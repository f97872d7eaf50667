"""Wall-clock times rescaled to a fixed reference speed of the machine.

On a shared host the speed of a core changes by up to half for seconds
to minutes at a time (frequency scaling, neighbours on the same core),
and a whole run can fall into a slow spell.  Raw pass times then spread
by 20-40 % between runs of the same code.  So every timed stretch of
about SEGMENT_S seconds is bracketed by a fixed pure-Python loop, the
calibration, and its times are multiplied by REF_S over the mean of the
two calibrations around it.  The result reads as seconds at the speed
at which the calibration takes REF_S; a change to the program moves it
exactly as it moves wall time, since the calibration does not run any
program code.  Raw times are reported next to the rescaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: One calibration does a little of each kind of work the program does:
#: interpreter arithmetic, numpy scalar indexing in a Python loop, tuple
#: allocation, float formatting and string joins (as in canonical JSON
#: output), and a BLAS matrix product.  The mix tracks the speed of each
#: kind of program work better than any one of them alone.
_FLOATS = [(i * 0.6180339887498949) % 1.0 for i in range(600)]
_MATRIX = np.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)
#: Time of one calibration at the reference speed.  On a shared 2.1 GHz
#: x86-64 core with CPython 3.11 and one BLAS thread it takes 2.0-3.4 ms.
REF_S = 0.0025
#: Work timed between two calibrations.
SEGMENT_S = 0.1


def spin() -> float:
    total = 0
    for i in range(8000):
        total += i * i
    hits = sum(1 for i in range(2000) if _MATRIX[i % 200, i % 7] <= 0.5)
    pairs = [(i, j) for i in range(100) for j in range(i + 1, 100)]
    text = ",".join([format(x, ".17g") for x in _FLOATS])
    return total + hits + len(pairs) + len(text) + float((_MATRIX @ _MATRIX)[0, 0])


def calibrate() -> float:
    """Seconds one calibration loop takes now."""
    start = time.perf_counter()
    spin()
    return time.perf_counter() - start


class ScaledTimes:
    """Collects the wall times of consecutive operations and rescales
    each segment of them by the calibrations taken around it."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._before = calibrate()

    def add(self, elapsed: float) -> None:
        self._pending.append(elapsed)
        if sum(self._pending) >= SEGMENT_S:
            self._flush()

    def _flush(self) -> None:
        after = calibrate()
        factor = REF_S / (0.5 * (self._before + after))
        self.raw += self._pending
        self.scaled += [t * factor for t in self._pending]
        self._pending = []
        self._before = after

    def finish(self) -> list[float]:
        """The rescaled times, in the order they were added."""
        if self._pending:
            self._flush()
        return self.scaled
