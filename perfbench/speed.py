"""Rescaling of measured times to a fixed reference machine speed.

On a shared 2-core x86-64 box, identical work ran up to 1.8x slower for
stretches of seconds to minutes, in user time as well as wall time.
Medians within a 25 s run cannot remove a slow stretch that lasts the whole
run, so every timed span is rescaled by the speed of a fixed calibration
kernel measured just before and just after it:

    reference seconds = wall seconds * REFERENCE_S / mean(calibration before, after)

The kernel mixes the kinds of work crio does (interpreted Python with dicts
and JSON, many small numpy calls, streaming over a 1 MiB array) and does not
touch crio, so a change in crio moves the rescaled times exactly as it moves
wall times.  REFERENCE_S is the kernel's time on that box when it ran fast,
which makes reference seconds read close to wall seconds there.
"""
from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_S = 300e-6

_BIG = np.ones(2**16, dtype=complex)
_GATE = np.eye(2, dtype=complex)
_VECS = np.ones((8, 2), dtype=complex)


def _kernel() -> int:
    table: dict = {}
    for i in range(600):
        key = i % 61
        table[key] = table.get(key, 0) + i
    text = json.dumps(table)
    for _ in range(60):
        small = _VECS @ _GATE.T
    big = _BIG * 1.0000001
    big += _BIG
    return len(text) + small.shape[0] + big.shape[0]


def calibrate() -> float:
    """Seconds of one calibration kernel, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class ReferenceClock:
    """Rescales consecutive timed spans; calibrates once between any two."""

    def __init__(self):
        calibrate()  # first calls pay one-off costs
        self._last = calibrate()

    def rescale(self, wall_seconds: float) -> float:
        """Reference seconds of a span that ended just now and began after the last call."""
        now = calibrate()
        factor = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        return wall_seconds * factor
