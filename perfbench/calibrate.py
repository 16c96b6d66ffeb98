"""A fixed calibration loop that measures how fast the machine runs right now.

The host this benchmark was built on is shared: the same pass of the same
items takes up to 1.5 times longer in busy periods than in quiet ones, for
minutes at a time, which no statistic inside one run can remove.  So the
runner times this loop during every pass and scales the pass's item walls
by QUIET_S / (the loop's median time in that pass), turning them into
seconds on a quiet core.  The loop does the three kinds of work statcover's
hot paths do (exact Fraction tuple arithmetic, numpy index arithmetic and
big-integer bitmasks) and calls no statcover code, so a change to statcover
moves the scaled times by the same factor as the raw ones.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

QUIET_S = 0.025  # the loop's time on a quiet core of a 2-vCPU x86-64 VM, Python 3.11

_VALUES = tuple(Fraction(i % 7, 1 << (i % 5)) for i in range(2048))
_COORDS = np.stack(np.divmod(np.arange(2048, dtype=np.int64), 64), axis=1)
_MODS = np.array([32, 64], dtype=np.int64)
_WEIGHTS = np.array([64, 1], dtype=np.int64)


def _work() -> int:
    v = _VALUES
    for _ in range(3):
        v = tuple(a - b / 2 for a, b in zip(v, _VALUES))
    mask = 0
    for b in range(0, 2048, 16):
        idx = ((_COORDS + _COORDS[b]) % _MODS) @ _WEIGHTS
        buf = np.zeros(2048, dtype=bool)
        buf[idx[:300]] = True
        mask ^= int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")
    return mask.bit_count() + len(v)


def sample() -> float:
    """Seconds one calibration loop takes now, with the collector off so
    that the size of the benchmark's own heap does not leak into it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        gc.enable()
