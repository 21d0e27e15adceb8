"""Machine-speed calibration of job times.

The benchmark runs on small shared hosts whose speed drifts, by up to
1.8x over tens of seconds, for every process on them alike. Raw wall
times then measure the host as much as the program. So a fixed
pure-Python reference block, which uses nothing of netcode, is timed
between the jobs, and every job time is scaled by ``REF_S`` over the
median reference time around it. A scaled time reads as seconds on a
host that runs the reference block in ``REF_S`` seconds.

The block does the kind of work the program does: small objects with
arithmetic operators backed by log/exp tables, row elimination modulo a
prime on lists of lists, dict updates, and lookups at random places in a
list too large for the caches, like the 2^16-entry tables of the larger
fields. The last part makes the block slow down with the program when
other processes on the host compete for the caches as well as the cores.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_S = 0.004  # nominal time of one reference block, in seconds
EVERY_S = 0.1  # time a block before a job once this long has passed since the last
WINDOW_S = 1.0  # blocks this close to a job's start or end set its scale

_P = 251
_EXP = [0] * (2 * _P)
_LOG = [0] * _P
_x = 1
for _i in range(_P - 1):
    _EXP[_i] = _EXP[_i + _P - 1] = _x
    _LOG[_x] = _i
    _x = _x * 6 % _P  # 6 generates the units mod 251


_BIG = [(i * 2654435761) & 0xFFFF for i in range(1 << 18)]  # about 9 MB


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def __add__(self, other):
        return _Elem((self.v + other.v) % _P)

    def __mul__(self, other):
        if not self.v or not other.v:
            return _Elem(0)
        return _Elem(_EXP[_LOG[self.v] + _LOG[other.v]])


def _block() -> int:
    acc = _Elem(1)
    xs = [_Elem(1 + i % (_P - 1)) for i in range(2000)]
    for a, b in zip(xs, xs[1:]):
        acc = acc * a + b
    n = 24
    m = [[(r * 31 + c * 17 + r * c) % 65521 for c in range(n)] for r in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], 65519, 65521)
        row = [x * inv % 65521 for x in m[c]]
        m[c] = row
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % 65521 for x, y in zip(m[r], row)]
    d: dict = {}
    for i in range(6000):
        k = i * 7 % 509
        d[k] = d.get(k, 0) + i
    big, idx, mix = _BIG, 1, 0
    for _ in range(6000):
        idx = (idx * 1103515245 + 12345) & 0x3FFFF
        mix ^= big[idx]
    return acc.v + m[0][0] + len(d) + mix


def reference() -> float:
    """Seconds one reference block takes now."""
    t = time.perf_counter()
    _block()
    return time.perf_counter() - t


class Clock:
    """Reference blocks timed between jobs, and the scale they give."""

    def __init__(self):
        self.at: list[float] = []  # midpoint of each block, in perf_counter time
        self.took: list[float] = []

    def tick(self) -> None:
        """Time a block if the last one is more than ``EVERY_S`` old."""
        now = time.perf_counter()
        if not self.at or now - self.at[-1] > EVERY_S:
            took = reference()
            self.at.append(now + took / 2)
            self.took.append(took)

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the median block time near [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.took[lo:hi]
        if len(near) < 3:  # too few blocks nearby: the three closest
            mid = (start + end) / 2
            near = [self.took[i] for i in sorted(
                range(len(self.at)), key=lambda i: abs(self.at[i] - mid))[:3]]
        return REF_S / statistics.median(near)

