"""Machine-speed gauge: wall times rescaled to a reference speed.

On a machine whose cores are shared with other tenants, plain Python code
can run up to half again slower for tens of seconds at a time, and CPU time
drifts exactly as wall time does, so neither clock alone separates a slower
convec from a busier machine.  The gauge times a fixed pure-Python kernel
that shares no code with convec right before and after each timed
operation, at most every CHECK_EVERY_S seconds, and scales the operation's
wall time by REFERENCE_S / kernel time.  Operations longer than SEGMENT_S
are cut into segments, each rescaled by the kernel times around it.  A
change to convec moves the rescaled time exactly as it moves the wall time;
a change in the machine's speed moves the kernel too and largely cancels.

Both the raw and the rescaled seconds are kept, and run.py prints both.
"""

from __future__ import annotations

import signal
import statistics
import time

# about the kernel's median time on a 2.1 GHz x86-64 VM under CPython 3.11;
# any fixed value works, this one keeps rescaled times near raw ones
REFERENCE_S = 0.004
CHECK_EVERY_S = 0.25
SEGMENT_S = 0.5
_P = 65521
_N = 16
_A = (0x9E3779B97F4A7C15 << 704) | 0x5851F42D4C957F2D
_B = (0xD1B54A32D192ED03 << 704) | 0xABC98388FB8FAC03


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def kernel():
    """The two kinds of interpreter work convec does: elimination over small
    objects, as in decoding, and shift-xor loops on 768-bit integers, as in
    the large binary fields.  Either half alone tracked one of the two kinds
    of workload worse than the pair does."""
    _eliminate()
    _carryless()


def _eliminate():
    """Gauss-Jordan elimination of a fixed full-rank matrix mod 65521."""
    m = [[_Cell(pow(3, i * 131 + j * 17 + 1, _P) ^ (i * j)) for j in range(_N + 4)]
         for i in range(_N)]
    for c in range(_N):
        piv = next(i for i in range(c, _N) if m[i][c].v)
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c].v, -1, _P)
        m[c] = [_Cell(x.v * inv % _P) for x in m[c]]
        for i in range(_N):
            f = m[i][c].v
            if i != c and f:
                m[i] = [_Cell((a.v - f * b.v) % _P) for a, b in zip(m[i], m[c])]
    return m


def _carryless():
    """Four carry-less products of fixed 768-bit operands."""
    x = _A
    for _ in range(4):
        r, a, b = 0, x, _B
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        x = r >> 769 | 1 << 700
    return x


def kernel_seconds(reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Gauge:
    """Times operations in raw and in reference-speed seconds.

    With segmented=True an operation longer than SEGMENT_S is split by
    SIGALRM: the handler times the kernel between segments, outside the
    operation's clock, so a 20-second verification follows the machine's
    speed through the call instead of only at its ends.  Traced runs pass
    segmented=False, since kernel time inside a call would be charged to
    the spans open around it.
    """

    def __init__(self, segmented: bool = True):
        self.segmented = segmented
        self._factor = None
        self._at = 0.0
        self._start = self._seg_factor = self._raw = self._scaled = 0.0

    def factor(self) -> float:
        """REFERENCE_S over the kernel's current time, re-measured when stale."""
        now = time.perf_counter()
        if self._factor is None or now - self._at >= CHECK_EVERY_S:
            self._factor = REFERENCE_S / kernel_seconds()
            self._at = time.perf_counter()
        return self._factor

    def time(self, fn, *args):
        """(fn(*args), raw seconds, rescaled seconds)."""
        self._raw = self._scaled = 0.0
        self._seg_factor = self.factor()
        if self.segmented:
            previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        try:
            if self.segmented:
                signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)
            out = fn(*args)
        finally:
            if self.segmented:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self._close_segment()
        return out, self._raw, self._scaled

    def _close_segment(self):
        seg = time.perf_counter() - self._start
        after = self.factor()
        self._raw += seg
        self._scaled += seg * (self._seg_factor + after) / 2
        self._seg_factor = after

    def _tick(self, signum, frame):
        self._close_segment()
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

