"""A clock in reference seconds: wall time scaled by the host's momentary speed.

On a shared host the same single-threaded work can take 1.5-2x longer from
one second to the next while neighbours compete for the core, which swamps
any change a benchmark is meant to see.  This clock runs a fixed
pure-Python calibration kernel every INTERVAL_S of wall time (from a
SIGALRM handler, so it also samples inside long opaque calls such as one
`cli.main` job) and advances by

    elapsed wall time * REFERENCE_S / (median of the last 3 kernel times)

so a slow patch of wall time counts for less.  Time spent in the kernel
itself is excluded.  When the host is quiet and steady the clock runs at a
constant rate; REFERENCE_S is set near the kernel's time on an idle core, so
one reference second is then close to one wall second.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
REFERENCE_S = 180e-6
_WINDOW = 3


def _kernel() -> int:
    """Fixed integer and dict work, about 0.2 ms on an idle 2020s server core."""
    h = 0x9E3779B97F4A7C15
    acc: dict[int, int] = {}
    for _ in range(600):
        h = (h * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc[h & 255] = acc.get(h & 255, 0) + (h >> 60)
    return len(acc)


class SpeedClock:
    """Reference-seconds clock; one per process, driven by SIGALRM."""

    def __init__(self) -> None:
        self._norm = 0.0
        self._last = time.perf_counter()
        self._factor = 1.0
        self._recent: list[float] = []
        self._busy = False
        self.samples = 0
        self.kernel_s: list[float] = []

    def start(self) -> None:
        for _ in range(_WINDOW):
            self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum: int, frame: object) -> None:
        if not self._busy:
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        begin = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self._norm += (begin - self._last) * self._factor
        self._last = end
        self._recent = (self._recent + [end - begin])[-_WINDOW:]
        self._factor = REFERENCE_S / sorted(self._recent)[len(self._recent) // 2]
        self.kernel_s.append(end - begin)
        self.samples += 1
        self._busy = False

    def now(self) -> float:
        """Reference seconds since construction."""
        while True:
            seen = self.samples
            value = self._norm + (time.perf_counter() - self._last) * self._factor
            if seen == self.samples:  # no sample landed mid-read
                return value

    def now_ns(self) -> int:
        return int(self.now() * 1e9)
