"""Host speed, sampled during a timed pass, for speed-normalized times.

On a shared host the speed of a single CPU-bound Python process drifts:
a fixed loop timed back to back ran anywhere between 38 and 60 ms in
5-second blocks on the 2-core host this benchmark was built on, and the
mean over 36-second windows still spread 10-18% (IQR over median).  The
program slows down with the host, so its raw pass time carries that
spread.

:class:`SpeedProbe` times a fixed reference loop from a ``SIGALRM``
handler every ``INTERVAL_S`` while a pass runs.  The samples land
uniformly in wall time, so their mean is the host's slowness averaged
the same way the pass's own time is.  A pass time divided by that mean,
times ``NOMINAL_S``, is the pass time on a host that runs the loop in
``NOMINAL_S``.  Interleaved like this, the ratio of a fixed ``whp_ba``
run to the loop spread about 5% where the run's raw time spread 18-25%.

Each sample's start and end are kept, so the runner can take the
probe's own time out of a timed section (``spent``).  A set-up sample
alone may be shorter than the interval, so the runner normalizes each
by the loops it times right before and after it instead.  Python runs
signal handlers in the main thread between bytecodes, so the program's
state is never touched; a long call into C only delays a sample.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Sequence

INTERVAL_S = 0.3
# Reference-loop length, and its time in seconds on the quiet 2-core
# x86-64 build host (CPython 3.11): the speed normalized times refer to.
LOOP_ITERATIONS = 40_000
NOMINAL_S = 0.0063


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic and scattered dict stores."""
    total = 0
    table: dict[int, int] = {}
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
        table[(i * 40503) & 0xFFFF] = total
    return total


def reference_sample() -> tuple[float, float]:
    """Run the reference loop once; its start and end on ``perf_counter``."""
    start = time.perf_counter()
    reference_loop()
    return start, time.perf_counter()


def factor(samples: Sequence[tuple[float, float]]) -> float:
    """``NOMINAL_S`` over the mean sample: multiply a time by it."""
    return NOMINAL_S * len(samples) / sum(end - start for start, end in samples)


class SpeedProbe:
    """Reference-loop samples taken every ``INTERVAL_S`` while installed."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum: int, frame: Any) -> None:
        self.samples.append(reference_sample())

    def __enter__(self) -> "SpeedProbe":
        # One sample up front, so that a pass shorter than the interval
        # still has one.
        self.samples.append(reference_sample())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def within(self, start: float, end: float) -> list[tuple[float, float]]:
        """The samples taken between two ``perf_counter`` readings.

        A handler runs to completion between two bytecodes, so a sample
        never straddles a reading.
        """
        return [(s, e) for s, e in self.samples if start <= s and e <= end]

    def spent(self, start: float, end: float) -> float:
        """Seconds the probe itself took between two readings."""
        return sum(e - s for s, e in self.within(start, end))
