"""Machine-speed probe, sampled from a separate process while the work runs.

On shared hardware the speed of the machine swings by tens of percent
within seconds, far more than the changes the benchmark has to resolve.
``run.py`` runs a ``SpeedProbe`` thread while its child measures: every
``INTERVAL_S`` the thread times a fixed, tiny Python computation that does
not involve the library. The probe lives in ``run.py``'s process, which
does nothing else, so its timings reflect the machine and not the state
the measured program leaves behind in its own interpreter or caches. The
mean probe time over a stretch of work, against ``NOMINAL_S``, says how
fast the machine was during that stretch; ``perf_counter`` is the same
monotonic clock in both processes. A scaled time is the time the work
would take on a machine that runs the probe in exactly ``NOMINAL_S``.

Changing the probe, its interval or ``NOMINAL_S`` changes every reported
time: keep this file frozen, and re-measure the baseline in the same
change if it must ever change.
"""

from __future__ import annotations

import bisect
import math
import threading
import time

INTERVAL_S = 0.005
# The probe's usual mean time on the machine the baseline was measured on
# (2-vCPU Xeon VM, Python 3.11, the probe sharing its CPU with a child), so
# that scaled times read as times at that machine's usual speed. Only the
# scale of the reported numbers depends on it.
NOMINAL_S = 90e-6
# Fewest probe samples behind a speed factor.
MIN_SAMPLES = 4


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _probe() -> float:
    # Object allocation, attribute access, dict building and lookup and a
    # little float math: the interpreter work the library's Python layers
    # do. Of the probes tried, this one followed the speed of the measured
    # passes most closely.
    pairs = [_Pair(i, 0.5 * i) for i in range(150)]
    table = {pair.key: pair for pair in pairs}
    acc = 0.0
    for key in range(0, 150, 3):
        acc += table[key].value
    return acc


class SpeedProbe:
    """A background thread that times ``_probe`` every ``INTERVAL_S``."""

    def __init__(self):
        self._starts = []
        self._times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            _probe()
            self._times.append(time.perf_counter() - start)
            self._starts.append(start)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, begin: float, end: float) -> float:
        """NOMINAL_S over the mean probe time between two ``perf_counter`` readings.

        Below 1 when the machine was slow. A stretch with fewer than
        MIN_SAMPLES probe samples is widened, one sample on each side at a
        time, to the samples nearest to it.
        """
        count = len(self._starts)
        if not count:
            raise RuntimeError("the speed probe has taken no sample")
        lo = bisect.bisect_left(self._starts, begin, 0, count)
        hi = bisect.bisect_right(self._starts, end, 0, count)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < count):
            lo, hi = max(lo - 1, 0), min(hi + 1, count)
        times = self._times[lo:hi]
        return NOMINAL_S * len(times) / math.fsum(times)
