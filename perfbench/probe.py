"""How fast this machine runs fixed Python code, sampled while the work runs.

The two-CPU reference box changes speed by up to 1.8x, for seconds to
minutes at a time, with no change in the work: the same sample took 2.6 s
in one process and 4.5 s in the next.  While the timed calls run, an
interval timer interrupts them every 20 ms to time a fixed snippet of
pure-Python work.  A verdict time multiplied by the mean of 1 / snippet
time counts how many snippets the machine could have run instead: the
verdict in reference units, which stays put when the whole machine speeds
up or slows down, and moves when tvcat does more or less work.
"""

import signal
import time

INTERVAL_S = 0.02


def snippet():
    """Fixed work in the style of tvcat's inner loops, about 0.2 ms."""
    values = (0, 1, 2, 1, 0, 2, 1)
    acc = 0
    for r in range(12):
        row = tuple(max(min(x, y) for y in values) for x in values)
        acc += len({row: r})
    return acc


class SpeedProbe:
    """Interval-timer samples of the snippet's duration.

    `spent` is the time spent in the probe itself, which timed regions
    subtract from their own duration.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        snippet()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def reference_units(self, seconds):
        """seconds of work, counted in snippet durations of the same moments."""
        return seconds * sum(1.0 / s for s in self.samples) / len(self.samples)
