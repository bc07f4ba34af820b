"""Machine-speed probe: rescales measured times to a fixed reference speed.

The benchmark shares a small machine whose speed drifts by up to a factor of
two over seconds to minutes, so raw wall times of the same code differ from
run to run by more than any useful regression bound.  While a timed section
runs, the probe interrupts it every ``INTERVAL_S`` seconds (SIGALRM) and times
a fixed pure-Python loop, the tick.  The tick's duration at reference speed
is ``REF_TICK_S``, so ``REF_TICK_S / tick`` is the machine's current speed
relative to the reference; with a median over the last three ticks it
rescales the time until the next tick.

Two clocks come out of one consistent reading:

* ``now``: ``perf_counter`` seconds minus the time spent inside ticks, the
  raw wall time of the program's own work;
* ``ref``: reference seconds, the same work timed at reference speed.
  ``REF_TICK_S`` is about the tick's duration on the 2-core x86-64 box the
  benchmark was written on when nothing else was using it, so there a
  reference second is close to an idle wall second.  It is a fixed constant:
  changing it rescales every reference time.

Python runs signal handlers between bytecodes of the main thread, so the
program is paused, not raced, while a tick runs.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.25
LOOPS = 30_000
REF_TICK_S = 0.004
_clock = time.perf_counter


def _kernel(loops: int) -> int:
    total, table = 0, {}
    for i in range(loops):
        total += i * i % 7
        table[i & 1023] = total
    return total


class SpeedProbe:
    """Start with start(), read with read() or ref(), end with stop()."""

    def __init__(self) -> None:
        self.ticks: list = []
        # (reference seconds at the last tick, its raw time, speed, paused
        # seconds): replaced as one tuple so a reader never sees a mix.
        self._state = (0.0, 0.0, 1.0, 0.0)

    def read(self) -> tuple:
        """(raw seconds, reference seconds) of the program's own work."""
        while True:
            t = _clock()
            ref, at, speed, paused = self._state
            raw = t - paused
            # A tick that ran between the two reads is retried, not mixed.
            if raw >= at:
                return raw, ref + (raw - at) * speed

    def ref(self) -> float:
        return self.read()[1]

    def paused(self) -> float:
        """Seconds spent inside ticks so far."""
        return self._state[3]

    def _tick(self, *_args) -> None:
        start = _clock()
        _kernel(LOOPS)
        took = _clock() - start
        ref, at, speed, paused = self._state
        raw = start - paused
        self.ticks.append(took)
        recent = statistics.median(self.ticks[-3:])
        self._state = (ref + (raw - at) * speed, raw, REF_TICK_S / recent, paused + took)

    def start(self) -> None:
        self._state = (0.0, _clock(), 1.0, 0.0)
        for _ in range(3):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
