"""Speed-normalized time: wall time rescaled to a nominal CPU speed.

The CPU speed a process gets on a shared machine can change by half within
a second (a fixed loop timed every 1.5 s on a 2-CPU VM took 0.22-0.43 s),
so raw wall times of identical work spread by 8-21 % (interquartile range
over median, ten runs per workload) from run to run.
SpeedProbe samples the speed on the measured thread itself: every PERIOD_S
a SIGALRM handler times LOOPS iterations of a fixed pure-Python loop.  Each
wall interval between samples is scaled by NOMINAL_S / (that sample's loop
time), so a second spent while the loop ran at its nominal speed counts as
one second and a second at half speed counts as half a second.  The probe's
own time is left out.  `now()` reads the normalized clock.

The probe costs about 0.3 % of the run.  Raw wall times are reported next to
the normalized ones.
"""
from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.005
LOOPS = 300
NOMINAL_S = 12.5e-6  # the loop's time when the CPU is not contended


class SpeedProbe:
    def __init__(self) -> None:
        # (normalized seconds at `last`, perf_counter at the end of the last
        # sample, scale of the last sample): one tuple, so that `now` never
        # sees a half-updated state when the handler runs between bytecodes
        self.state = (0.0, perf_counter(), 1.0)

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        x = 0
        for k in range(LOOPS):
            x += k * k
        end = perf_counter()
        norm, last, _scale = self.state
        scale = NOMINAL_S / (end - start)
        self.state = (norm + (start - last) * scale, end, scale)

    def start(self) -> None:
        self.state = (0.0, perf_counter(), 1.0)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def now(self) -> float:
        """Normalized seconds since `start`."""
        norm, last, scale = self.state
        return norm + (perf_counter() - last) * scale
