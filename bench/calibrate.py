"""Machine-speed calibration for the benchmark's CPU times.

The host is a shared virtual machine whose cores run up to about 1.8 times
slower, in CPU time too, while other tenants load them; the slow spells
come and go within seconds and can last minutes.  The guest cannot see
them, so a run that falls inside one reads slow from start to end.

``calibrate`` times a fixed stretch of pure-Python work in two halves:
small-integer arithmetic, and ``Fraction`` arithmetic like the library's
own.  A loaded host slows the library more than the first half and less
than the second.  Over 7 minutes of samples, the library's time in 15 s
windows followed the sum of the two with a log-log slope of 1.00 to 1.08
on the three workloads, against 1.19 to 1.21 for the integer half alone
and 0.87 to 0.97 for the ``Fraction`` half alone.  The collector is off while
it runs, so nothing the library leaves behind can change its cost.
The benchmark times it right before and right after each library call,
and ``SpeedMeter`` times it again every 10 ms of CPU time inside the
call.  The call's CPU time is scaled by ``REFERENCE_S`` over the mean of
those calibration times.  A scaled time is therefore the time the call
would take when the calibration takes ``REFERENCE_S``: a change to the
library moves the call's time and leaves the calibration's alone, while
a slow spell stretches both alike.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import thread_time

# Iterations of the two loops: together 0.3 to 0.7 ms of CPU time.
INT_STEPS = 1500
FRACTION_STEPS = 60

# CPU time of ``calibrate()`` on an uncontended core of the host the
# benchmark was tuned on (2-vCPU Intel Xeon VM, Python 3.11.7).  Any fixed
# value would do; this one makes a scaled time read as the CPU time on
# that core when nothing else loads it.
REFERENCE_S = 0.000300


def _step(x, i):
    return (x * 31 + i) % 1000003


def calibrate(clock) -> float:
    """``clock`` time of a fixed stretch of integer and Fraction work."""
    enabled = gc.isenabled()
    gc.disable()
    start = clock()
    x = 0
    for i in range(INT_STEPS):
        x = _step(x, i)
    total = Fraction(0)
    for i in range(1, FRACTION_STEPS + 1):
        total += Fraction(i % 7 + 1, i % 11 + 2)
    elapsed = clock() - start
    if enabled:
        gc.enable()
    return elapsed


class SpeedMeter:
    """Calibrates every ``INTERVAL_S`` of CPU time while it is armed.

    A library call can outlast a change of the machine's speed (a
    ``verify_metric`` call takes half a second), which the calibrations
    before and after it would miss.  Inside ``with meter:`` a profiling
    timer (``SIGPROF``, which counts the process's CPU time) fires every
    ``INTERVAL_S``.  While the meter is armed, the handler runs
    ``calibrate`` and adds the CPU time the handler took to ``stolen``,
    which the caller takes off the call's time.  Python runs the handler
    between bytecodes of the main thread, so the library's state is never
    touched.
    """

    INTERVAL_S = 0.01

    def __init__(self):
        self.armed = False
        self.samples = []
        self.stolen = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.armed = False

    def arm(self):
        """Start sampling for one call."""
        self.samples, self.stolen, self.armed = [], 0.0, True

    def disarm(self):
        """Stop sampling; the call's calibration times and stolen CPU time."""
        self.armed = False
        return self.samples, self.stolen

    def _handler(self, signum, frame):
        if not self.armed:
            return
        self.armed = False
        start = thread_time()
        self.samples.append(calibrate(thread_time))
        self.stolen += thread_time() - start
        self.armed = True
