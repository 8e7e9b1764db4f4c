"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host, where other tenants slow
a core by up to 2x in phases of a few seconds.  Wall time of the same work
then drifts by more than the bounds allow.  This module tracks that drift
while the work runs and takes it out of every timing.

``Sampler`` interrupts the process every ``INTERVAL_S`` seconds (SIGALRM
from a real-time interval timer; the handler runs in the main thread
between bytecodes) and times ``probe``, a fixed pure-Python loop of
Fraction and dict arithmetic, like hga's own inner loops.  After the run,
``Sampler.timeline().scaled(a, b)`` turns the wall interval [a, b] into *reference seconds*:
its wall time minus the probes that ran inside it, times
``PROBE_REF_S`` / (probe time at that moment).  So a reference second is
the time the work would take on a host where one probe takes 1 ms.  Work
that runs at the probe's pace in a slow phase and a fast phase gets the
same reference time in both.

The probe time at a moment is the median of the 5 probes around it; an
interval spanning several probes uses the mean probe speed over them, and
a shorter one the speed of the nearest probe.  The probes cost about 4% of
the run and are taken out of the interval they ran in.
"""

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
PROBE_REF_S = 1e-3
N_PROBE = 200
_SMOOTH = 5
_STEP = Fraction(1, 3)


def probe():
    """Fixed work of about 1 ms on CPython 3.11: Fraction products and sums
    into a dict, then a sort of its keys."""
    acc = {}
    total = Fraction(0)
    for i in range(N_PROBE):
        v = Fraction(i, 7) * _STEP
        acc[i % 61] = acc.get(i % 61, 0) + v
        total += v
    return sorted(acc), total


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` seconds while it runs."""

    def __init__(self):
        self.samples = []       # (perf_counter() at probe start, probe time)

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        a = time.perf_counter()
        probe()
        b = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((a, b - a))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        # ignore, not default: a signal still pending would end the process
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def timeline(self):
        """The probes taken so far, to scale intervals that ended before."""
        return Timeline(list(self.samples))


class Timeline:
    """Probe times over a run, and the reference time of wall intervals."""

    def __init__(self, samples):
        if not samples:
            raise RuntimeError("no host-speed probe ran")
        self.starts = [a for a, _ in samples]
        durs = [d for _, d in samples]
        half = _SMOOTH // 2
        self.speed = []
        for k in range(len(durs)):
            window = sorted(durs[max(0, k - half):k + half + 1])
            self.speed.append(1.0 / window[len(window) // 2])
        self.cum_dur, self.cum_speed = [0.0], [0.0]
        for d, v in zip(durs, self.speed):
            self.cum_dur.append(self.cum_dur[-1] + d)
            self.cum_speed.append(self.cum_speed[-1] + v)
        self.probe_ms = 1e3 * sorted(durs)[len(durs) // 2]

    def scaled(self, a, b):
        """Reference seconds of the work done between perf_counter() stamps
        ``a`` and ``b``, less the probes that ran between them."""
        starts = self.starts
        i = bisect.bisect_left(starts, a)
        j = bisect.bisect_left(starts, b)
        net = (b - a) - (self.cum_dur[j] - self.cum_dur[i])
        if j > i:
            inv = (self.cum_speed[j] - self.cum_speed[i]) / (j - i)
        else:
            mid = 0.5 * (a + b)
            k = min(bisect.bisect_left(starts, mid), len(starts) - 1)
            if k > 0 and mid - starts[k - 1] < starts[k] - mid:
                k -= 1
            inv = self.speed[k]
        return net * inv * PROBE_REF_S
