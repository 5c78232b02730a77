"""Host speed, measured while the program runs, to steady the timings.

The benchmark runs on a few cores of a shared host, whose speed changes by
up to 1.8x within seconds as other tenants load it; both wall and CPU time
of the same invocation stretch alike.  A fixed probe (small numpy array
operations and a pure-Python loop, the mix the program itself spends its
time in) measures that speed: `Probe` runs it from a SIGALRM handler every
INTERVAL_S of an invocation, so the samples cover the invocation's own
interval.  The work an invocation does is its speed integrated over its
wall time; samples taken at even steps of wall time estimate the mean
speed, REF_PROBE_S / probe time, so the slowdown is the harmonic mean of
the probe times over REF_PROBE_S.  Dividing a time by it gives the time in
seconds on a host where one probe takes REF_PROBE_S.  Probes run between
invocations rather than during them track the speed too loosely to correct
it.

The probe uses numpy and Python only, never curveflow, so a change to the
program moves the normalised times exactly as it moves the raw ones.
"""

import signal
import statistics
import time

import numpy as np

# A fixed scale, near the fastest probe times on a 2-vCPU cloud VM, so that
# normalised times read close to the raw times of a quiet host.
REF_PROBE_S = 1.2e-3
INTERVAL_S = 0.025

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((256, 3))
_T = _X / np.linalg.norm(_X, axis=1)[:, None]


def _probe_work():
    acc = 0.0
    for _ in range(3):
        y = _T
        for _ in range(6):
            yp = (np.roll(y, -1, axis=0) - np.roll(y, 1, axis=0)) * 0.5
            y = np.cross(_T, yp)
            f = np.sum(y * _T, axis=1)
            y = y - 0.5 * f[:, None] * _T
        acc += float(np.sum(y * y))
        q = (1.0, 0.0, 0.0, 0.0)
        for i in range(200):
            a, b, c, d = q
            q = (a * 0.999 - b * 0.01, a * 0.01 + b * 0.999, c, d + 1e-9 * i)
        acc += q[0]
    return acc


def probe():
    """One probe: (wall seconds, CPU seconds)."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    _probe_work()
    return time.perf_counter() - t0, time.process_time() - c0


class Probe:
    """Context manager that probes every INTERVAL_S of wall time.

    After the block, `wall_s` and `cpu_s` hold the time the probes took, to
    be subtracted from the block's own times, and `slowdown()` gives the
    harmonic means of the wall and CPU probe times over REF_PROBE_S.
    """

    def __init__(self):
        self.samples = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _handler(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.wall_s = sum(w for w, _ in self.samples)
        self.cpu_s = sum(c for _, c in self.samples)
        if not self.samples:
            # a block shorter than INTERVAL_S: probe once after it
            self.samples.append(probe())
        return False

    def slowdown(self):
        walls, cpus = zip(*self.samples)
        return (statistics.harmonic_mean(walls) / REF_PROBE_S,
                statistics.harmonic_mean(cpus) / REF_PROBE_S)
