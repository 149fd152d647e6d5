"""Machine-speed gauge: a small fixed numpy/scipy job, run at a steady rate
while a run is timed, so that the run's CPU times can be put on one
scale.

On a shared host the speed of a virtual CPU drifts (clock boost, a busy
neighbour on the same core or cache), over seconds and over minutes, by
more than the bound a timing metric may move.  Such a drift slows the
gauge job and the program alike, so the program's CPU time divided by the
mean CPU time of the gauge jobs run in between does not drift with the
machine.  The jobs run from an interval-timer signal, so they sample the
machine inside long operations too, without hooks in the program; their
own CPU time is left out of the program's.  The timer counts wall time: a
timer on process CPU time would make the kernel count that time in whole
clock ticks.  The gauge job uses only numpy and scipy, never the program,
so a change to the program moves the program's times and not the
gauge's.

The job is what the solvers' iterations are made of: sparse matrix-vector
products with a banded matrix and its transpose, vector updates and a
norm, each a separate numpy call, so interpreter overhead is in it too.
Its data (about 0.6 MB) fits in one core's L2 cache.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse

ROWS = 4000
NONZEROS_PER_ROW = 12
BAND = 400
ROUNDS = 10
SEED = 20180419
INTERVAL_S = 0.05   # seconds between gauge jobs
MIN_JOBS = 3        # jobs that correct one timed step, at least
# Mean CPU seconds of one job on the machine the benchmark was tuned on
# (an Intel Xeon Sapphire Rapids virtual CPU at 2.1 GHz, numpy 2.4, scipy
# 1.17, one BLAS thread).  It only sets the scale: a corrected time reads
# in seconds of that machine at its usual speed.
NOMINAL_S = 0.0022


class Gauge:
    """While entered, runs the gauge job every INTERVAL_S seconds and
    records its CPU seconds in ``jobs``."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        rows = np.repeat(np.arange(ROWS), NONZEROS_PER_ROW)
        cols = (rows + rng.integers(-BAND, BAND + 1, size=rows.size)) % ROWS
        vals = rng.standard_normal(rows.size)
        self.matrix = scipy.sparse.csr_array((vals, (rows, cols)),
                                             shape=(ROWS, ROWS))
        self.transpose = self.matrix.T.tocsr()
        self.start = rng.standard_normal(ROWS)
        self.jobs = []
        self.spent = 0.0        # CPU seconds spent in the signal handler
        self._busy = False
        self._previous = None
        for _ in range(5):      # warm caches and the allocator
            self._job()

    def _job(self):
        y = self.start
        for _ in range(ROUNDS):
            z = self.matrix @ y
            y = self.transpose @ z
            y = y / np.linalg.norm(y) + 1e-3 * self.start
        return y

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.process_time()
            self._job()
            self.jobs.append(time.process_time() - t0)
            self.spent += time.process_time() - t0
        finally:
            self._busy = False

    def since(self, first, count=MIN_JOBS):
        """The jobs from index ``first`` on, after running more now if
        fewer than ``count`` ran since: a timed step shorter than the
        timer's interval still gets jobs of its own."""
        while len(self.jobs) - first < count:
            self._sample(None, None)
        return self.jobs[first:]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def cpu(self):
        """Process CPU seconds so far, less the gauge's own."""
        while True:
            spent = self.spent
            now = time.process_time()
            if spent == self.spent:     # no job ran in between
                return now - spent

    def correct(self, cpu_s, first):
        """cpu_s of program work done since job index ``first``, on the
        nominal scale: at the speed the mean of the jobs since shows."""
        return cpu_s * NOMINAL_S / statistics.fmean(self.since(first))
