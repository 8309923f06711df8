"""The timed closed loop, the speed probes, and the tail percentile.

The machine this benchmark was built on, a shared 2-core sandbox, swings
between speed states about 1.6x apart that last from seconds to minutes,
so raw times of the same code spread by 10-30 % from run to run.  Every
time the benchmark reports is therefore scaled to a reference speed: a
probe, a fixed piece of the benchmark's own work like the unit's, runs
between units or rounds (untimed), and a time t measured while the probe
takes p seconds is reported as t * probe.ref_s / p.  The raw times are kept
beside the scaled ones.
"""

import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class ComputeProbe:
    """60 column Cholesky factorisations of a fixed 8 x 8 matrix, written as
    a Python loop over numpy slices: the instruction mix of the pure-numpy
    kernel, run in the worker between in-process units (about 3 ms)."""

    ref_s = 0.003

    def __init__(self):
        a = np.random.default_rng(12345).standard_normal((8, 9))
        w = a @ a.T
        d = np.sqrt(np.diag(w))
        self.matrix = w / np.outer(d, d)

    def __call__(self):
        clock = time.perf_counter
        start = clock()
        for _ in range(60):
            a = self.matrix.copy()
            for j in range(8):
                pivot = math.sqrt(float(a[j, j] - a[j, :j] @ a[j, :j]))
                a[j, j] = pivot
                a[j + 1:, j] = (a[j + 1:, j] - a[j + 1:, :j] @ a[j, :j]) / pivot
        return clock() - start


class PoolComputeProbe(ComputeProbe):
    """The compute probe twice per thread on a pool of os.cpu_count()
    threads, as the campaign's default pool runs its work: it follows the
    speed of every core and the contention for the interpreter lock.  In a
    3-minute test it scaled 20-second medians of 30-run campaigns to a
    spread of 0.03, against 0.04 with the one-thread probe and 0.09 raw."""

    def __init__(self):
        super().__init__()
        self.tasks = 2 * (os.cpu_count() or 1)
        self.ref_s = self.tasks * ComputeProbe.ref_s

    def __call__(self):
        one = super().__call__
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.tasks // 2) as pool:
            for future in [pool.submit(one) for _ in range(self.tasks)]:
                future.result()
        return time.perf_counter() - start


class StartupProbe:
    """A fresh interpreter importing numpy and scipy.special: the start-up
    work of a `mutindep` process without the package itself (about 0.4 s).
    The compute probe does not follow process start-up; this one does."""

    ref_s = 0.4
    COMMAND = [sys.executable, "-c", "import numpy, scipy.special"]

    def __call__(self):
        start = time.perf_counter()
        subprocess.run(self.COMMAND, check=True, timeout=60)
        return time.perf_counter() - start


def tail(values):
    """(percentile, value, samples beyond): the highest whole percentile,
    nearest-rank, that still has at least ten samples above it.  With ten
    samples or fewer that is the maximum, with none beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    for q in range(99, 0, -1):
        rank = -(-q * count // 100)
        if count - rank >= 10:
            return q, ordered[rank - 1], count - rank
    return 100, ordered[-1], 0


class Phase:
    """Closed loop of whole rounds for at least `seconds` of wall time.

    The workload's probe runs before the first unit and then after every
    unit, or, where the workload sets `probe_each_unit` false, after every
    round; a unit's time is scaled by the mean of the two probes that
    enclose it.  Neither the probes nor `finish` are timed.  `pick(r)`
    says whether a unit of round r is checked, until the phase holds the
    workload's `checks` records."""

    def __init__(self, workload, seconds, first_round, pick, errors):
        self.raw, self.units, self.records, self.probes = [], [], [], []
        self.rounds, self.round_tests = [], []
        self.tests = self.attempted = self.failed = 0
        self.probe = probe = workload.probe()
        clock = time.perf_counter
        before = probe()
        r = first_round
        start = clock()
        while True:
            round_s = round_tests = 0
            units = workload.round(r)
            pending = []  # unscaled times of units since the last probe
            for i, unit in enumerate(units):
                self.attempted += 1
                keep = len(self.records) < workload.checks and pick(r)
                try:
                    t0 = clock()
                    out = unit.run()
                    elapsed = clock() - t0
                    tests, record = workload.finish(unit, out, keep)
                except Exception:
                    self.failed += 1
                    errors.append(traceback.format_exc(limit=4))
                else:
                    pending.append(elapsed)
                    round_tests += tests
                    if record is not None:
                        self.records.append(record)
                if workload.probe_each_unit or i == len(units) - 1:
                    after = probe()
                    self.probes.append(after)
                    for elapsed in pending:
                        scaled = elapsed * probe.ref_s / ((before + after) / 2)
                        self.raw.append(elapsed)
                        self.units.append(scaled)
                        round_s += scaled
                    pending = []
                    before = after
            self.rounds.append(round_s)
            self.round_tests.append(round_tests)
            self.tests += round_tests
            r += 1
            if clock() - start >= seconds:
                break
        self.next_round = r

    def scale(self):
        """ref_s over the median probe of the phase: the factor for times
        measured across it, such as span totals."""
        return self.probe.ref_s / statistics.median(self.probes)

    def metrics(self):
        """The end-to-end timing metrics, and details printed beside them."""
        q, value, beyond = tail(self.units)
        return {
            "wall_s": statistics.median(self.rounds),
            "tests_per_s": statistics.median(
                t / s for t, s in zip(self.round_tests, self.rounds)),
            "unit_p50_ms": statistics.median(self.units) * 1e3,
            "unit_tail_ms": value * 1e3,
        }, {"units": len(self.units), "rounds": len(self.rounds),
            "tail_percentile": q, "tail_samples_beyond": beyond,
            "probe": type(self.probe).__name__,
            "probe_p50_ms": statistics.median(self.probes) * 1e3,
            "probe_ref_ms": self.probe.ref_s * 1e3,
            "raw_unit_p50_ms": statistics.median(self.raw) * 1e3,
            "raw_tests_per_s": self.tests / sum(self.raw)}
