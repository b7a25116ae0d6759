"""Host-speed probe: a fixed reference kernel timed alongside the workload.

On a shared host the whole machine runs up to about 1.85x slower for
minutes at a time, and the program's ops slow down with it.  The probe is a
fixed mix of the kinds of work the library does (SciPy SuperLU solves, NumPy
array passes and a plain Python loop) that uses no fluxrec code, so a change
to the library cannot change its cost.  Scaling an op's wall time by
NOMINAL_MS / (probe time measured at that moment) gives its time at the
host speed where the probe takes NOMINAL_MS, which stays steady while the
host's speed drifts.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

NOMINAL_MS = 2.5   # probe time that defines the reference host speed
EVERY_S = 0.5      # least time between probes during a timed loop


class HostProbe:
    def __init__(self):
        n = 48  # 2-D Laplacian on an n x n grid: 2304 unknowns
        t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        lap = sparse.kron(t, sparse.eye(n)) + sparse.kron(sparse.eye(n), t)
        self._lu = splu(lap.tocsc())
        self._rhs = np.linspace(0.0, 1.0, n * n)
        self._keys = np.random.default_rng(0).random(20000)
        self.times: list[float] = []   # perf_counter at each probe
        self.ms: list[float] = []      # probe cost in ms

    def _kernel(self) -> None:
        for _ in range(4):
            self._lu.solve(self._rhs)
        for _ in range(4):
            np.sort(self._keys)
            np.sqrt(self._keys * self._keys + 1.0)
        total = 0
        for i in range(20000):
            total += i * i

    def probe(self) -> float:
        """Time the kernel (median of three) and record it."""
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            self._kernel()
            runs.append((perf_counter() - t0) * 1e3)
        self.times.append(perf_counter())
        self.ms.append(statistics.median(runs))
        return self.ms[-1]

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= EVERY_S

    def scale_at(self, when) -> np.ndarray:
        """NOMINAL_MS over the probe cost interpolated at the given times."""
        return NOMINAL_MS / np.interp(when, self.times, self.ms)
