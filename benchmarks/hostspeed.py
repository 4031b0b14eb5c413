"""Host speed, gauged with a fixed reference kernel while a call runs.

On a shared host the same call's wall time drifts by tens of percent within
minutes while its work stays the same.  The reference kernel is a fixed
piece of work that uses the kernels maxshape spends its time in (Python
loops, small numpy arrays, sparse LU and ARPACK) but none of its code, so a
change to the program leaves the kernel's time alone.  A Gauge runs the
kernel before and after a call and, every ``interval`` seconds, from inside
it (the benchmark's problem subclass ticks it on each state solve).  Its
clock stands still while the kernel runs, so the call's time excludes the
kernel, and ``to_reference`` converts that time to seconds on a host where
the kernel takes REF_S seconds: wall seconds times REF_S over the mean
kernel time.  The mean over samples spread evenly in time follows the
host's speed over the call the way the call's own time does.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The kernel's mean time inside benchmark calls on the host the benchmark
# was tuned on: a shared 2-vCPU x86-64 VM, Python 3.11, one BLAS thread.
# Reference seconds read close to wall seconds there.
REF_S = 0.040

_N = 40
_A = (sp.kron(sp.identity(_N), sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1],
                                        shape=(_N, _N)))
      + sp.kron(sp.diags([-1.0, -1.0], [-1, 1], shape=(_N, _N)),
                sp.identity(_N))).tocsc()
_M = sp.identity(_N * _N, format="csc")
_V0 = np.ones(_N * _N)
_TRIANGLES = np.random.default_rng(0).random((3000, 3, 2))


def reference_kernel() -> float:
    """Fixed work in the program's mix of Python, numpy and sparse solves."""
    total = 0.0
    for i in range(150_000):
        total += i * 0.5
    lu = spla.splu((_A - 0.5 * _M).tocsc())
    op = spla.LinearOperator(_A.shape, matvec=lu.solve)
    total += float(np.abs(spla.eigs(op, k=6, which="LM", v0=_V0,
                                    tol=1e-8)[0]).max())
    rows = np.repeat(np.arange(len(_TRIANGLES)), 3)
    for _ in range(20):
        d = _TRIANGLES[:, 1] - _TRIANGLES[:, 0]
        e = _TRIANGLES[:, 2] - _TRIANGLES[:, 0]
        det = d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]
        g = np.einsum("ti,tj->tij", d, e) / det[:, None, None]
        vals = g.reshape(len(g), -1)[:, :3].ravel()
        total += sp.coo_matrix((vals, (rows, rows % 97)),
                               shape=(len(g), 97)).tocsr().sum()
    return total


class Gauge:
    """Samples the reference kernel's time around and during one call."""

    def __init__(self, interval: float = math.inf):
        self.interval = interval
        self.samples: list[float] = []
        self._spent = 0.0
        self._last = -math.inf

    def clock(self) -> float:
        """perf_counter that stands still while the kernel runs."""
        return time.perf_counter() - self._spent

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self._spent += self._last - start

    def tick(self) -> None:
        """Sample if ``interval`` seconds have passed since the last one."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    @property
    def kernel_s(self) -> float:
        return statistics.fmean(self.samples)

    def to_reference(self, seconds: float) -> float:
        """Seconds on this host, as seconds on the reference host."""
        return seconds * REF_S / self.kernel_s
