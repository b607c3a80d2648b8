"""The machine's pace, read from a fixed probe run next to every timed case.

The benchmark runs on a few cores of a shared host, where other tenants'
load slows everything by up to 1.8x for tens of seconds at a time: on a
2-vCPU KVM guest, one pass of thin_limit took 4.1 s in one minute and
7.5 s a few minutes later.  Medians within a run cannot remove that, so
every timed case is preceded by a probe of fixed work, and the case is
reported in seconds at the reference pace:

    paced time = measured time * reference probe time / probe time

The probe time of a case is the median over the probes within WINDOW
cases of it on either side, for two probes that mirror the program's two
kinds of work: a pure-Python RK4 loop (the shooting solver, the descent's
bookkeeping) and a sparse LU factorization and solve (scipy's SuperLU, as
in the 2D solvers).  Their two ratios to the reference are combined by a
geometric mean.  The probe is the benchmark's own code and imports
nothing from the program, so the parent and a change are scaled by the
same yardstick and a slower program still reads slower.
"""

from __future__ import annotations

import math
import statistics
import time

# Median probe times on the reference machine (2-vCPU x86-64 KVM guest,
# Xeon with AVX-512, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS
# thread) over ten minutes of interleaved runs; a paced second is a
# second of that machine at that median pace.
PY_REF_S = 0.0060
LU_REF_S = 0.0045
WINDOW = 2
RK4_STEPS = 10000
LU_GRID = 40


class Probe:
    """The fixed probe; call it to get its (python, lu) times in seconds."""

    def __init__(self):
        import numpy as np
        import scipy.sparse
        import scipy.sparse.linalg

        n = LU_GRID
        t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = scipy.sparse.eye(n)
        self._a = (scipy.sparse.kron(t, eye) + scipy.sparse.kron(eye, t) + 0.1 * scipy.sparse.eye(n * n)).tocsc()
        self._b = np.ones(n * n)
        self._splu = scipy.sparse.linalg.splu
        self()  # first calls load code and caches; keep them out of the readings

    def __call__(self):
        return _rk4(), self._lu()

    def _lu(self):
        start = time.perf_counter()
        self._splu(self._a).solve(self._b)
        return time.perf_counter() - start


def _rk4():
    x, h = 0.3, 1e-3

    def f(y):
        return 0.5 - y * y

    start = time.perf_counter()
    for _ in range(RK4_STEPS):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return time.perf_counter() - start


def factors(probes):
    """Pace factor of each slot (1 at the reference pace, 1.5 when 1.5x slower)."""
    out = []
    for i in range(len(probes)):
        near = probes[max(0, i - WINDOW): i + WINDOW + 1]
        py = statistics.median(p[0] for p in near) / PY_REF_S
        lu = statistics.median(p[1] for p in near) / LU_REF_S
        out.append(math.sqrt(py * lu))
    return out
