"""The measuring machine's speed, from a fixed reference workload.

The host under the measuring VM slows each vCPU to about half speed and
back, in stretches from tens of milliseconds to minutes, with no steal
time visible to the guest. A median over a run then reads whichever
state held longest, and runs of the same code spread by 20-40%. So the
benchmark probes the speed next to every timed sample and reports the
sample scaled to nominal speed: time x factor, where a factor is nominal
over measured probe time (1.0 in the fast state, about 0.55 in the slow
one). worker.py says which probes scale which sample.

A probe times three fixed pieces of work like the program's own: a
Thomas solve over Python lists (interpreter-bound, like
`linalg.solve_tridiagonal`), a one-row numpy forward pass (call
overhead-bound, like single-row `predict`) and a 1024-row one (array
work, like batched `predict`). The slow state costs array work less
than interpreter work, so there are two factors: `calls`, the geometric
mean of the first two, scales single-row predict, solves and set-up;
`arrays`, from the third, scales batched predict; a pipeline run, which
does both kinds of work, is scaled by the geometric mean of the two.
The nominal times are the probes' fast-state times on the measuring
machine, so scaled values read as raw ones would in the fast state.
Nothing here comes from the package, so the reference does not move
when the program changes.

Top-level imports stay in the standard library: `probe_setup.py` runs
the Python probe before `import poissonlab` starts numpy's import.
"""

from __future__ import annotations

import math
import time

PY_REPS = 64  # Thomas solves per Python probe, about 2 ms at nominal speed
NP_REPS = 512  # one-row forward passes per numpy probe, about 2 ms at nominal speed
ARRAY_ROWS, ARRAY_REPS = 1024, 8  # 1024-row forward passes per array probe, about 2 ms
# Seconds per probe in the measuring machine's fast state (2-vCPU Xeon
# KVM guest, Python 3.11.7, numpy 2.4.6, in the environment run.py gives
# the program): the 10th percentile of a minute of back-to-back probes,
# rounded. They fix the unit of the scaled timings; the benchmark's
# bounds compare runs of one version of this file, so they never need
# re-measuring.
NOMINAL_PY_S = 1.74e-3
NOMINAL_NP_S = 1.85e-3
NOMINAL_ARRAY_S = 1.55e-3


def thomas_lists(n: int = 99) -> list:
    """Solve the 1D Laplacian system with a fixed right-hand side in plain Python."""
    sub, diag, sup = [-1.0] * n, [2.0] * n, [-1.0] * n
    rhs = [0.01 * i for i in range(n)]
    cp, dp = [0.0] * n, [0.0] * n
    cp[0], dp[0] = sup[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        den = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sup[i] / den
        dp[i] = (rhs[i] - sub[i] * dp[i - 1]) / den
    x = [0.0] * n
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def python_probe_s() -> float:
    started = time.perf_counter()
    for _ in range(PY_REPS):
        thomas_lists()
    return time.perf_counter() - started


class Speedometer:
    """Probes the machine's speed; `factors()` are 1.0 at nominal speed.

    `calls` and `arrays` keep every factor of that kind measured, in order.
    """

    def __init__(self):
        import numpy as np

        self.calls, self.arrays = [], []
        rng = np.random.default_rng(0)
        self.batch = rng.uniform(-1.0, 1.0, (ARRAY_ROWS, 3))
        self.rows = list(self.batch[:NP_REPS])
        self.w1, self.b1 = rng.standard_normal((3, 8)), rng.standard_normal(8)
        self.w2, self.b2 = rng.standard_normal((8, 101)), rng.standard_normal(101)
        self.np = np

    def forward(self, x):
        return self.np.tanh(x @ self.w1 + self.b1) @ self.w2 + self.b2

    def numpy_probe_s(self) -> float:
        started = time.perf_counter()
        for row in self.rows:
            self.forward(row)
        return time.perf_counter() - started

    def array_probe_s(self) -> float:
        started = time.perf_counter()
        for _ in range(ARRAY_REPS):
            self.forward(self.batch)
        return time.perf_counter() - started

    def factors(self) -> dict:
        """{"calls": ..., "arrays": ...}, each 1.0 at nominal speed."""
        calls = math.sqrt(NOMINAL_PY_S / python_probe_s() * NOMINAL_NP_S / self.numpy_probe_s())
        arrays = NOMINAL_ARRAY_S / self.array_probe_s()
        self.calls.append(calls)
        self.arrays.append(arrays)
        return {"calls": calls, "arrays": arrays}
