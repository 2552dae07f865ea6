"""Fixed yardstick for the speed of the machine at the moment of measuring.

The benchmark shares a small machine with other tenants, whose load moves
risknet's wall time by 30% or more from one minute to the next.  Each
child therefore times this kernel just before and just after its CLI work,
and the end-to-end times are scaled by ``NOMINAL_S / kernel time``: they
read as seconds on the reference machine at rest.

The kernel mixes what the workloads spend their time on: a 40-node
Riccati-style backward recursion with a 7-column driver block (small dense
solves and matrix products), a clamped rollout under its gains, and CSV
formatting of 0/1 rows.  It imports nothing from risknet, so it stays the
same yardstick whatever the program's code becomes.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

#: Kernel seconds on the reference machine (2-vCPU virtual machine, Python 3.11,
#: numpy 2.4, single-threaded BLAS) when no other tenant loads it.
NOMINAL_S = 0.08

_N, _STEPS, _ROWS = 40, 500, 5000
_DRIVERS = [1, 5, 9, 13, 17, 21, 25]


def kernel_seconds() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    rng = np.random.default_rng(0)
    A = rng.random((_N, _N)) * 0.05
    d = _DRIVERS
    eye, eye_d = np.eye(_N), np.eye(len(d))
    start = time.perf_counter()
    P, K = [None] * _STEPS + [eye], [None] * _STEPS
    for k in range(_STEPS - 1, -1, -1):
        Pn = P[k + 1]
        K[k] = np.linalg.solve(eye_d + Pn[np.ix_(d, d)], Pn[d, :] @ A)
        Pk = eye + A.T @ (Pn @ A) - (A.T @ Pn[:, d]) @ K[k]
        P[k] = 0.5 * (Pk + Pk.T)
    x = rng.random(_N)
    for k in range(_STEPS):
        u = np.zeros(_N)
        u[d] = -K[k] @ x
        x = np.clip(A @ x + u, 0.0, 1.0)
    writer = csv.writer(io.StringIO())
    row = [int(v) for v in rng.random(_N) < 0.5]
    for _ in range(_ROWS):
        writer.writerow([str(v) for v in row])
    return time.perf_counter() - start
