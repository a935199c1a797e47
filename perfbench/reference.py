"""A fixed reference task that measures how fast the machine is right now.

The shared machines this benchmark runs on change speed by a fifth or more
over a few seconds, for reasons outside the process (other tenants, clock
scaling).  The end-to-end run times this task after every round and scales
the round's timings by it, which cancels most of that drift.  The task
mimics the package's own mix of work (Philox stream set-up, small dense
linear algebra, scalar special functions, string-to-float parsing and
interpreter overhead) but never calls the package, so no change to the
package can move it.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np
from scipy import special

# Median duration of reference_task() on the machine the baselines in
# perfbench/README.md were taken on (2 vCPUs, Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1).  Normalised timings read as if the task always took this
# long; the value only sets the scale.
NOMINAL_SECONDS = 0.013

_X = np.linspace(-1.0, 1.0, 45).reshape(15, 3) ** np.arange(1, 4)
_ROW = ",".join(f"{v:.17g}" for v in np.linspace(0.1, 9.9, 12))


def reference_task(iterations: int = 240) -> float:
    acc = 0.0
    for i in range(iterations):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, i])))
        y = gen.standard_normal(15)
        u, s, vt = np.linalg.svd(_X, full_matrices=False)
        b = vt.T @ ((u.T @ y) / s)
        acc += float(special.chdtr(3.0, float(b @ b))) + float(special.psi(1.0 + i))
        acc += sum(float(c) for c in _ROW.split(",")) * 1e-9
        acc += math.log1p(abs(float(y.sum())))
    return acc


def machine_slowness() -> float:
    """Current duration of the reference task over its nominal duration.

    The collector is paused so that the package's heap, which the task never
    touches, cannot change how long the task takes.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_task()
        return (time.perf_counter() - t0) / NOMINAL_SECONDS
    finally:
        gc.enable()
