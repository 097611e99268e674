"""Host-speed normalization of measured times.

On a shared host the same fuzz chunk takes anywhere from 0.29 to 0.65 s as
other tenants load the cores, in episodes of tens of seconds, with the process
never descheduled (CPU time equals wall time).  A probe, a fixed kernel
written here and not in skewsharp, is timed between the ops all through a run;
a measured time t is reported as t * REF_S / (mean of the probes just before
and just after it), the time the op would take on a host where the kernel runs
in REF_S.  A change
to skewsharp moves the ops and not the probe, so it still shows in full.  Two
kernels match the two regimes: small NumPy calls for d <= 60, and a complex
product, eigh and einsum on a few hundred dimensions for d = 900.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


class SpeedProbe:
    # kernel -> (quiet-host time of one kernel run with 2 threads, runs per probe)
    KERNELS = {"numpy-small": (0.0017, 3), "blas": (0.050, 5)}

    def __init__(self, kernel: str):
        rng = np.random.default_rng(20240501)
        if kernel == "numpy-small":
            G = rng.standard_normal((40, 5, 5)) + 1j * rng.standard_normal((40, 5, 5))
            self.small = list(G + G.conj().transpose(0, 2, 1))
            self.run = self._numpy_small
        elif kernel == "blas":
            # the d = 900 ops mix BLAS products, eigh and single-threaded einsum
            B = rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600))
            self.big = B
            self.herm = B[:300, :300] + B[:300, :300].conj().T
            self.stack = rng.standard_normal((4, 400, 400)) + 1j * rng.standard_normal((4, 400, 400))
            self.run = self._blas
        else:
            raise ValueError(f"unknown probe kernel {kernel!r}")
        self.ref_s, self.runs = self.KERNELS[kernel]
        self.run()

    def _numpy_small(self) -> None:
        for M in self.small:
            w, V = np.linalg.eigh(M)
            A = V.conj().T @ M @ V
            np.einsum("ab,ba->", A, np.outer(w, w))
            np.linalg.eigvalsh(M.real + M.real.T)

    def _blas(self) -> None:
        self.big @ self.big
        np.linalg.eigh(self.herm)
        np.einsum("aij,bij->ab", self.stack.conj(), self.stack)

    def time(self) -> float:
        """Median time of `runs` kernel runs."""
        times = []
        for _ in range(self.runs):
            t0 = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
