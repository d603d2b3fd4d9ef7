"""Machine-speed calibration for shared, noisy hosts.

On the machines this benchmark was built on, the speed of one core drifts by
+-30% in phases of 5 to 30 seconds, and Python-bound and LAPACK-bound code
drift together. A fixed kernel (numpy eigendecompositions at d = 4, 16 and 64
plus a pure-Python loop; no qsd code) is timed between operations about every
``EVERY_S``, and each measured time is rescaled by ``REFERENCE_S / kernel time``
(kernel time interpolated to the moment of the measurement): times are
reported at the machine speed at which the kernel takes ``REFERENCE_S``.
Raw times are kept alongside.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Fixed reference speed: about the kernel's median time on the 2-vCPU x86_64
# machine (numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread) that produced
# baseline.json. Changing it rescales every reported time.
REFERENCE_S = 0.02
EVERY_S = 0.5


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = []
        for d, count in ((4, 60), (16, 10), (64, 2)):
            for _ in range(count):
                g = rng.standard_normal((d, d))
                self.mats.append(g + g.T)
        self.measure()  # warm caches and lazy numpy set-up

    def measure(self, rounds: int = 8) -> float:
        """Seconds for ``rounds`` rounds of the kernel."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(rounds):
            for m in self.mats:
                acc += float(np.linalg.eigh(m)[0][-1])
            for i in range(2000):
                acc += i * 0.5
        return time.perf_counter() - t0


class Meter:
    """Collects operation latencies; with a calibration, times the kernel
    between operations when ``EVERY_S`` has passed since the last time."""

    def __init__(self, calibration: Calibration | None = None):
        self.calibration = calibration
        # operation end times and durations, compact so that peak RSS does
        # not grow with the number of operations
        self.ends = array("d")
        self.seconds = array("d")
        self.marks: list[tuple[float, float]] = []  # (time, kernel seconds)
        self.paused = 0.0  # seconds spent in the kernel
        self._last = time.perf_counter()
        if calibration is not None:
            self.calibrate()

    def op(self, seconds: float) -> None:
        self.ends.append(time.perf_counter())
        self.seconds.append(seconds)

    def between(self) -> None:
        if self.calibration is not None and time.perf_counter() - self._last >= EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        kernel = self.calibration.measure()
        self._last = time.perf_counter()
        self.marks.append(((t0 + self._last) / 2, kernel))
        self.paused += self._last - t0

    def factor(self, at) -> np.ndarray:
        """Raw-to-reference scale at the given times."""
        t, kernel = zip(*self.marks)
        return REFERENCE_S / np.interp(at, t, kernel)
