"""Speed-corrected stopwatch for a shared, drifting machine.

On a 2-vCPU virtual machine shared with other tenants, the same
single-threaded pass runs up to 1.5x slower for stretches of 2-12 s while
the neighbours load the machine; process CPU time drifts with it.  The
clock therefore times a fixed calibration kernel (small numpy stacks,
matmuls and exps, like the sweep's hot path) every ``INTERVAL_S`` from a
SIGALRM handler, and scales each stretch of measured time by
``REFERENCE_KERNEL_S`` over the kernel time sampled around it.  The result
is in *reference seconds*: wall time on a machine where the kernel takes
exactly 1 ms.  The kernel never touches ``cask`` code, so a change to the
program moves reference seconds as it moves wall time; only the machine's
drift cancels.  Calibration time itself is excluded from both readings.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

REFERENCE_KERNEL_S = 1e-3
INTERVAL_S = 0.05
KERNEL_REPEATS = 20

_rng = np.random.default_rng(0)
_ROWS = [_rng.standard_normal(16) for _ in range(64)]
_QUERY = _rng.standard_normal(16)


def kernel_seconds() -> float:
    """Time one run of the calibration kernel."""
    t0 = perf_counter()
    for _ in range(KERNEL_REPEATS):
        keys = np.stack(_ROWS)
        w = np.exp(keys @ _QUERY * 0.25)
        float(w @ keys[:, 0]) / float(w.sum())
    return perf_counter() - t0


class SpeedClock:
    """Context manager; after exit ``raw_s`` and ``reference_s`` are set."""

    def __init__(self):
        self._samples: list[tuple[float, float, float]] = []  # start, end, kernel
        self._busy = False
        self._previous = None
        self.raw_s = 0.0
        self.reference_s = 0.0

    def _sample(self) -> None:
        start = perf_counter()
        took = kernel_seconds()
        self._samples.append((start, perf_counter(), took))

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def __enter__(self) -> "SpeedClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        raw = ref = 0.0
        for (_, end, k0), (start, _, k1) in zip(self._samples,
                                                self._samples[1:]):
            stretch = start - end
            raw += stretch
            ref += stretch * REFERENCE_KERNEL_S / ((k0 + k1) / 2)
        self.raw_s, self.reference_s = raw, ref


class PlainClock:
    """Uncorrected stopwatch with the same readings, for traced passes:
    calibration inside a span would be charged to that span."""

    def __enter__(self) -> "PlainClock":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = self.reference_s = perf_counter() - self._start
