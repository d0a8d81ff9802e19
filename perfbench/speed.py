"""A speedometer for a machine whose speed changes while it is measured.

On a shared host a vCPU does not run at one speed. On the 2-vCPU Xeon VM
this benchmark was sized on, a fixed Python loop ran at its fastest speed or
about 1.5 times slower, switching every few seconds, independently on the
two vCPUs; raw wall times of one workload spread by 20-27 % between runs.
Timings are therefore rescaled to a reference speed. A short fixed Python
loop that does not touch the program is timed right after set-up, every
`PERIOD_S` seconds of the body from a SIGALRM handler on the same thread,
and after the body. Each stretch of the body between two samples counts its
seconds times `REFERENCE_KERNEL_S` over the mean kernel time at its two
ends; the time the samples themselves take is not counted. With this,
the spread of `wall_s` between runs fell to about 3 %. A kernel that also
timed numpy compares and sums tracked the workloads worse, numpy-heavy
`stationary` included.
"""

from __future__ import annotations

import signal
import time
import tracemalloc

PERIOD_S = 0.1
CALIBRATION_KERNELS = 100
# Kernel time on the VM the benchmark was sized on, in its fast state.
REFERENCE_KERNEL_S = 4.5e-4


def kernel() -> float:
    """Time one pass of a fixed Python loop; returns seconds."""
    start = time.perf_counter()
    total = 0.0
    for i in range(5_000):
        total += (i % 7) * 0.5
    return time.perf_counter() - start


def calibrate() -> float:
    """Mean kernel time over `CALIBRATION_KERNELS` passes."""
    return sum(kernel() for _ in range(CALIBRATION_KERNELS)) / (
        CALIBRATION_KERNELS
    )


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """Rescale a timing taken while the kernel took `kernel_s`."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


class Speedometer:
    """Times the kernel every `PERIOD_S` seconds while active. A sample is
    taken between two bytecodes, so one that falls due inside a long numpy
    call waits for it to return."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end)

    def _sample(self, signum, frame) -> None:
        if tracemalloc.is_tracing():
            # The traced run's memory probe would slow the kernel itself.
            return
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescaled(self, start: float, end: float, kernel_before: float,
                 kernel_after: float) -> float:
        """Seconds of [start, end] outside the samples, at reference speed.
        `kernel_before` and `kernel_after` are calibrations taken just
        outside the interval."""
        total = 0.0
        prev_end, prev_kernel = start, kernel_before
        for s_start, s_end in self.samples:
            if s_start < start or s_end > end:
                continue
            this_kernel = s_end - s_start
            total += at_reference_speed(
                s_start - prev_end, (prev_kernel + this_kernel) / 2
            )
            prev_end, prev_kernel = s_end, this_kernel
        return total + at_reference_speed(
            end - prev_end, (prev_kernel + kernel_after) / 2
        )

    def sampled_s(self) -> float:
        return sum(end - start for start, end in self.samples)
