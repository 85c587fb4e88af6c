"""Machine-speed calibration for job timings.

Shared virtual machines change speed in plateaus: the same pure-Python
work can take twice as long in one second as in the next, and each
virtual CPU changes on its own. Every job is therefore bracketed by a
fixed kernel, and its wall time is scaled by the kernel's nominal time
over its measured time, the mean of the brackets before and after it. A
calibrated second is the time the job would take on a machine that runs
the kernel in exactly its nominal time.

Interpreter-bound code and numpy array code do not slow down by the same
factor, so there are two kernels: "python", a pure-Python integer kernel
for jobs that spend their time in the interpreter, and "numpy", an array
kernel for jobs that spend it in large numpy arrays (each job names its
kernel; see corpus.Job).
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

# Fixed forever: changing one rescales every calibrated metric recorded
# with it. Roughly each kernel's time on a fast plateau of a 2-CPU x86-64
# (Xeon) container running CPython 3.11 and numpy 2.4.
NOMINAL_KERNEL_S = {"python": 0.002, "numpy": 0.005}

_PRIME = 1_000_003
_SEED_MATRIX = [[(i * 7 + j * 13 + 1) % _PRIME for j in range(8)] for i in range(8)]
_CODES = np.arange(3 ** 9, dtype=np.int64)
_POWERS = 3 ** np.arange(12, dtype=np.int64)
_WEIGHTS = np.arange(24, dtype=np.int64).reshape(12, 2)
_AXIS = np.arange(32) * (2.0 * math.pi / 32)
_GRID = np.stack([m.ravel() for m in np.meshgrid(_AXIS, _AXIS, _AXIS, indexing="ij")], axis=-1)
_LINEAR = np.array([[0.0, -1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 2.0]])

# CPU time that threads other than the measuring one may use in a window.
CPU_MARGIN_S = 0.001
CPU_MARGIN_SHARE = 0.05


def python_kernel() -> int:
    """24 products of 8x8 integer matrices mod a prime (~2 ms)."""
    m = _SEED_MATRIX
    cols = list(zip(*_SEED_MATRIX))
    for _ in range(24):
        m = [[sum(x * y for x, y in zip(row, col)) % _PRIME for col in cols] for row in m]
    return m[0][0]


def numpy_kernel() -> float:
    """A 3^9 x 12 base-3 digit expansion and product, and an affine image
    of a 32^3 torus grid (~5 ms): the array shapes of the sidon and
    simulate paths."""
    digits = (_CODES[:, None] // _POWERS) % 3 - 1
    image = np.mod(_GRID @ _LINEAR.T + 0.5, 2.0 * math.pi)
    return float((digits @ _WEIGHTS).sum()) + float(image.sum())


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def live_children() -> list[int]:
    """Process ids whose parent is a thread of this process.

    Reads /proc/self/task/<tid>/children (Linux with CONFIG_PROC_CHILDREN);
    raises OSError where the kernel does not provide it.
    """
    pids = []
    for tid in os.listdir("/proc/self/task"):
        with open("/proc/self/task/%s/children" % tid, "rb") as handle:
            pids += [int(p) for p in handle.read().split()]
    return pids


def scale(raw_s: float, kernel_before_s: float, kernel_after_s: float, kind: str = "python") -> float:
    """Calibrated seconds for a job bracketed by two kernel measurements."""
    return raw_s * NOMINAL_KERNEL_S[kind] * 2.0 / (kernel_before_s + kernel_after_s)


class Calibrator:
    """Takes kernel measurements and guards each calibration window.

    A window is invalid when threads other than the measuring one used CPU
    during it (a thread left running by the program), when a child process
    is still alive, or when the children cannot be listed. Background work
    would slow the kernel, make the job look fast and so show up as a
    speed-up; the caller counts the job as failed instead.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {kind: [] for kind in KERNELS}

    def measure(self, kind: str = "python") -> tuple[float, str | None]:
        """(kernel seconds, problem or None); the best of two kernel runs."""
        kernel = KERNELS[kind]
        wall0, cpu0, own0 = time.perf_counter(), time.process_time(), time.thread_time()
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        wall = time.perf_counter() - wall0
        others = (time.process_time() - cpu0) - (time.thread_time() - own0)
        self.samples[kind].append(best)
        problem = None
        if others > wall * CPU_MARGIN_SHARE + CPU_MARGIN_S:
            problem = "calibration window: other threads used %.1f ms CPU in %.1f ms wall" % (
                others * 1e3, wall * 1e3)
        try:
            children = live_children()
        except OSError as exc:
            return best, "calibration window: cannot list child processes: %s" % exc
        if children:
            problem = "calibration window: child processes alive: %s" % children
        return best, problem
