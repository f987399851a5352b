"""A reference clock for timing on a shared machine.

A shared virtual CPU runs at a speed that changes from second to second with
the host's load: the same time step can take 8 ms in one minute and 17 ms in
the next.  Work of one kind slows by nearly the same factor, so each
operation is timed next to a fixed calibration kernel, run in short blocks
right before and right after it, and reported in reference seconds:

    ref_s = raw_s * REF_REP_S[kernel] / rep_s

where rep_s is the kernel's time per repetition over the blocks of the
last WINDOW_S seconds before the operation and the block right after it.
A block may be shorter than the host's scheduling slice, so one block alone
is a noisy speed; the window averages several when operations are short.

REF_REP_S is the kernel's fastest time per repetition seen on the reference
machine (the 2-vCPU Intel Xeon VM the seed baseline was recorded on), so a
reference second is about a second of that machine at full speed.  The kernels
do not call r13lab: a change to the library moves raw_s and leaves rep_s
alone, so it moves ref_s by the same share.  Each workload uses the kernel
closest to the work it spends its time in.  Standard library only until a
kernel that needs numpy is built.
"""

from __future__ import annotations

import collections
import time

_now = time.perf_counter


def _python_kernel():
    """Interpreter-bound: integer arithmetic and dict stores."""
    def run():
        acc, table = 0, {}
        for i in range(400):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 63] = acc
        return acc
    return run


def _numpy_kernel():
    """Small-array numpy calls from a Python loop, a small matmul and a
    banded sparse matrix-vector product."""
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48))
    v = rng.standard_normal(64)
    s = sp.diags(rng.standard_normal((5, 2000)), [-2, -1, 0, 1, 2],
                 shape=(2000, 2000), format="csr")
    x = rng.standard_normal(2000)

    def run():
        acc = 0.0
        for _ in range(60):
            acc += float((v * 1.0001 + 0.5) @ v)
        return acc + (a @ a)[0, 0] + (s @ x)[0]
    return run


def _lapack_kernel():
    """One dense symmetric eigendecomposition of order 160."""
    import numpy as np
    import scipy.linalg as sla

    m = np.random.default_rng(0).standard_normal((160, 160))
    m = m + m.T

    def run():
        return sla.eigh(m)[0][0]
    return run


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel,
           "lapack": _lapack_kernel}
# Fastest seconds per repetition seen on the reference machine.
REF_REP_S = {"python": 5.4e-5, "numpy": 1.9e-4, "lapack": 3.3e-3}
WINDOW_S = 0.2


class RefClock:
    """Times operations in reference seconds.

    A calibration block runs the kernel for max(min_s, frac * the operation's
    raw time).  An operation gets a block of its own before it only when no
    block ended in the window_s before it.
    """

    def __init__(self, kernel: str, frac: float = 0.05, min_s: float = 5e-4,
                 window_s: float = WINDOW_S):
        self._run = KERNELS[kernel]()
        self._ref = REF_REP_S[kernel]
        self.frac, self.min_s, self.window_s = frac, min_s, window_s
        self._blocks = collections.deque()  # (ended at, seconds, repetitions)
        self._last_raw = 0.0
        self.raw_total = 0.0
        self.ref_total = 0.0
        self._run()  # warm

    def _block(self, seconds: float) -> None:
        """Run the kernel for at least ``seconds`` and keep the block."""
        reps, t0 = 0, _now()
        while True:
            self._run()
            reps += 1
            elapsed = _now() - t0
            if elapsed >= seconds:
                self._blocks.append((t0 + elapsed, elapsed, reps))
                return

    def measure(self, fn, *args):
        """Run fn(*args) between two calibration blocks.

        Returns (result, exception or None, reference seconds); an exception
        is caught and returned, and the time up to it is counted.
        """
        if not self._blocks or _now() - self._blocks[-1][0] > self.window_s:
            self._block(max(self.min_s, self.frac * self._last_raw))
        result, exc = None, None
        t0 = _now()
        try:
            result = fn(*args)
        except Exception as caught:
            exc = caught
        raw = _now() - t0
        self._block(max(self.min_s, self.frac * raw))
        while self._blocks[0][0] < t0 - self.window_s:
            self._blocks.popleft()
        seconds = sum(b[1] for b in self._blocks)
        reps = sum(b[2] for b in self._blocks)
        ref = raw * self._ref * reps / seconds
        self._last_raw = raw
        self.raw_total += raw
        self.ref_total += ref
        return result, exc, ref

    @property
    def speed(self) -> float:
        """Reference seconds per raw second so far: 1 on the reference
        machine unloaded, lower when the machine is slower."""
        return self.ref_total / self.raw_total if self.raw_total else float("nan")
