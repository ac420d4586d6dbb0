"""Host-speed calibration: times in seconds of the reference machine.

The reference machine is a shared 2-core Xeon VM whose speed drifts, in
steps that last seconds to minutes, by up to a factor of two: wider than
any bound a run-to-run comparison could use.  So every timed job is
bracketed by readings of a fixed calibration kernel, and its time is
reported as

    raw seconds * REFERENCE_S / (mean of the readings before and after it)

that is, as the seconds the job would have taken while the kernel took
REFERENCE_S.  The kernel does not call the program: it is the inner loop
of a pseudo-remainder over fixed integer polynomials, the loop shape where
the program spends most of its time.  There its time mostly follows the
program's own drift to within about 5 % while raw times move by 50 %; in
some states of the host the two part by 10-30 % for a minute or so, and
the medians and quartiles over runs absorb that.  A change to the program
moves its times and leaves the kernel's alone.
The raw seconds are printed next to every normalised figure.

Importing the package is mostly loading modules and shared libraries, which
drifts differently, so set-up time is scaled the same way by a second
reading: a fresh interpreter importing the modules the package stands on
(IMPORT_REFERENCE), whose cost no change to the package can alter.
"""

from __future__ import annotations

import random
import statistics
import time

# Kernel reading on the reference machine (2-core shared Xeon VM, Python
# 3.11.7) in its faster state; it only sets the scale of every figure.
REFERENCE_S = 0.005
READINGS_PER_POINT = 3

# numpy and the standard modules graph_iwasawa imports, and the seconds a
# fresh interpreter takes to import them on the reference machine.
IMPORT_REFERENCE = "numpy, argparse, json, fractions, dataclasses, " \
    "concurrent.futures"
IMPORT_REFERENCE_S = 0.12

_rng = random.Random(20061401)
_A = [_rng.getrandbits(64) - 2 ** 63 for _ in range(160)]
_B = [_rng.getrandbits(64) - 2 ** 63 for _ in range(40)] + [3]


def _kernel() -> None:
    r = list(_A)
    lc = _B[-1]
    db = len(_B) - 1
    for k in range(len(_A) - len(_B), -1, -1):
        top = r[db + k]
        for i in range(len(r)):
            r[i] *= lc
        if top:
            for i, bc in enumerate(_B):
                r[k + i] -= top * bc
        r[db + k] = 0


def reading() -> float:
    """Seconds the kernel takes now (median of a few runs)."""
    times = []
    for _ in range(READINGS_PER_POINT):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibrator:
    """Readings taken between jobs, and the factor that turns a job's raw
    seconds into reference seconds.  ``read`` takes one reading and
    ``reference`` is its value on the reference machine.

    Call ``mark()`` right before a job (it takes a reading when the last
    one is older than ``interval`` seconds) and keep what it returns;
    after the last job call ``close()``, then ``factor(mark)`` for each
    job.  ``spent`` is the wall time the readings themselves took.
    """

    def __init__(self, interval: float = 0.0, read=reading,
                 reference: float = REFERENCE_S):
        self.interval = interval
        self.read = read
        self.reference = reference
        self.readings: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def _read(self) -> None:
        start = time.perf_counter()
        self.readings.append(self.read())
        self._last = time.perf_counter()
        self.spent += self._last - start

    def mark(self) -> int:
        if time.perf_counter() - self._last >= self.interval:
            self._read()
        return len(self.readings) - 1

    def close(self) -> None:
        self._read()

    def factor(self, mark: int) -> float:
        before = self.readings[mark]
        after = self.readings[min(mark + 1, len(self.readings) - 1)]
        return self.reference / ((before + after) / 2)
