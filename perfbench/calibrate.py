"""Machine-speed calibration for timings on a shared machine.

On a small shared VM the same code runs up to about twice as slow for
minutes at a time, with CPU time following wall time, most likely because
other tenants contend for the same cores. A fixed kernel that does not touch
the program is timed next to every measured sample, and the sample is
rescaled by the kernel's reference time over its measured time. A change to
the program still moves the rescaled figure in full; a slow phase of the
machine moves the kernel and the sample together and largely cancels.

Kinds of work slow down by different amounts in a slow phase: building small
Python objects and small-vector NumPy calls by about 1.8 times, a plain
integer loop by 1.4, a matrix-vector product or an argsort by 1.2 to 1.25.
So a workload names the parts that resemble its set-up and the parts that
resemble its rounds, and each phase's time is rescaled by its own parts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class _Record:
    index: int
    value: float


@lru_cache(maxsize=1)
def _inputs():
    g = np.random.default_rng(20221101)
    return (
        g.standard_normal((1500, 256)),
        g.standard_normal(256),
        [g.standard_normal(50) for _ in range(20)],
        g.standard_normal(2000),
    )


def _integer_loop() -> None:
    z = 0
    for i in range(25000):
        z = (z * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF


def _objects() -> None:
    records = {}
    text = []
    for i in range(5000):
        r = _Record(i, i * 0.5)
        records[i & 255] = (r.index, r.value)
        text.append(repr(r.value))
    ",".join(text)


def _small_numpy() -> None:
    s = 0.0
    for _ in range(120):
        for x in _inputs()[2]:
            y = x - 0.5 * x
            s += float(y @ y)


def _matvec() -> None:
    matrix, w = _inputs()[0], _inputs()[1]
    for _ in range(15):
        w = matrix.T @ (matrix @ w) / 1e4


def _argsort() -> None:
    wide = _inputs()[3]
    for _ in range(30):
        np.argsort(-np.abs(wide), kind="stable")


# Each part with about its time, between measured samples, in the fast phase
# of the machine the README's reference figures come from. Rescaled timings
# read as seconds at that speed.
PARTS = {
    "integer_loop": (_integer_loop, 0.0040),
    "objects": (_objects, 0.0055),
    "small_numpy": (_small_numpy, 0.0055),
    "matvec": (_matvec, 0.0045),
    "argsort": (_argsort, 0.0040),
}


def kernel_seconds(parts: tuple[str, ...]) -> dict[str, float]:
    """Wall time of each of ``parts``, run once in order."""
    _inputs()
    times = {}
    for name in parts:
        t0 = time.perf_counter()
        PARTS[name][0]()
        times[name] = time.perf_counter() - t0
    return times


class Calibrated:
    """Brackets every timed sample with kernel passes and gives its speed factors.

    A factor is the reference time of some parts over their mean time in the
    passes just before and just after the sample.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self._before = self._after = kernel_seconds(parts)

    def advance(self) -> None:
        """Run the pass that closes the sample just taken (and opens the next)."""
        self._before, self._after = self._after, kernel_seconds(self.parts)

    def factor(self, parts: tuple[str, ...]) -> float:
        measured = sum(self._before[p] + self._after[p] for p in parts) / 2.0
        return sum(PARTS[p][1] for p in parts) / measured
