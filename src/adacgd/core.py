"""Shared numeric primitives: vectors, compressor constants, seeded RNG streams.

All vector arithmetic is 64-bit floating point. Communication costs are
accounted separately (see :mod:`adacgd.engine`) and never change computed
values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


def as_vector(values) -> np.ndarray:
    """Coerce ``values`` to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def check_same_dim(u: np.ndarray, v: np.ndarray) -> None:
    if u.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")


def sqnorm(u: np.ndarray) -> float:
    return float(u @ u)


def row_sqnorms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of an (..., d) array: (n, d) rows, or an (R, n, d) stack of them.

    One batched row dot: the same BLAS ddot per row as :func:`sqnorm`, so
    each entry is bitwise ``sqnorm`` of its row, whatever leading axes the
    row sits in.
    """
    return np.matmul(rows[..., None, :], rows[..., :, None]).reshape(rows.shape[:-1])


@dataclass(frozen=True)
class ThreePCConstants:
    """Certified (a, b) pair of a three-point compression inequality.

    The pair certifies  err(h, y, x) <= (1 - a) * |h - y|^2 + b * |x - y|^2
    with 0 < a <= 1 and b >= 0, where err is the (expected) squared
    reconstruction error of the compressor output against x.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 < self.a <= 1.0):
            raise ValueError(f"contraction constant a must lie in (0, 1], got {self.a}")
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError(f"drift constant b must be finite and >= 0, got {self.b}")


def combine_constants(parts: Iterable[ThreePCConstants]) -> ThreePCConstants:
    """Constants certified for a rule that dispatches among ``parts``.

    The combined pair is (min over a, max over b): whichever component fires,
    its inequality is implied by the combined one.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("combine_constants needs at least one component")
    return ThreePCConstants(min(p.a for p in parts), max(p.b for p in parts))


def _mix64(state: int, salt: int) -> int:
    # SplitMix64 finalizer; stable across platforms, pure integer arithmetic.
    z = (state + (salt + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeededRng:
    """Counter-based deterministic stream keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical draw sequences across
    runs and platforms. Instances are immutable; derive disjoint child
    streams instead of sharing one stream between concurrent tasks.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        # Runs on every derive, so it is kept to one operator.index per field.
        try:
            seed, stream_id = operator.index(self.seed), operator.index(self.stream_id)
        except TypeError:
            raise ValueError(f"seed and stream_id must be integers, got {self.seed!r} and {self.stream_id!r}") from None
        if not (0 <= seed <= _MASK64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not (0 <= stream_id <= _MASK64):
            raise ValueError("stream_id must be an unsigned 64-bit integer")
        if seed is not self.seed or stream_id is not self.stream_id:  # a NumPy integer or a bool: keep the int
            object.__setattr__(self, "seed", seed)
            object.__setattr__(self, "stream_id", stream_id)

    def derive(self, *salts: int) -> "SeededRng":
        """Child stream obtained by mixing ``salts``, each an integer, into the stream id."""
        sid = self.stream_id
        for s in salts:
            try:
                salt = operator.index(s)
            except TypeError:
                raise ValueError(f"salt must be an integer, got {s!r}") from None
            sid = _mix64(sid, salt & _MASK64)
        return SeededRng(self.seed, sid)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=(self.seed << 64) | self.stream_id))


def stream_generators(streams: Iterable[SeededRng]) -> Iterator[np.random.Generator]:
    """A generator at the start of each stream in turn, drawing what ``stream.generator()`` draws.

    One Philox is re-keyed in place per stream: key words [stream_id, seed],
    as ``generator`` keys it, and the rest of the state a fresh Philox has
    (zero counter, empty buffer, no cached 32-bit half), so nothing one
    stream left unread reaches the next. A re-key takes about 2 µs, a new
    Philox with its OS-seeded SeedSequence 11-16 µs (NumPy 2.4.6 on a
    2-vCPU AVX-512 VM). Every item is the same object, re-keyed when the
    next one is taken, so draw from each before advancing.
    """
    bits = np.random.Philox(key=0)
    generator = np.random.Generator(bits)
    key = np.zeros(2, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # past the 4-word buffer: the next draw runs Philox at the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    for stream in streams:
        key[:] = (stream.stream_id, stream.seed)
        bits.state = state
        yield generator


def mean_ascending(rows: np.ndarray) -> np.ndarray:
    """Mean of the rows of an (n, d) array, accumulated in ascending row order;
    of an (R, n, d) stack, each of its R (n, d) arrays' mean, as an (R, d) array.

    Over the row axis of a C-ordered array with d >= 2, ``np.add.reduce`` adds
    one row at a time, its inner loop running along d, for each leading index
    alike. A single column would be summed pairwise, so it is accumulated row
    by row instead. Adding 0.0 turns an all-negative-zero sum into +0.0, as a
    sum started from zeros gives. A fixed order keeps results reproducible no
    matter how callers schedule the per-worker computations, and makes each
    mean of a stack bitwise the mean of its (n, d) array alone.
    """
    total = np.add.reduce(rows, axis=-2) if rows.shape[-1] > 1 else np.add.accumulate(rows, axis=-2)[..., -1, :]
    return (total + 0.0) / rows.shape[-2]
