"""A per-vector reference of the three-point rules EF21, AdaCGD, CLAG and LAG.

Written from the rules' definitions (arXiv 2211.00188 and 2202.00998), one
vector at a time, importing nothing but NumPy, so it shares no code with
``adacgd``: its own top-k, skip test and level tests. A level is any object
with a ``kind`` ("topk", "randk" or "identity") and a ``k``. A rand-k level's
support comes from ``draw(branch, k)``, a callback the caller supplies.
``tests/test_compressors.py`` and acceptance criterion 3 hold
``adacgd.compressors`` to it on every field of a message.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SKIP, SPARSE, FULL = 0, 1, 2  # what a message sends: nothing, x - h at some coordinates, or x
_NONE = np.zeros(0, dtype=np.int64)


class Level(NamedTuple):
    kind: str
    k: int = 0


class Message(NamedTuple):
    vector: np.ndarray  # the compressed vector
    branch: int
    kind: int
    indices: np.ndarray  # the coordinates a SPARSE message sends, ascending
    values: np.ndarray  # x - h at those coordinates


def sqnorm(v: np.ndarray) -> float:
    return float(v @ v)


def top_k(v: np.ndarray, k: int) -> np.ndarray:
    """The k largest-magnitude coordinates of v, ascending: ties to the lowest index, NaN last."""
    return np.sort(np.argsort(-np.abs(v), kind="stable")[:k])  # a sort puts NaN keys last


def ef21(h, x, level, draw=None) -> Message:
    """The shift h + C(x - h) on branch 0; a rand-k level keeps ``draw(k)``."""
    if level.kind == "identity":
        return Message(x.copy(), 0, FULL, _NONE, np.zeros(0))
    delta = x - h
    kept = top_k(delta, level.k) if level.kind == "topk" else draw(level.k)
    vector = h.copy()
    vector[kept] = h[kept] + delta[kept]
    return Message(vector, 0, SPARSE, kept, delta[kept])


def adacgd(h, y, x, levels, zeta, draw=None) -> Message:
    """Skip (branch 0) when |x - h|^2 <= zeta |x - y|^2; else the first level j
    whose shift errs by at most that budget, and the last level when none does."""
    budget = zeta * sqnorm(x - y)
    if sqnorm(x - h) <= budget:
        return Message(h.copy(), 0, SKIP, _NONE, np.zeros(0))
    for j, level in enumerate(levels, start=1):
        message = ef21(h, x, level, draw and (lambda k, j=j: draw(j, k)))
        if j == len(levels) or sqnorm(x - message.vector) <= budget:
            return message._replace(branch=j)


def clag(h, y, x, level, zeta, draw=None) -> Message:
    return adacgd(h, y, x, (level,), zeta, draw)


def lag(h, y, x, zeta) -> Message:
    return clag(h, y, x, Level("identity"), zeta)


def fields(messages: list[Message], dim: int) -> tuple[np.ndarray, ...]:
    """Stacked messages as dense arrays: vectors, branches, kinds, entry counts,
    and the mask of the sent coordinates and the values sent there (+0.0 elsewhere)."""
    mask, sent = np.zeros((len(messages), dim), dtype=bool), np.zeros((len(messages), dim))
    for i, m in enumerate(messages):
        mask[i, m.indices], sent[i, m.indices] = True, m.values
    vectors = np.stack([m.vector for m in messages])
    columns = np.array([(m.branch, m.kind, m.indices.size) for m in messages]).T
    return (vectors, *columns, mask, sent)


FIELD_NAMES = ("vectors", "branches", "kinds", "entries", "mask", "sent")


def mismatched(ours: tuple[np.ndarray, ...], theirs: tuple[np.ndarray, ...]) -> list[str]:
    """The names of the fields where two ``fields`` tuples differ: floats bit for bit, integers by value."""
    def same(u, v):
        if u.shape != v.shape:
            return False
        return u.tobytes() == v.tobytes() if u.dtype.kind == "f" == v.dtype.kind else np.array_equal(u, v)

    return [name for name, u, v in zip(FIELD_NAMES, ours, theirs) if not same(u, v)]


def boundary_triples(dim: int, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, y, x) stacks at zeta = 1 where a top-k level's candidate error is exactly its budget.

    For each k in ``ks``, scale in {1, 1/2, 4} and shift s < dim: h = 0, x
    holds k + 1, k, ..., 1 times the scale at alternating signs, rolled by s,
    and y = x - r e_j, where x_j = r is its least nonzero entry. The top-k
    candidate keeps all but x_j, so it errs by r^2, which is zeta |x - y|^2:
    the level fits under a test written <= and misses under <. Scales that
    are powers of two keep every square exact.
    """
    rows = []
    for k in ks:
        for scale in (1.0, 0.5, 4.0):
            base = np.zeros(dim)
            base[: k + 1] = scale * np.arange(k + 1, 0, -1) * (-1.0) ** np.arange(k + 1)
            for s in range(dim):
                x = np.roll(base, s)
                y = x.copy()
                y[(k + s) % dim] = 0.0
                rows.append((np.zeros(dim), y, x))
    return tuple(np.stack(column) for column in zip(*rows))
