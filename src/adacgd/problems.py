"""Objective oracles: regularized logistic loss over client shards, diagonal quadratics.

The global objective is the mean of per-client objectives. Each logistic
client owns a shard of (features, label) pairs and contributes the mean
log-loss over its shard plus the bounded nonconvex penalty
lam * sum_j x_j^2 / (1 + x_j^2). A problem holds all rows once, in client
order, as one ClientRows: a dense (N, d) array, or, for rows that are mostly
zeros, as LIBSVM data usually is, a CSR matrix. On dense rows the round
oracle makes one batched product per run of clients with one shard size;
on CSR rows it multiplies only the nonzeros. A Shard is a view of its
client's dense rows, or its CSR block densified when it is read.
Quadratic problems replicate one diagonal quadratic across all clients,
which pins exact smoothness and curvature constants for rate tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import groupby
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.special import expit

from .core import as_vector, mean_ascending

if TYPE_CHECKING:  # scipy.sparse is imported only when a problem is built sparse
    from scipy.sparse import csc_array, csr_array

LOGISTIC = "logistic_nonconvex"
QUADRATIC = "quadratic"


@dataclass(frozen=True)
class Shard:
    """One client's slice of the dataset, materialized densely."""

    features: np.ndarray  # (examples, dim)
    labels: np.ndarray  # (examples,), entries in {-1, +1}

    @property
    def size(self) -> int:
        return self.features.shape[0]


def _check_lam(lam: float) -> None:
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"regularization weight lam must be finite and >= 0, got {lam}")


# Client-ordered rows with at most this fraction of nonzeros are kept only in
# CSR form (a CSR ClientRows.matrix), and the round oracle multiplies only the nonzeros;
# denser rows are kept densely and take the batched BLAS products. Per round
# oracle call with 20 clients of m rows, BLAS vs CSR in µs at 5%, 12.5%, 20% and 30% nonzero
# (NumPy 2.4.6, SciPy 1.17.1, OpenBLAS 0.3.31, one core of a 2-vCPU AVX-512
# VM): d=50 m=50 82/77, 89/79, 79/87, 76/160; d=123 m=50 113/86, 107/100,
# 99/120, 103/200; d=50 m=1000 1687/1710, 1872/1449, 1561/1616, 1931/2207;
# d=256 m=1000 4628/1483, 3825/1895, 4091/2371, 3856/4009; d=2000 m=15
# 543/203, 533/290, 604/404, 564/470. CSR stops winning at about 15-20% on
# small or narrow rows and 30-40% on wide ones. The two forms add the products
# in different orders, so moving this constant changes the last bits of every
# trace whose data's nonzero fraction lies between its old and new value.
_SPARSE_MAX_DENSITY = 0.125
# Rows are scanned for nonzeros about this many entries at a time.
_SCAN_ELEMENTS = 1 << 16


def _runs(sizes: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
    """(first client, first row, clients, rows each) for each run of consecutive clients with one shard size."""
    runs = []
    client = row = 0
    for m, run in groupby(sizes):
        g = len(list(run))
        runs.append((client, row, g, m))
        client, row = client + g, row + g * m
    return tuple(runs)


def _mostly_zero(nonzeros: int, entries: int) -> bool:
    """Whether rows with this many nonzeros out of this many entries are kept in CSR form."""
    return nonzeros <= _SPARSE_MAX_DENSITY * entries


@dataclass(frozen=True)
class ClientRows:
    """A logistic problem's rows in client order: client i owns rows ``offsets[i]:offsets[i + 1]``.

    ``matrix`` is a dense (N, d) float64 array, or, for mostly-zero rows, a
    CSR (N, n·d) matrix in which row r holds the nonzeros of row r at
    columns client(r)·d + j. Then ``matrix @ np.tile(x, n)`` gives the
    product of every row with x and ``matrix.T @ w`` every client's
    weighted sum of its rows, each in one call over the nonzeros only.
    Neither product calls BLAS, so their bits do not depend on the BLAS
    kernel.
    """

    matrix: np.ndarray | csr_array  # (N, d) dense, or (N, n * d) CSR
    labels: np.ndarray  # (N,)
    offsets: np.ndarray  # (n + 1,)
    sparse: bool = field(init=False)  # whether ``matrix`` is CSR
    transposed: np.ndarray | csc_array = field(init=False, repr=False)  # matrix.T, a view, made once
    shard_sizes: np.ndarray = field(init=False, repr=False)  # (n, 1) float64 row counts
    runs: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False)  # _runs of the shard sizes

    def __post_init__(self) -> None:
        sizes = np.diff(self.offsets)
        object.__setattr__(self, "sparse", not isinstance(self.matrix, np.ndarray))
        object.__setattr__(self, "transposed", self.matrix.T)
        object.__setattr__(self, "shard_sizes", sizes.astype(np.float64)[:, None])
        object.__setattr__(self, "runs", _runs(sizes.tolist()))

    def block(self, i: int):
        """Client i's (m_i, d) rows: a view of dense rows, or a CSR block holding its entries in ``matrix``'s order."""
        rows = slice(self.offsets[i], self.offsets[i + 1])
        if not self.sparse:
            return self.matrix[rows]
        d = self.matrix.shape[1] // (self.offsets.size - 1)
        return self.matrix[rows, i * d : (i + 1) * d]

    def client_labels(self, i: int) -> np.ndarray:
        return self.labels[self.offsets[i] : self.offsets[i + 1]]


class _Shards(Sequence):
    """A logistic problem's shards: ``[i]`` views client i's dense rows, or densifies its CSR block on each read."""

    def __init__(self, rows: ClientRows):
        self._rows = rows

    def __len__(self) -> int:
        return self._rows.offsets.size - 1

    def __getitem__(self, i: int) -> Shard:
        i = range(len(self))[i]  # negative i counts from the end; out of range raises IndexError
        block = self._rows.block(i)
        return Shard(block.toarray() if self._rows.sparse else block, self._rows.client_labels(i))


def _nonzero_entries(features: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each row's nonzero count, column indices and values, or None when the rows are not mostly zero.

    The rows are read in blocks of about _SCAN_ELEMENTS entries, so beside
    the entries themselves no temporary array grows with the data.
    """
    n_rows, d = features.shape
    step = max(1, _SCAN_ELEMENTS // max(d, 1))
    blocks = [features[r : r + step] for r in range(0, n_rows, step)]
    counts = [np.count_nonzero(b != 0.0) for b in blocks]
    nnz = sum(counts)
    if not _mostly_zero(nnz, features.size):
        return None
    values = np.empty(nnz)
    columns = np.empty(nnz, dtype=np.intp)
    row_counts = np.empty(n_rows, dtype=np.intp)
    at = 0
    for r, b, k in zip(range(0, n_rows, step), blocks, counts):
        flat = np.flatnonzero(b != 0.0)
        row, col = np.divmod(flat, d)
        columns[at : at + k] = col
        values[at : at + k] = b.ravel()[flat]
        row_counts[r : r + b.shape[0]] = np.bincount(row, minlength=b.shape[0])
        at += k
    return row_counts, columns, values


def _sparse_rows(
    row_counts: np.ndarray, columns: np.ndarray, values: np.ndarray, labels: np.ndarray, sizes: Sequence[int], dim: int
) -> ClientRows:
    """The CSR form of client-ordered rows given by their entries: the one builder of CSR ClientRows.

    Row r holds the next ``row_counts[r]`` entries of ``columns`` (0-based,
    ascending within the row) and ``values``; client i holds the next
    sizes[i] rows. The caller decides that the rows are mostly zero.
    Explicit zeros are dropped, and each column moves into its client's
    block of ``dim`` columns. Indices are int32 when the entry count and the
    column count fit, else int64.
    """
    from scipy.sparse import csr_array

    keep = values != 0.0
    if not keep.all():
        rows = np.repeat(np.arange(row_counts.size), row_counts)[keep]
        row_counts = np.bincount(rows, minlength=row_counts.size)
        columns, values = columns[keep], values[keep]
    nnz, n = values.size, len(sizes)
    index = np.int32 if max(nnz, n * dim) <= np.iinfo(np.int32).max else np.int64
    first = np.repeat(np.arange(n, dtype=index) * dim, sizes)  # the column of each row's client's first feature
    indices = np.repeat(first, row_counts)
    indices += columns
    indptr = np.concatenate((np.zeros(1, dtype=index), np.cumsum(row_counts, dtype=index)))
    matrix = csr_array((values, indices, indptr), shape=(row_counts.size, n * dim))
    return ClientRows(matrix, labels, np.concatenate(([0], np.cumsum(sizes))))


@dataclass(frozen=True)
class Problem:
    """Finite-sum objective f = (1/n) sum_i f_i with per-client gradient oracles.

    A logistic problem holds its rows once, in client order, as ``rows``:
    dense, or in CSR form when they are mostly zero. ``shards[i]`` is
    client i's view of dense rows, or its CSR block densified each time it
    is read.
    """

    kind: str
    dim: int
    lam: float
    n_clients: int
    rows: Optional[ClientRows] = None
    diagonal: Optional[np.ndarray] = None
    shards: Sequence[Shard] = field(init=False, default=())

    def __post_init__(self) -> None:
        _check_lam(self.lam)
        if self.dim < 1:
            raise ValueError(f"problem dimension must be >= 1, got {self.dim}")
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        if self.kind == LOGISTIC:
            rows, n = self.rows, self.n_clients
            n_rows = rows.labels.shape[0]
            sizes = np.diff(rows.offsets)
            fits = sizes.shape == (n,) and rows.offsets[0] == 0 and rows.offsets[-1] == n_rows
            if not fits or rows.matrix.shape != (n_rows, n * self.dim if rows.sparse else self.dim):
                raise ValueError(f"rows of shape {rows.matrix.shape} do not fit {n} clients of dim {self.dim}")
            if np.any(sizes < 1):
                raise ValueError("shard must contain at least one example")
            values = [rows.matrix.data] if rows.sparse else map(rows.block, range(n))  # dense: a client at a time
            if not all(np.isfinite(v).all() for v in values):
                raise ValueError("shard features contain non-finite values")
            if not np.all(np.isin(rows.labels, (-1.0, 1.0))):
                raise ValueError("labels must be -1 or +1")
            object.__setattr__(self, "shards", _Shards(rows))
        elif self.kind == QUADRATIC:
            diag = as_vector(self.diagonal)
            if diag.shape[0] != self.dim:
                raise ValueError("diagonal length must equal the problem dimension")
            if np.any(diag < 0):
                raise ValueError("diagonal entries must be >= 0")
            object.__setattr__(self, "diagonal", diag)
        else:
            raise ValueError(f"unknown problem kind {self.kind!r}")

    @staticmethod
    def partitioned(features: np.ndarray, labels: np.ndarray, sizes: Sequence[int], lam: float) -> "Problem":
        """Logistic problem over rows in client order: client i holds the next sizes[i] rows.

        Rows that are at most _SPARSE_MAX_DENSITY nonzero are kept only in
        CSR form. Denser ones are kept densely: C-contiguous
        float64 arrays become the problem's storage as they are, and any
        others are converted to that form once, here.
        """
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.float64)
        if features.ndim != 2 or labels.shape != features.shape[:1]:
            raise ValueError(f"need (N, d) features and N labels, got shapes {features.shape} and {labels.shape}")
        sizes = list(sizes)
        if min(sizes, default=0) < 1 or sum(sizes) != features.shape[0]:
            raise ValueError(f"shard sizes {sizes} must each be >= 1 and add up to the {features.shape[0]} rows")
        d = features.shape[1]
        entries = _nonzero_entries(features)
        if entries is None:
            rows = ClientRows(features, labels, np.concatenate(([0], np.cumsum(sizes))))
        else:
            rows = _sparse_rows(*entries, labels, sizes, d)
        return Problem(LOGISTIC, d, lam, len(sizes), rows)

    @staticmethod
    def quadratic(diagonal, n_clients: int = 1) -> "Problem":
        diag = as_vector(diagonal)
        return Problem(QUADRATIC, diag.shape[0], 0.0, n_clients, diagonal=diag)


@dataclass(frozen=True)
class SmoothnessConstants:
    """Upper bounds on objective smoothness, plus the quadratic curvature floor.

    l_minus bounds the smoothness of the averaged objective; l_plus bounds
    the root-mean-square client smoothness, and l_minus <= l_plus always.
    """

    l_minus: float
    l_plus: float
    mu: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0 < self.l_minus <= self.l_plus):
            raise ValueError(f"need 0 < l_minus <= l_plus, got {self.l_minus}, {self.l_plus}")
        if self.mu is not None and self.mu <= 0:
            raise ValueError(f"mu must be positive when present, got {self.mu}")


def _regularizer(lam: float, x: np.ndarray):
    """The penalty at x, or at each row of a stack of points (summed along the last axis)."""
    sq = x * x
    return lam * np.add.reduce(sq / (1.0 + sq), axis=-1)


def _regularizer_gradient(lam: float, x: np.ndarray) -> np.ndarray:
    denom = 1.0 + x * x
    return (2.0 * lam) * x / (denom * denom)


def _checked_point(p: Problem, i: int, x) -> np.ndarray:
    x = as_vector(x)
    if x.shape[0] != p.dim:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {p.dim}")
    if not 0 <= i < p.n_clients:
        raise ValueError(f"client index {i} out of range [0, {p.n_clients})")
    return x




# The margin helpers take one shard's (m, d) features and (m,) labels, or a
# run's (clients, m, d) and (clients, m): any leading batch axis. _margins
# also takes CSR rows.
def _margins(features, labels: np.ndarray, x: np.ndarray) -> np.ndarray:
    return labels * (features @ x)


def _margin_loss(z: np.ndarray) -> np.ndarray:
    # softplus(-z) = log(1 + exp(-z)), overflow-safe
    return np.add.reduce(np.logaddexp(0.0, -z), axis=-1) / z.shape[-1]


def _margin_weights(labels: np.ndarray, z: np.ndarray) -> np.ndarray:
    return -labels * expit(-z)


def _margin_gradient(features: np.ndarray, labels: np.ndarray, z: np.ndarray) -> np.ndarray:
    weights = _margin_weights(labels, z)
    return np.matmul(features.swapaxes(-1, -2), weights[..., None])[..., 0] / z.shape[-1]


def client_loss(p: Problem, i: int, x) -> float:
    """Value of client i's objective at x."""
    x = _checked_point(p, i, x)
    if p.kind == QUADRATIC:
        return 0.5 * float(np.add.reduce(p.diagonal * x * x))
    features, labels = p.rows.block(i), p.rows.client_labels(i)
    return float(_margin_loss(_margins(features, labels, x))) + float(_regularizer(p.lam, x))


def client_gradient(p: Problem, i: int, x) -> np.ndarray:
    """Exact analytic gradient of client i's objective at x."""
    x = _checked_point(p, i, x)
    if p.kind == QUADRATIC:
        return p.diagonal * x
    features, labels = p.rows.block(i), p.rows.client_labels(i)
    z = _margins(features, labels, x)
    if p.rows.sparse:
        grad = features.T @ _margin_weights(labels, z) / z.shape[-1]
    else:
        grad = _margin_gradient(features, labels, z)
    return grad + _regularizer_gradient(p.lam, x)


def _round_oracle(p: Problem, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """At each row of an (R, d) stack of already-checked points: the global
    objective value, as an (R,) array, and the (n, d) array of client
    gradients, as one (R, n, d) array.

    The R points share each product's operand. Dense rows are walked one
    run of clients with one shard size m at a time, as a (clients, m, d)
    view, so one batched margin product per run serves every point's losses
    and gradients: for each point and client it makes the BLAS call that
    the same helpers make on one shard, one dense product per point and
    client, never one product with R columns, whose bits could differ.
    Exponentials, the regularizer and the loss reductions act on the whole
    stack, each entry as on its own, and the client values are summed in
    client order. So row r of the results is bitwise the client-order mean
    of ``client_loss`` at point r and the stacked ``client_gradient`` rows
    there. CSR rows instead take one CSR product for all margins and one
    for all gradients per point, and the losses of each run are reduced as
    one (points, clients, m) slice of the margins. Each row's and each
    gradient entry's sum runs over the same nonzeros in the same order as
    on the client's own block, so the same property holds.
    tests/test_problems.py checks this property.
    """
    n, stack = p.n_clients, xs.shape[0]
    if p.kind == QUADRATIC:
        gradient = p.diagonal * xs
        return 0.5 * np.add.reduce(gradient * xs, axis=-1), np.repeat(gradient[:, None], n, axis=1)
    values = np.empty((stack, n))
    grads = np.empty((stack, n, p.dim))
    s = p.rows
    if not s.sparse:
        for client, row, g, m in s.runs:
            features = s.matrix[row : row + g * m].reshape(g, m, p.dim)
            labels = s.labels[row : row + g * m].reshape(g, m)
            z = labels * np.matmul(features, xs[:, None, :, None])[..., 0]
            values[:, client : client + g] = _margin_loss(z)
            grads[:, client : client + g] = _margin_gradient(features, labels, z)
    else:
        z = np.stack([_margins(s.matrix, s.labels, np.tile(x, n)) for x in xs])
        for client, row, g, m in s.runs:
            values[:, client : client + g] = _margin_loss(z[:, row : row + g * m].reshape(stack, g, m))
        weights = _margin_weights(s.labels, z)
        for r in range(stack):
            grads[r] = (s.transposed @ weights[r]).reshape(n, p.dim) / s.shard_sizes
    values += _regularizer(p.lam, xs)[:, None]
    grads += _regularizer_gradient(p.lam, xs)[:, None]
    return np.array([sum(row) / n for row in values.tolist()]), grads


def loss(p: Problem, x) -> float:
    """Global objective value: mean of client objectives, from the round oracle."""
    return float(_round_oracle(p, _checked_point(p, 0, x)[None])[0][0])


def full_gradient(p: Problem, x) -> np.ndarray:
    """Gradient of the global objective, summed in ascending client order."""
    x = _checked_point(p, 0, x)
    if p.kind == QUADRATIC:
        return p.diagonal * x
    return mean_ascending(_round_oracle(p, x[None])[1][0])


def smoothness(p: Problem) -> SmoothnessConstants:
    """Conservative closed-form smoothness bounds (exact for quadratics).

    Logistic clients: L_i = mean |a|^2 / 4 + 2 * lam (the penalty's curvature
    is at most 2 per unit weight). The averaged-objective bound is the mean
    of the L_i; the mean-square bound is their quadratic mean.
    """
    if p.kind == QUADRATIC:
        top = float(np.max(p.diagonal))
        if top <= 0:
            raise ValueError("quadratic with all-zero diagonal has no curvature scale")
        positive = p.diagonal[p.diagonal > 0]
        return SmoothnessConstants(top, top, float(np.min(positive)))
    r = p.rows
    if r.sparse:
        row_sq = np.split(r.matrix.power(2) @ np.ones(r.matrix.shape[1]), r.offsets[1:-1])
    else:
        row_sq = [np.sum(r.block(i) ** 2, axis=1) for i in range(p.n_clients)]
    per_client = np.array([float(np.mean(r)) / 4.0 + 2.0 * p.lam for r in row_sq])
    if np.any(per_client <= 0):
        raise ValueError("degenerate shard with zero smoothness bound")
    l_plus = float(np.sqrt(np.mean(per_client**2)))
    l_minus = min(float(np.mean(per_client)), l_plus)
    return SmoothnessConstants(l_minus, l_plus)


def check_gradient(p: Problem, x, step: float = 1e-5) -> float:
    """Max relative error of the analytic gradient against central differences.

    The denominator is max(1, |analytic coordinate|) so coordinates near zero
    are compared absolutely.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = as_vector(x)
    analytic = full_gradient(p, x)
    worst = 0.0
    for j in range(p.dim):
        e = np.zeros(p.dim)
        e[j] = step
        numeric = (loss(p, x + e) - loss(p, x - e)) / (2.0 * step)
        worst = max(worst, abs(numeric - analytic[j]) / max(1.0, abs(analytic[j])))
    return worst
