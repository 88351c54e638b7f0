"""LIBSVM-format parsing, deterministic client partitioning, synthetic data.

One example per line: a label token ("+1"/"1" map to +1, "-1"/"0" to -1)
followed by ``index:value`` tokens with strictly increasing 1-based indices
and finite values. Lines end where ``str.splitlines`` ends them (``\n``,
``\r\n``, ``\r``, ``\x0b``, ``\x0c``, ``\x85``, ``\u2028`` and the other
Unicode line breaks), anything from '#' to the end of a line is a comment,
blank lines are skipped, and tokens are separated by any run of Unicode
whitespace (``str.split``), NBSP included. A feature token holds exactly one
':'; Python's ``int`` reads its index and ``float`` its value, so ``+3``,
``1_0``, non-ASCII decimal digits, ``1e-3`` and ``inf`` all read as those
functions read them, and a value that is not finite (``nan``, ``inf``,
``1e400``) is rejected. Indices are held as int64, so an index of 2**63 or
more is rejected too. Every rejection is a :class:`LibsvmParseError` naming
the first bad line.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .core import SeededRng
from .problems import Problem

_PARTITION_STREAM = 101
_SYNTHETIC_STREAM = 102

_LABELS = {"+1": 1, "1": 1, "-1": -1, "0": -1}
_INDEX_BOUND = 2**63  # indices are held as int64
# Feature tokens converted per block: bounds the parser's temporary strings.
_BLOCK_TOKENS = 1 << 14


class LibsvmParseError(ValueError):
    """Parse failure carrying the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _rule_breaks(indices: np.ndarray, values: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row rules as entry masks: index below 1, index not above the one before it in its row, value not finite.

    Row ``i`` holds the entries ``offsets[i]:offsets[i + 1]``.
    """
    prev = np.empty_like(indices)
    prev[1:] = indices[:-1]
    prev[offsets[:-1][offsets[:-1] < offsets[1:]]] = 0  # the first entry of every non-empty row
    return indices < 1, indices <= prev, ~np.isfinite(values)


@dataclass(frozen=True)
class Example:
    """A labeled sparse feature row: the row model of a LIBSVM line."""

    label: int  # +1 or -1
    features: tuple[tuple[int, float], ...]  # (1-based index, value), strictly increasing

    def __post_init__(self) -> None:
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        if not self.features:
            return
        idx, val = zip(*self.features)
        if max(idx) >= _INDEX_BOUND:
            raise ValueError(f"feature index {max(idx)} does not fit in int64")
        # An index below 1 breaks the first rule whatever its value, so 0 stands in for it.
        low, unordered, nonfinite = _rule_breaks(
            np.array([max(i, 0) for i in idx], dtype=np.int64), np.array(val, dtype=np.float64), np.array([0, len(idx)])
        )
        bad = low | unordered | nonfinite
        if not bad.any():
            return
        j = int(bad.argmax())
        if low[j]:
            raise ValueError(f"feature index must be >= 1, got {idx[j]}")
        if unordered[j]:
            raise ValueError(f"feature indices must be strictly increasing, got {idx[j]} after {idx[j - 1]}")
        raise ValueError(f"feature value at index {idx[j]} is not finite")


@dataclass(frozen=True, eq=False)
class LibsvmRows(Sequence):
    """Parsed LIBSVM rows in columnar (CSR) form, read as a sequence of :class:`Example`.

    Row ``i`` has the label ``labels[i]`` and the entries
    ``offsets[i]:offsets[i + 1]`` of ``indices`` and ``values``.
    :func:`parse_libsvm` builds it with every row keeping the rules of
    :class:`Example`; ``rows[i]`` is row ``i`` as one, and a negative ``i``
    counts from the end.
    """

    labels: np.ndarray  # (N,) float64, +1 or -1
    offsets: np.ndarray  # (N + 1,) int64, offsets[0] == 0 and offsets[N] == nnz
    indices: np.ndarray  # (nnz,) int64, 1-based
    values: np.ndarray  # (nnz,) float64

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, i: int) -> Example:
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"row {i} out of range for {n} rows")
        lo, hi = self.offsets[i % n], self.offsets[i % n + 1]
        return Example(int(self.labels[i]), tuple(zip(self.indices[lo:hi].tolist(), self.values[lo:hi].tolist())))


def _fields(line: str) -> list[str]:
    return line.split("#", 1)[0].split()


def _check_line(lineno: int, line: str) -> None:
    """Read one line token by token; raises the :class:`LibsvmParseError` that words its first fault, if it has one."""
    head, *tokens = _fields(line)
    if head not in _LABELS:
        raise LibsvmParseError(lineno, f"invalid label token {head!r}")
    feats: list[tuple[int, float]] = []
    for tok in tokens:
        idx_str, colon, val_str = tok.partition(":")
        if not colon:
            raise LibsvmParseError(lineno, f"expected index:value, got {tok!r}")
        try:
            idx = int(idx_str)
        except ValueError:
            raise LibsvmParseError(lineno, f"non-numeric feature index {idx_str!r}") from None
        try:
            feats.append((idx, float(val_str)))
        except ValueError:
            raise LibsvmParseError(lineno, f"non-numeric feature value {val_str!r}") from None
    try:
        Example(_LABELS[head], tuple(feats))
    except ValueError as err:
        raise LibsvmParseError(lineno, str(err)) from None


def _read_block(tokens: list[str], counts: list[int], linenos: list[int], lines: list[str]):
    """Convert the feature tokens of whole rows to (indices, values) and check the row rules.

    ``counts[r]`` tokens belong to the row on line ``linenos[r]`` (0-based)
    of ``lines``. A block that fails is read again line by line, which
    raises for its first bad line.
    """
    n = len(tokens)
    if not n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    joined = " ".join(tokens)
    try:
        # Tokens hold no whitespace, so each holds exactly one ':' when the
        # ':' and ' ' bytes of the joined text alternate ':', ' ', ..., ':'
        # (neither byte occurs inside a multi-byte UTF-8 character).
        seps = np.frombuffer(joined.encode(), dtype=np.uint8)
        seps = seps[(seps == 58) | (seps == 32)]
        if seps.size != 2 * n - 1 or not (seps[0::2] == 58).all():
            raise ValueError("a feature token without exactly one ':'")
        parts = joined.replace(":", " ").split(" ")
        indices = np.fromiter(map(int, parts[0::2]), dtype=np.int64, count=n)
        values = np.fromiter(map(float, parts[1::2]), dtype=np.float64, count=n)
    except (ValueError, OverflowError):
        for at in linenos:
            _check_line(at + 1, lines[at])
        raise
    offsets = np.cumsum([0, *counts])
    bad = np.logical_or.reduce(_rule_breaks(indices, values, offsets))
    if bad.any():
        at = linenos[np.searchsorted(offsets, bad.argmax(), side="right") - 1]
        _check_line(at + 1, lines[at])
    return indices, values


def parse_libsvm(text) -> tuple[LibsvmRows, int]:
    """Parse LIBSVM text into :class:`LibsvmRows` and the inferred dimension.

    The inferred dimension is the maximum feature index seen. Accepts
    ``str`` or UTF-8 ``bytes``. Feature tokens are converted a block of
    whole rows at a time, in file order, so the first bad line is the one
    reported.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    labels: list[int] = []
    counts: list[int] = []
    linenos: list[int] = []
    tokens: list[str] = []
    blocks: list[tuple[np.ndarray, np.ndarray]] = []
    done = 0  # rows already converted
    for at, line in enumerate(lines):
        fields = _fields(line)
        if not fields:
            continue
        label = _LABELS.get(fields[0])
        if label is None:  # the rows not yet converted come first: one may hold the first bad line
            _read_block(tokens, counts[done:], linenos[done:], lines)
            _check_line(at + 1, line)
        labels.append(label)
        counts.append(len(fields) - 1)
        linenos.append(at)
        tokens += fields[1:]
        if len(tokens) >= _BLOCK_TOKENS:
            blocks.append(_read_block(tokens, counts[done:], linenos[done:], lines))
            tokens, done = [], len(counts)
    blocks.append(_read_block(tokens, counts[done:], linenos[done:], lines))
    indices = np.concatenate([idx for idx, _ in blocks])
    values = np.concatenate([val for _, val in blocks])
    rows = LibsvmRows(np.array(labels, dtype=np.float64), np.cumsum([0, *counts]), indices, values)
    return rows, int(indices.max()) if indices.size else 0


def format_example(e: Example) -> str:
    """Serialize an example; parsing the result reproduces it exactly."""
    head = "+1" if e.label == 1 else "-1"
    return " ".join([head] + [f"{idx}:{val!r}" for idx, val in e.features])


@dataclass(frozen=True)
class Partition:
    """Disjoint, exhaustive split of example indices into n shards."""

    shards: tuple[tuple[int, ...], ...]
    seed: int


def partition(examples: Sequence, n: int, seed: int) -> Partition:
    """Shuffle deterministically, then cut into n near-equal contiguous blocks.

    The first (N mod n) shards receive one extra example.
    """
    count = len(examples)
    if n < 1:
        raise ValueError(f"need at least one shard, got n={n}")
    if n > count:
        raise ValueError(f"cannot split {count} examples into {n} shards")
    order = SeededRng(seed, _PARTITION_STREAM).generator().permutation(count)
    return Partition(tuple(tuple(block.tolist()) for block in np.array_split(order, n)), seed)


def to_dense(rows: LibsvmRows, dim: int, order: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Materialize rows as a dense (N, dim) matrix and a label vector.

    Row i of both is ``rows[i]``, or ``rows[order[i]]`` when a permutation
    ``order`` is given.
    """
    over = rows.indices > dim
    if over.any():
        raise ValueError(f"feature index {rows.indices[over.argmax()]} exceeds dimension {dim}")
    n = len(rows)
    position = np.arange(n)  # the output row of each input row
    if order is not None:
        position[order] = np.arange(n)
    features = np.zeros((n, dim), dtype=np.float64)
    features[np.repeat(position, np.diff(rows.offsets)), rows.indices - 1] = rows.values
    return features, (rows.labels.copy() if order is None else rows.labels[order])


def max_abs_scale(features: np.ndarray) -> np.ndarray:
    """Scale each feature column by its max absolute value (zero columns kept)."""
    scale = np.max(np.abs(features), axis=0)
    scale[scale == 0.0] = 1.0
    return features / scale


def _reorder_rows(a: np.ndarray, order: np.ndarray, chunk: int = 64) -> None:
    """Set ``a[:] = a[order]`` in place, holding at most ``chunk`` rows aside.

    Each cycle of the permutation is shifted along ``chunk`` rows at a time,
    so no second copy of ``a`` is made.
    """
    nxt = order.tolist()
    seen = bytearray(len(nxt))
    for start in range(len(nxt)):
        if seen[start] or nxt[start] == start:
            continue
        cycle = [start]
        j = nxt[start]
        while j != start:
            seen[j] = 1
            cycle.append(j)
            j = nxt[j]
        c = np.array(cycle, dtype=np.intp)
        first = a[start].copy()
        for t in range(0, len(c) - 1, chunk):
            idx = c[t : t + chunk + 1]
            a[idx[:-1]] = a[idx[1:]]  # row c[t] takes row c[t + 1] = order[c[t]]
        a[c[-1]] = first


def _client_order(labels: np.ndarray, n_clients: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """The row order that lists client 0's rows, then client 1's, ...; and each client's row count."""
    part = partition(labels, n_clients, seed)
    order = np.fromiter((j for block in part.shards for j in block), dtype=np.intp, count=labels.shape[0])
    return order, [len(block) for block in part.shards]


def build_problem(
    features: np.ndarray,
    labels: np.ndarray,
    n_clients: int,
    lam: float,
    seed: int,
    scale_features: bool = False,
    *,
    copy: bool = True,
) -> Problem:
    """Partition the rows of (features, labels) across clients; assemble the logistic objective.

    The dimension is ``features.shape[1]``. The problem holds the feature
    rows once, in client order. With ``copy=False`` it takes ``features``
    itself as that storage and reorders its rows in place, so a caller that
    built the array for this call never holds the data twice; such a caller
    must not use the array afterwards. Shards check finite features and +-1
    labels, and the problem a positive dimension.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or labels.shape != features.shape[:1]:
        raise ValueError(f"need (N, d) features and N labels, got shapes {features.shape} and {labels.shape}")
    order, sizes = _client_order(labels, n_clients, seed)
    if scale_features:
        features = max_abs_scale(features)  # a new array
    elif copy:
        features = features.copy()
    _reorder_rows(features, order)
    return Problem.partitioned(features, labels[order], sizes, lam)


def build_libsvm_problem(
    rows: LibsvmRows, dim: int, n_clients: int, lam: float, seed: int, scale_features: bool = False
) -> Problem:
    """``build_problem(*to_dense(rows, dim), n_clients, lam, seed, scale_features)``, bit for bit.

    The rows are densified straight into client order, so no dense row is
    moved afterwards.
    """
    order, sizes = _client_order(rows.labels, n_clients, seed)
    features, labels = to_dense(rows, dim, order)
    if scale_features:
        features = max_abs_scale(features)
    return Problem.partitioned(features, labels, sizes, lam)


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic generator parameters for a synthetic classification set.

    ``cond`` spreads per-feature scales geometrically over [1/cond, 1],
    ill-conditioning the logistic curvature the way real tabular data does.
    """

    n_examples: int
    dim: int
    seed: int
    scale: float = 1.0
    label_flip: float = 0.0
    cond: float = 1.0

    def __post_init__(self) -> None:
        if self.n_examples < 1 or self.dim < 1:
            raise ValueError(f"need n_examples >= 1 and dim >= 1, got {self.n_examples} and {self.dim}")
        if not 0.0 <= self.label_flip <= 1.0:
            raise ValueError(f"label_flip must lie in [0, 1], got {self.label_flip}")
        if not self.cond >= 1.0:
            raise ValueError(f"cond must be >= 1, got {self.cond}")

    def key(self) -> str:
        return (
            f"synthetic:n={self.n_examples},d={self.dim},seed={self.seed},"
            f"scale={self.scale!r},flip={self.label_flip!r},cond={self.cond!r}"
        )


def make_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian (N, d) features with Bernoulli +-1 labels from a random linear model.

    Labels are drawn from the model's own link probability, so classes
    overlap and the logistic minimizer stays finite.
    """
    g = SeededRng(spec.seed, _SYNTHETIC_STREAM).generator()
    a = g.standard_normal((spec.n_examples, spec.dim)) * spec.scale
    if spec.cond > 1.0 and spec.dim > 1:
        exponents = np.arange(spec.dim) / (spec.dim - 1)
        a *= spec.cond ** (-exponents)
    w = g.standard_normal(spec.dim) / np.sqrt(spec.dim)
    prob = expit(a @ w)
    y = np.where(g.random(spec.n_examples) < prob, 1.0, -1.0)
    if spec.label_flip > 0:
        flips = g.random(spec.n_examples) < spec.label_flip
        y = np.where(flips, -y, y)
    return a, y
