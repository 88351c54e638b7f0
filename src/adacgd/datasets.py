"""LIBSVM-format parsing, deterministic client partitioning, synthetic data.

One example per line: a label token ("+1"/"1" map to +1, "-1"/"0" to -1)
followed by index:value pairs with strictly increasing 1-based indices.
Blank lines are skipped and anything after '#' on a line is a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .core import SeededRng
from .problems import Problem

_PARTITION_STREAM = 101
_SYNTHETIC_STREAM = 102


class LibsvmParseError(ValueError):
    """Parse failure carrying the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Example:
    """A labeled sparse feature row: the row model of a LIBSVM line."""

    label: int  # +1 or -1
    features: tuple[tuple[int, float], ...]  # (1-based index, value), strictly increasing

    def __post_init__(self) -> None:
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        prev = 0
        for idx, val in self.features:
            if idx < 1:
                raise ValueError(f"feature index must be >= 1, got {idx}")
            if idx <= prev:
                raise ValueError(f"feature indices must be strictly increasing, got {idx} after {prev}")
            if not math.isfinite(val):
                raise ValueError(f"feature value at index {idx} is not finite")
            prev = idx


_POSITIVE_LABELS = {"+1", "1"}
_NEGATIVE_LABELS = {"-1", "0"}


def parse_libsvm(text) -> tuple[list[Example], int]:
    """Parse LIBSVM text into examples and the inferred dimension.

    The inferred dimension is the maximum feature index seen. Accepts
    ``str`` or UTF-8 ``bytes``.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    examples: list[Example] = []
    dim = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head in _POSITIVE_LABELS:
            label = 1
        elif head in _NEGATIVE_LABELS:
            label = -1
        else:
            raise LibsvmParseError(lineno, f"invalid label token {head!r}")
        feats: list[tuple[int, float]] = []
        for tok in tokens[1:]:
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
            examples.append(Example(label, tuple(feats)))
        except ValueError as err:
            raise LibsvmParseError(lineno, str(err)) from None
        if feats:
            dim = max(dim, feats[-1][0])
    return examples, dim


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
    return Partition(tuple(tuple(int(j) for j in block) for block in np.array_split(order, n)), seed)


def to_dense(examples: Sequence[Example], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Materialize examples as a dense (N, dim) matrix and a label vector."""
    features = np.zeros((len(examples), dim), dtype=np.float64)
    labels = np.empty(len(examples), dtype=np.float64)
    for row, e in enumerate(examples):
        labels[row] = e.label
        for idx, val in e.features:
            if idx > dim:
                raise ValueError(f"feature index {idx} exceeds dimension {dim}")
            features[row, idx - 1] = val
    return features, labels


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
    part = partition(labels, n_clients, seed)
    if scale_features:
        features = max_abs_scale(features)  # a new array
    elif copy:
        features = features.copy()
    order = np.fromiter((j for block in part.shards for j in block), dtype=np.intp, count=labels.shape[0])
    _reorder_rows(features, order)
    return Problem.partitioned(features, labels[order], [len(block) for block in part.shards], lam)


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
