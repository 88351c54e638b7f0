"""The LIBSVM parser and densifier as they were before the columnar rewrite.

A verbatim copy, one ``Example`` per line and one Python loop per entry, that
imports nothing from ``adacgd``. ``tests/test_datasets.py`` holds the
columnar ``parse_libsvm`` and ``to_dense`` to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
